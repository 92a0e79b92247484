import random

import pytest
from hypothesis import given, settings, strategies as st

from bifol.pattern import PreconditionError
from bifol.periodic import AffineElement, IndexMap
from bifol import census as cs

from oracles import (_aff_inv, _aff_mul, oracle_affine_ball, oracle_skew_ball,
                     oracle_translation_ball, oracle_trivial_ball_sizes)


def test_affine_products_match_the_oracle():
    # mul and inverse read A^k off repeated squaring; the oracle applies A
    # or its inverse |k| times
    rng = random.Random(7)
    for _ in range(300):
        a, b = ((rng.randint(-cs.MAX_EXPONENT, cs.MAX_EXPONENT),
                 (rng.randint(-50, 50), rng.randint(-50, 50))) for _ in range(2))
        g, h = AffineElement(*a), AffineElement(*b)
        gh, inv = g.mul(h), g.inverse()
        assert (gh.k, gh.v) == _aff_mul(a, b), (a, b)
        assert (inv.k, inv.v) == _aff_inv(a), a
        assert g.mul(inv).is_identity()


def test_ball_base_cases():
    S = cs.trivial_affine_gens()
    assert len(cs.enumerate_ball(S, 0)) == 1
    assert len(cs.enumerate_ball(S, 1)) == 7


def test_ball_sizes_match_independent_bfs():
    S = cs.trivial_affine_gens()
    st_ = cs.ball_stats(S, 8)
    assert list(st_.ball) == oracle_trivial_ball_sizes(8)


def test_ball_deterministic():
    S = cs.trivial_affine_gens()
    a = cs.ball_stats(S, 6)
    b = cs.ball_stats(S, 6)
    assert a == b


def test_classification_rules():
    assert cs.classify_fixed_free(cs.TRIVIAL_AFFINE, AffineElement(1, (0, 0))) == cs.FIXED
    assert cs.classify_fixed_free(cs.TRIVIAL_AFFINE, AffineElement(0, (1, 0))) == cs.FREE
    assert cs.classify_fixed_free(cs.TRIVIAL_AFFINE, AffineElement(0, (0, 0))) == cs.FIXED
    assert cs.classify_fixed_free(cs.TRIVIAL_AFFINE, AffineElement(2, (3, 1))) == cs.FIXED
    assert cs.classify_fixed_free(cs.SKEW_INTMAP, IndexMap([0, 2])) == cs.FIXED
    assert cs.classify_fixed_free(cs.SKEW_INTMAP, IndexMap([1, 1])) == cs.FREE
    with pytest.raises(PreconditionError):
        cs.classify_fixed_free(cs.SKEW_INTMAP, AffineElement(0, (1, 0)))


def test_partition_identity_fixed():
    S = cs.trivial_affine_gens()
    ball = cs.enumerate_ball(S, 4)
    for _, (el, _r) in ball.items():
        assert cs.classify_fixed_free(S.model, el) in (cs.FIXED, cs.FREE)
    st_ = cs.ball_stats(S, 4)
    for i in range(5):
        assert st_.free[i] + st_.fixed[i] == st_.ball[i]


def test_free_is_exactly_translations():
    S = cs.trivial_affine_gens()
    ball = cs.enumerate_ball(S, 7)
    free = {k for k, (el, _r) in ball.items()
            if cs.classify_fixed_free(S.model, el) == cs.FREE}
    translations = {k for k, (el, _r) in ball.items()
                    if el.k == 0 and el.v != (0, 0)}
    assert free == translations
    assert oracle_translation_ball(7) == \
        {el.v for k, (el, _r) in ball.items() if k in free}


def test_doubling_inequality_every_radius():
    for S in (cs.trivial_affine_gens(), cs.skew_intmap_gens()):
        st_ = cs.ball_stats(S, 8)
        assert st_.doubling_ok
        for n in range(8):
            assert st_.ball[n + 1] - st_.ball[n] <= 2 * S.size * st_.ball[n]


def test_growth_report_trivial():
    rep = cs.growth_report(cs.trivial_affine_gens(), 10)
    assert rep.ok, rep.checks
    fr = rep.stats
    fracs = [fr.free[n] / fr.ball[n] for n in range(11)]
    assert all(fracs[n + 1] < fracs[n] for n in range(3, 10))
    assert fr.lambda_hat[10] >= 0.3
    assert rep.loglog_slope_intrinsic <= 2.5


def test_growth_report_skew_free_fraction_positive():
    st_ = cs.ball_stats(cs.skew_intmap_gens(), 10)
    assert all(st_.free[n] > 0 for n in range(1, 11))


def test_budget_abort(monkeypatch):
    monkeypatch.delenv("BIFOL_BUDGET_MS", raising=False)
    monkeypatch.setattr(cs, "BUDGET", 1000)
    with pytest.raises(cs.BudgetExceededError):
        cs.enumerate_ball(cs.trivial_affine_gens(), 99)
    # the integer-map census shares the check: 1 + 4 elements at radius 1
    monkeypatch.setattr(cs, "BUDGET", 4)
    with pytest.raises(cs.BudgetExceededError,
                       match="^radius 1: projected 5 elements exceeds budget 4$"):
        cs.ball_stats(cs.skew_intmap_gens(), 3)


def test_genericity_report():
    S = cs.skew_intmap_gens()
    h = cs.skew_designated_shift()
    rep = cs.genericity_report(S, h, 8)
    assert rep.stats == cs.ball_stats(S, 8)
    assert rep.dichotomy_ok
    assert rep.fraction_bound_ok
    assert rep.K == 33 and rep.L == (2 * S.size) ** rep.R
    # the rate gap shrinks over the top three radii
    tail = rep.lambda_gap[-3:]
    assert tail[0] > tail[1] > tail[2]


def test_genericity_rejects_small_shift():
    S = cs.skew_intmap_gens()
    with pytest.raises(PreconditionError):
        cs.genericity_report(S, IndexMap([1, 1]), 6)


def test_dichotomy_is_forced_at_period_two():
    # offsets 0 and -(N+1) cannot coexist in a residue permutation when N=2
    with pytest.raises(PreconditionError):
        IndexMap([0, -3])
    with pytest.raises(PreconditionError):
        IndexMap([-3, 0])


@given(st.integers(-4, 4), st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
@settings(max_examples=60, deadline=None)
def test_affine_classification_consistent(k, v):
    g = AffineElement(k, v)
    cls = cs.classify_fixed_free(cs.TRIVIAL_AFFINE, g)
    inv = cs.classify_fixed_free(cs.TRIVIAL_AFFINE, g.inverse())
    assert cls == inv


def test_ball_sizes_n10_match_oracle():
    S = cs.trivial_affine_gens()
    st_ = cs.ball_stats(S, 10)
    assert list(st_.ball) == oracle_trivial_ball_sizes(10)


# -- the census on normal forms against the local oracles ---------------------


def _census_radii(S, n):
    """{normal form: word length} from `enumerate_ball`, checking that each
    element has its key as normal form."""
    out = {}
    for t, (el, r) in cs.enumerate_ball(S, n).items():
        assert ((el.k, *el.v) if S.model == cs.TRIVIAL_AFFINE
                else el.offsets) == t
        out[t] = r
    return out


def _affine_radii(gens, n):
    return {(k, *v): r for (k, v), r in oracle_affine_ball(gens, n).items()}


def test_shipped_balls_match_oracles_to_radius_10():
    assert _census_radii(cs.trivial_affine_gens(), 10) == _affine_radii(
        [(1, (0, 0)), (0, (1, 0)), (0, (0, 1))], 10)
    assert _census_radii(cs.skew_intmap_gens(), 10) == oracle_skew_ball(
        [(1, 1), (0, 2)], 10)


def test_custom_affine_generators_match_oracle():
    gens = {"B": (2, (1, 0)), "C": (-1, (0, 3)), "t": (0, (1, 1))}
    S = cs.GeneratingSet(cs.TRIVIAL_AFFINE, {
        nm: AffineElement(k, v) for nm, (k, v) in gens.items()})
    assert _census_radii(S, 6) == _affine_radii(list(gens.values()), 6)


def test_skew_involution_is_one_generator():
    S = cs.GeneratingSet(cs.SKEW_INTMAP, {"s": IndexMap([1, 1]),
                                          "t": IndexMap([1, -1])})
    assert [nm for nm, _ in S.symmetrized()] == ["s", "s^-1", "t"]
    assert _census_radii(S, 10) == oracle_skew_ball([(1, 1), (1, -1)], 10)


def test_mixed_generators_rejected_on_entry():
    with pytest.raises(PreconditionError, match="generator 't': period mismatch"):
        cs.GeneratingSet(cs.SKEW_INTMAP, {"s": IndexMap([1, 1]),
                                          "t": IndexMap([1, 1, 1])})
    with pytest.raises(PreconditionError, match="model mismatch"):
        cs.GeneratingSet(cs.TRIVIAL_AFFINE, {"s": IndexMap([1, 1])})


@st.composite
def _skew_generators(draw):
    N = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(N)))
        lifts = draw(st.lists(st.integers(-1, 1), min_size=N, max_size=N))
        g = tuple(perm[r] - r + N * lifts[r] for r in range(N))
        if any(g):
            gens.append(g)
    return gens


@given(_skew_generators().filter(bool))
@settings(max_examples=50, deadline=None)
def test_random_skew_balls_match_oracle(gens):
    S = cs.GeneratingSet(cs.SKEW_INTMAP, {
        f"g{i}": IndexMap(g) for i, g in enumerate(gens)})
    assert _census_radii(S, 5) == oracle_skew_ball(gens, 5)


# -- the affine sphere recurrence against the left-multiplication oracle ------

_SHIPPED_AFFINE = [(1, (0, 0)), (0, (1, 0)), (0, (0, 1))]


def _affine_set(gens):
    return cs.GeneratingSet(cs.TRIVIAL_AFFINE, {
        f"g{i}": AffineElement(k, v) for i, (k, v) in enumerate(gens)})


def _cumulative_counts(radii, n):
    """Cumulative ball sizes and free counts of {(k, v0, v1): radius}."""
    per, free = [0] * (n + 1), [0] * (n + 1)
    for (k, *v), r in radii.items():
        per[r] += 1
        free[r] += k == 0 and v != [0, 0]
    return ([sum(per[:r + 1]) for r in range(n + 1)],
            [sum(free[:r + 1]) for r in range(n + 1)])


def _sphere_radii(S, n):
    """{(k, v0, v1): word length} unfolded from the packed spheres, checking
    that no element is listed twice."""
    out = {}
    for r, (W, sign, sphere) in enumerate(cs._affine_spheres(S, n)):
        for t in cs._unfold(W, sign, sphere):
            assert t not in out, t
            out[t] = r
    return out


def _check_against_oracle(gens, n, elements=True):
    """Spheres, counts and (if `elements`) `enumerate_ball` against the
    oracle's ball."""
    S = _affine_set(gens)
    want = _affine_radii(gens, n)
    assert _sphere_radii(S, n) == want
    if elements:
        assert _census_radii(S, n) == want
    balls, frees = _cumulative_counts(want, n)
    st_ = cs.ball_stats(S, n)
    assert list(st_.ball) == balls and list(st_.free) == frees


def test_shipped_affine_spheres_match_oracle_to_radius_12():
    _check_against_oracle(_SHIPPED_AFFINE, 12)


def _random_affine_gens(rng, kind, count):
    """`count` distinct generators, k in -3..3 and v entries in -5..5; kind
    0 has no k != 0 generator, kind 1 at least one with k != 0 and v != 0."""
    gens = []
    while len(gens) < count:
        k = 0 if kind == 0 else rng.randint(-3, 3)
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if (k, v) != (0, (0, 0)) and (k, v) not in gens:
            gens.append((k, v))
    if kind == 1 and not any(k and v != (0, 0) for k, v in gens):
        gens[0] = (rng.choice((-3, -2, -1, 1, 2, 3)), (rng.randint(1, 5), 0))
    return gens


def test_random_affine_spheres_match_oracle():
    # element objects are checked on the shipped and the widening sets.
    # Four generators with a matrix letter make balls of about 140,000
    # elements at radius 6, so one set in 25 has four.
    rng = random.Random(20261018)
    for i in range(210):
        count = 4 if i % 25 == 24 else rng.randint(1, 3)
        _check_against_oracle(_random_affine_gens(rng, i % 3, count), 6,
                              elements=False)


def _sign_closed_gens(rng, count):
    """`count` letters with k in -3..3 and v entries in -5..5, the first with
    |k| in {2, 3} and v != 0, each with its sign image (k, -v)."""
    letters = [(rng.choice((-3, -2, 2, 3)),
                (rng.randint(1, 5), rng.randint(-5, 5)))]
    while len(letters) < count:
        letters.append((rng.randint(-3, 3),
                        (rng.randint(-5, 5), rng.randint(-5, 5))))
    gens = {g: None for k, (x, y) in letters
            for g in ((k, (x, y)), (k, (-x, -y)))}
    gens.pop((0, (0, 0)), None)
    return list(gens)


def test_random_orbit_quotients_match_oracle_element_by_element():
    # sign-closed sets (the census stores abs(p) there) against asymmetric
    # ones (inversion only), both with matrix letters of |k| up to 3
    rng = random.Random(20261019)
    for i in range(40):
        if i % 2:
            gens = _random_affine_gens(rng, 1, rng.randint(1, 3))
        else:
            gens = _sign_closed_gens(rng, rng.randint(1, 2))
        sign = next(cs._affine_spheres(_affine_set(gens), 0))[1]
        assert sign == (i % 2 == 0), gens
        _check_against_oracle(gens, 5)


@pytest.mark.parametrize("gens, sign", [
    (_SHIPPED_AFFINE, True),
    ([(2, (1, 0)), (2, (-1, 0))], True),
    ([(0, (3, -1)), (0, (1, 2))], True),
    ([(2, (1, 0)), (-1, (0, 3))], False),
    ([(1, (1, 0))], False),
], ids=["shipped", "sign-k2", "translations", "custom", "cyclic"])
def test_affine_spheres_store_one_element_per_orbit(gens, sign):
    # inversion on classes k != 0, and v -> -v where the set allows it, act
    # on the oracle's ball; the spheres store exactly one element of each
    # orbit, all in classes k >= 0, and under sign no pair p, -p
    n = 7
    ball = oracle_affine_ball(gens, n)
    orbits = set()
    for g in ball:
        orbit = {g, _aff_inv(g)} if g[0] else {g}
        if sign:
            orbit |= {(k, (-x, -y)) for k, (x, y) in orbit}
        orbits.add(frozenset(orbit))
    stored = 0
    for W, signed, sphere in cs._affine_spheres(_affine_set(gens), n):
        assert signed == sign
        assert min(sphere) >= 0
        for s in sphere.values():
            stored += len(s)
            assert not sign or min(s) >= 0
    assert stored == len(orbits) < len(ball)


@pytest.mark.parametrize("gens, n", [
    ([(1, (1, 0))], 40),                  # cyclic: widths for radius 2..40
    ([(0, (3, -1)), (0, (1, 2))], 40),    # no matrix letter: W = 2M + 1
    ([(-2, (0, 0)), (3, (0, 0))], 40),    # no translation: W = 1
    ([(3, (5, -5))], 33),
], ids=["cyclic", "translations", "matrices", "wide-cyclic"])
def test_affine_spheres_widen_past_the_first_width(gens, n):
    _check_against_oracle(gens, n)


@pytest.mark.parametrize("gens", [_SHIPPED_AFFINE, [(2, (1, 0)), (-1, (0, 3))],
                                  [(2, (1, 0)), (2, (-1, 0))]],
                         ids=["shipped", "custom", "sign-k2"])
def test_affine_budget_stops_where_the_oracle_projects(gens, monkeypatch):
    # at radius r the projection is |B(r-1)| + |S(r-1)| |sym|, from the
    # oracle's cumulative counts
    n = 9
    S = _affine_set(gens)
    sym = len(S.symmetrized())
    counts, _ = _cumulative_counts(_affine_radii(gens, n), n)
    projected = [(r, counts[r - 1] + sym * (counts[r - 1] - (
        counts[r - 2] if r > 1 else 0))) for r in range(1, n + 1)]
    monkeypatch.delenv("BIFOL_BUDGET_MS", raising=False)
    for budget in sorted({1, 2, 10_000_000} | {p + d for _, p in projected
                                               for d in (-1, 0, 1)}):
        want = next((f"radius {r}: projected {p} elements exceeds budget "
                     f"{budget}" for r, p in projected if p > budget), None)
        monkeypatch.setattr(cs, "BUDGET", budget)
        for run in (cs.ball_stats, cs.enumerate_ball):
            if want is None:
                run(S, n)
            else:
                with pytest.raises(cs.BudgetExceededError) as e:
                    run(S, n)
                assert str(e.value) == want


def test_affine_exponent_limit():
    big = cs.MAX_EXPONENT + 1
    S = _affine_set([(cs.MAX_EXPONENT, (1, 0)), (-cs.MAX_EXPONENT, (0, 1))])
    assert cs.ball_stats(S, 2).ball[2] == 1 + 4 + 12
    for k in (big, -big, 200_000):
        with pytest.raises(PreconditionError,
                           match=f"generator 'g0': matrix exponent {k} "):
            _affine_set([(k, (1, 0))])


def test_census_refusals_name_the_fault():
    with pytest.raises(PreconditionError, match="unknown model 'nope'"):
        cs.GeneratingSet("nope", {"a": IndexMap([1])})
    with pytest.raises(PreconditionError, match="runs on the skew model"):
        cs.genericity_report(cs.trivial_affine_gens(), IndexMap([3, 3]), 2)
    with pytest.raises(PreconditionError, match="must be an integer map"):
        cs.genericity_report(cs.skew_intmap_gens(), AffineElement(0, (1, 0)),
                             2)


def test_growth_without_translations_has_no_free_slope():
    # the matrix generator alone makes no free element, so the free counts
    # are 0 and their log-log slope is undefined
    rep = cs.growth_report(cs.GeneratingSet(
        cs.TRIVIAL_AFFINE, {"A": AffineElement(1, (0, 0))}), 4)
    assert rep.stats.free[4] == 0
    assert rep.loglog_slope_free is None
    assert rep.loglog_slope_intrinsic is not None
