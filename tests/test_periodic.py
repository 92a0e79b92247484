import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bifol.fixtures import load_fixture
from bifol.pattern import MINUS, PLUS, InvalidPatternError, PreconditionError
from bifol.periodic import (
    BOT, TOP, _CORRIDOR, AffineElement, Family, IndexMap, NonsepTemplate,
    PatternAutomorphism, PeriodicPattern, ScallopedMarker, Track,
    _chord_pattern, generate, scalloped_invariant,
)
from bifol import graphs as gr

from oracles import (
    oracle_bfs_distance, oracle_check_templates, oracle_template_cross,
)


# -- generators and windows --------------------------------------------------------

def test_trivial_passes_validate_and_diameter(grid3):
    assert grid3.validate().ok
    G = gr.build_graph(grid3, gr.XPLUS)
    assert gr.diameter(G) == 1


def test_skew_band_contract(skew2):
    w = skew2.materialize_window(0, 6)
    for i in range(7):
        for j in range(7):
            expected = i <= j < i + 2
            assert w.intersects(f"p{i}", f"m{j}") == expected


def test_skew_window_distance(skew2):
    w = skew2.materialize_window(0, 6)
    G = gr.build_graph(w, gr.XPLUS)
    assert gr.distance(G, "p0", "p6") == 6
    assert oracle_bfs_distance(G.adj, "p0", "p6") == 6


def test_skew_small_window_counts(skew2):
    w = skew2.materialize_window(0, 3)
    assert len(w.leaf_ids("plus")) == 4 and len(w.leaf_ids("minus")) == 4
    assert w.validate().ok


def test_window_preconditions(skew2):
    with pytest.raises(PreconditionError):
        skew2.materialize_window(0, 0)
    with pytest.raises(PreconditionError):
        generate("skew", 1)
    with pytest.raises(PreconditionError):
        generate("ladder", 0)
    with pytest.raises(PreconditionError):
        generate("prong", 2)
    with pytest.raises(PreconditionError, match="track names"):
        PeriodicPattern((Track(BOT, 1), Track(BOT, -1)), skew2.plus_families,
                        skew2.minus_families)


def test_constructor_checks_track_and_family_records(skew2):
    # the records are built unchecked; the pattern's constructor checks them
    with pytest.raises(PreconditionError, match="track direction"):
        PeriodicPattern((Track(BOT, 1), Track(TOP, 0)), skew2.plus_families,
                        skew2.minus_families)
    p1 = Family("p1", PLUS, skew2.plus_families[0].endpoints)
    with pytest.raises(PreconditionError, match="family names must be alphabetic"):
        PeriodicPattern(_CORRIDOR, [p1], skew2.minus_families)


PERIODIC_FIXTURES = ("skew2", "skew3", "skew4", "ladder_periodic",
                     "trivial_periodic", "scalloped")


def test_every_window_validates():
    # windows do not check themselves: this guards the constructor's
    # certificate on the windows the CLI defaults, the tests and dynamics use
    for name in PERIODIC_FIXTURES:
        pp = load_fixture(name)
        for lo, hi in ((0, 2), (-3, 3), (0, 5), (0, 6), (-6, 6), (-8, 8),
                       (-16, 16)):
            assert pp.materialize_window(lo, hi).validate().ok, (name, lo, hi)


def test_integer_windows_match_the_fraction_walk():
    # windows place endpoints at offset * scale + k * scale; the walk over
    # offset + k as fractions must give the same circle, leaves and order
    for name in PERIODIC_FIXTURES:
        pp = load_fixture(name)
        for lo, hi in ((0, 2), (-3, 3), (-8, 8)):
            chords = [(f"{f.name}{k}", sign, [(t, off + k) for t, off in f.endpoints])
                      for sign in (PLUS, MINUS) for f in pp.families(sign)
                      for k in range(lo, hi + 1)]
            want = _chord_pattern(chords, pp.tracks,
                                  nonseparated=pp.nonsep_pairs_in(lo, hi))
            got = pp.materialize_window(lo, hi)
            assert list(got.leaves.items()) == list(want.leaves.items())
            assert (got.boundary, got.nonseparated) == \
                (want.boundary, want.nonseparated), (name, lo, hi)


def _corridor_template(rng):
    """1-2 families per sign on the corridor, offsets in quarters, and an
    optional nonseparation template.  A second family of a sign is the first
    one with its endpoints moved by u and u + e quarters, neither a whole
    block; for bottom-to-top chords it crosses the first at block distance j
    iff 4j lies strictly between u and u + e, which happens up to j = 4."""
    q = lambda n: Fraction(n, 4)  # noqa: E731

    def families(sign, names):
        if rng.random() < 0.25:
            t, a = rng.choice((BOT, TOP)), rng.randint(0, 8)
            eps = ((t, q(a)), (t, q(a + rng.randint(1, 3))))
        else:
            eps = ((BOT, q(rng.randint(0, 8))), (TOP, q(rng.randint(0, 8))))
        out = [Family(names[0], sign, eps)]
        if len(names) == 2:
            u, e = rng.choice([(u, e) for u in range(1, 16) for e in (-2, -1, 0, 1, 2)
                               if u % 4 and (u + e) % 4])
            (t0, a), (t1, b) = eps
            out.append(Family(names[1], sign, ((t0, a + q(u)), (t1, b + q(u + e)))))
        return out

    period = rng.randint(1, 2)
    plus = families(PLUS, "pq"[:period])
    minus = families(MINUS, "mn"[:period])
    nonsep = []
    if rng.random() < 0.4:
        fams = rng.choice((plus, minus))
        nonsep.append(NonsepTemplate(rng.choice(fams).name,
                                     rng.choice(fams).name, rng.randint(-1, 1)))
    return plus, minus, nonsep


def _window_fails(plus, minus, nonsep, lo, hi):
    """Build the window through the track walk and validate it."""
    blocks = range(lo, hi + 1)
    chords = [(f"{f.name}{k}", f.sign, [(t, off + k) for t, off in f.endpoints])
              for f in plus + minus for k in blocks]
    pairs = [(f"{t.fam_a}{k}", f"{t.fam_b}{k + t.offset}")
             for t in nonsep for k in blocks if k + t.offset in blocks]
    try:
        return not _chord_pattern(chords, nonseparated=pairs).validate().ok
    except PreconditionError:
        return True


def test_certificate_matches_every_nearby_window():
    # the constructor rejects a template iff some window (lo, hi) with
    # -R <= lo < hi <= R, R = reach + 2, fails validation.  Each such window
    # is a translate of (-R, -R + hi - lo): shifting every offset by one block
    # keeps the order of the values the walk sorts, so one window per width
    # decides.
    rng = random.Random(20261018)
    rejected = past_sample = 0
    for i in range(200):
        plus, minus, nonsep = _corridor_template(rng)
        vals = [off for f in plus + minus for _, off in f.endpoints]
        reach = (math.ceil(max(vals) - min(vals)) + 1
                 + max((abs(t.offset) for t in nonsep), default=0))
        R = reach + 2
        fails = any(_window_fails(plus, minus, nonsep, -R, hi)
                    for hi in range(-R + 1, R + 1))
        try:
            pp = PeriodicPattern(_CORRIDOR, plus, minus, nonsep=nonsep)
        except (InvalidPatternError, PreconditionError):
            rejected += 1
            past_sample += not _window_fails(plus, minus, nonsep, 0, 2)
            assert fails, (i, plus, minus, nonsep)
        else:
            assert not fails and pp.reach() == reach, (i, plus, minus, nonsep)
    # both verdicts are well represented, and some templates fail only on
    # windows wider than (0, 2)
    assert 60 <= rejected <= 180 and past_sample >= 3, (rejected, past_sample)


def _template_disagreements(pp):
    """Leaf pairs, plus indices over two periods and minus indices out to 30
    blocks either way, where the certificate's answer differs from the
    angle oracle's (asked in both argument orders)."""
    P = pp.period
    return [(i, j) for i in range(-P, P) for j in range(-30 * P, 30 * P)
            if len({pp.template_cross(PLUS, i, MINUS, j),
                    pp.template_cross(MINUS, j, PLUS, i),
                    oracle_template_cross(pp, PLUS, i, MINUS, j)}) > 1]


@pytest.mark.parametrize("name", ["skew2", "skew3", "skew4", "ladder_periodic",
                                  "scalloped", "trivial_periodic"])
def test_template_cross_matches_the_angle_oracle(name):
    assert _template_disagreements(load_fixture(name)) == []


def test_template_cross_matches_the_angle_oracle_on_random_templates():
    rng, checked = random.Random(20261018), 0
    for _ in range(200):
        plus, minus, nonsep = _corridor_template(rng)
        try:
            pp = PeriodicPattern(_CORRIDOR, plus, minus, nonsep=nonsep)
        except (InvalidPatternError, PreconditionError):
            continue
        checked += 1
        assert _template_disagreements(pp) == [], (plus, minus, nonsep)
    assert checked >= 100, checked


def test_ladder_periodic_window_blocks(ladder_periodic):
    w = ladder_periodic.materialize_window(-2, 2)
    pi = w.pseudo_interval("u-1", "w1")
    # three junction pairs inside the chain, one split each
    assert pi.n_blocks == 4
    # two periods span twice the blocks of one period plus the same ends
    assert w.pseudo_interval("u0", "w0").n_blocks == 2
    assert w.pseudo_interval("u-1", "w0").n_blocks == 3


def test_sinestrip_contract():
    for m in (2, 4, 6):
        p = generate("sinestrip", m)
        assert gr.diameter(gr.build_graph(p, gr.GAMMAPLUS)) == 1
        assert gr.diameter(gr.build_graph(p, gr.GAMMAMINUS)) >= m


def test_sinestrip_growth_monotone():
    diams = [gr.diameter(gr.build_graph(generate("sinestrip", m), gr.GAMMAMINUS))
             for m in (2, 3, 4, 5)]
    assert all(a < b for a, b in zip(diams, diams[1:]))


def test_windowing_monotone(ladder_periodic, skew2):
    # distances never increase when the window grows
    for pp in (skew2, ladder_periodic):
        small = pp.materialize_window(-2, 2)
        big = pp.materialize_window(-4, 4)
        Gs = gr.build_graph(small, gr.XPLUS)
        Gb = gr.build_graph(big, gr.XPLUS)
        for u, v in itertools.combinations(Gs.vertices, 2):
            ds, db = gr.distance(Gs, u, v), gr.distance(Gb, u, v)
            assert db <= ds


def test_window_stability_flag(skew2):
    small = skew2.materialize_window(-4, 4)
    big = skew2.materialize_window(-8, 8)
    Gs, Gb = (gr.build_graph(w, gr.XPLUS) for w in (small, big))
    assert gr.distance(Gs, "p-2", "p2") == gr.distance(Gb, "p-2", "p2") == 4


# -- automorphism algebra -----------------------------------------------------------

def test_shift_acts(skew2):
    s = skew2.automorphisms["s"]
    assert s.act("p3") == "p4"
    assert s.act("m-1") == "m0"


def test_compose_invert_identity(skew2):
    s = skew2.automorphisms["s"]
    assert s.compose(s.inverse()).is_identity()
    assert s.inverse().compose(s).is_identity()


def test_residue_collision_rejected():
    with pytest.raises(PreconditionError):
        IndexMap([1, 0])  # 0->1, 1->1: collision mod 2


def test_template_violating_map_rejected(skew2, ladder_periodic):
    # shifting plus but not minus breaks the skew band
    with pytest.raises(PreconditionError):
        PatternAutomorphism(skew2, IndexMap([1]), IndexMap([0]))
    # fixing the u family while moving w breaks declared nonseparation
    with pytest.raises(PreconditionError):
        PatternAutomorphism(ladder_periodic, IndexMap([0, 3, 3]),
                            IndexMap([3, 3, 3]))


def _template_check_message(pp, plus, minus):
    """The library's verdict on a pair of maps: the message its template
    check raises, or None."""
    try:
        PatternAutomorphism(pp, plus, minus)
    except PreconditionError as e:
        return str(e)
    return None


def _random_index_map(rng, N):
    perm = rng.sample(range(N), N)
    return IndexMap([perm[r] - r + N * rng.randint(-2, 2) for r in range(N)])


def _template_check_cases(rng):
    """(pattern, plus map, minus map): the declared automorphisms of every
    periodic fixture, their products, and random index maps on the fixtures
    and on random corridor templates."""
    pats = [load_fixture(nm) for nm in ("skew2", "skew3", "skew4",
                                        "ladder_periodic", "scalloped",
                                        "trivial_periodic")]
    while len(pats) < 30:
        plus, minus, nonsep = _corridor_template(rng)
        try:
            pats.append(PeriodicPattern(_CORRIDOR, plus, minus, nonsep=nonsep))
        except (InvalidPatternError, PreconditionError):
            pass
    # a map that keeps every crossing but moves the declared pair (m0, n-1)
    # to (m-2, n-2)
    f = lambda name, sign, *ends: Family(  # noqa: E731
        name, sign, tuple((t, Fraction(o)) for t, o in ends))
    pp = PeriodicPattern(
        _CORRIDOR, [f("p", PLUS, (BOT, "1/2"), (BOT, "3/4")),
                    f("q", PLUS, (BOT, "13/4"), (BOT, "3"))],
        [f("m", MINUS, (BOT, "2"), (TOP, "0")),
         f("n", MINUS, (BOT, "7/2"), (TOP, "5/4"))],
        nonsep=[NonsepTemplate("m", "n", -1)])
    yield pp, IndexMap([-4, -4]), IndexMap([-4, -2])
    for pp in pats:
        gens = list(pp.automorphisms.values())
        for g in gens + [a.compose(b.inverse()) for a in gens for b in gens]:
            yield pp, g.plus, g.minus
        for _ in range(12):
            yield (pp, _random_index_map(rng, pp.period),
                   _random_index_map(rng, pp.period))
        # a shift of one sign only, and of both
        for k in (1, -2):
            ident = IndexMap([0] * pp.period)
            shift = IndexMap([k * pp.period] * pp.period)
            yield pp, shift, ident
            yield pp, shift, shift


def test_template_check_matches_the_per_pair_oracle():
    rng, verdicts = random.Random(20261019), set()
    for pp, plus, minus in _template_check_cases(rng):
        got = _template_check_message(pp, plus, minus)
        want = oracle_check_templates(
            PatternAutomorphism._trusted(pp, plus, minus, ""))
        assert got == want, (pp.name, plus, minus)
        verdicts.add(None if got is None else got.split(" (")[0])
    # accepted maps, template breaks and nonseparation breaks all occur
    assert verdicts == {None, "map does not preserve the intersection template",
                        "map does not preserve nonseparation"}, verdicts


def _two_family_corridor(p, q, m, n):
    """Period-two corridor pattern from (bottom, top) offsets of the plus
    families p, q and the minus families m, n."""
    fam = lambda name, sign, ends: Family(  # noqa: E731
        name, sign, tuple(zip((BOT, TOP), map(Fraction, ends))))
    return PeriodicPattern(_CORRIDOR, [fam("p", PLUS, p), fam("q", PLUS, q)],
                           [fam("m", MINUS, m), fam("n", MINUS, n)])


def _broken_pairs(pp, plus, minus):
    P = pp.period
    return [(f, j) for f in range(P) for j in range(-40 * P, 40 * P + 1)
            if pp.template_cross(PLUS, f, MINUS, j)
            != pp.template_cross(PLUS, plus(f), MINUS, minus(j))]


def test_template_check_sees_a_break_at_the_outermost_block_distance():
    # p crosses m and n at block distances 0..2, q at 0..3: swapping p and
    # q breaks the template at distance 3 only, the farthest that any two
    # families cross
    pp = _two_family_corridor(("0", "5/2"), ("1/4", "13/4"),
                              ("1/2", "0"), ("5/8", "1/8"))
    swap, ident = IndexMap([1, -1]), IndexMap([0, 0])
    assert _broken_pairs(pp, swap, ident) == [(0, 6), (0, 7), (1, 6), (1, 7)]
    msg = "map does not preserve the intersection template (plus 0, minus 6)"
    assert _template_check_message(pp, swap, ident) == msg
    assert oracle_check_templates(
        PatternAutomorphism._trusted(pp, swap, ident, "")) == msg
    # here each broken pair, or its image, lies reach() = 5 blocks apart,
    # where the crossing rows are clamped
    pp = _two_family_corridor(("5/4", "2"), ("5", "21/4"),
                              ("5/4", "5/4"), ("5", "19/4"))
    g, P, R = IndexMap([3, -3]), pp.period, pp.reach()
    broken = _broken_pairs(pp, g, g)
    assert R == 5 and broken == [(0, -5), (1, -10)]
    assert all(R in (abs(j // P), abs(g(j) // P - g(f) // P)) for f, j in broken)
    msg = "map does not preserve the intersection template (plus 0, minus -5)"
    assert _template_check_message(pp, g, g) == msg
    assert oracle_check_templates(PatternAutomorphism._trusted(pp, g, g, "")) == msg


def _cycle_map(N, cycles, lifts):
    """Offsets moving each residue to the next one of its cycle, plus N times
    the cycle's lift for that residue."""
    offsets = [0] * N
    for cyc, lift in zip(cycles, lifts):
        for i, r in enumerate(cyc):
            offsets[r] = cyc[(i + 1) % len(cyc)] - r + N * lift[i]
    return IndexMap(offsets)


def test_exact_order_beyond_small_powers():
    cycles = [range(0, 4), range(4, 9), range(9, 16)]
    lifts = [(1, -1, 0, 0), (2, 0, 0, -1, -1), (0, 0, 3, 0, 0, 0, -3)]
    g = _cycle_map(16, [list(c) for c in cycles], lifts)
    assert g.order_if_finite() == 140
    assert [n for n, _ in g.cycles()] == [4, 5, 7]
    h = g
    for k in range(1, 140):
        assert not h.is_identity(), k
        h = h.compose(g)
    assert h.is_identity()
    moved = _cycle_map(16, [list(c) for c in cycles],
                       [(1, 0, 0, 0), (0,) * 5, (0,) * 7])
    assert moved.order_if_finite() is None


@given(st.permutations(range(4)), st.integers(1, 4),
       st.lists(st.integers(-1, 1), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_exact_order_matches_powering(perm, N, lifts):
    perm = [p for p in perm if p < N]  # a permutation of range(N)
    g = IndexMap([perm[r] - r + N * lifts[r] for r in range(N)])
    # any finite order divides N!, so powering that far decides it
    bound = math.factorial(N)
    h, brute = g, None
    for k in range(1, bound + 1):
        if h.is_identity():
            brute = k
            break
        h = h.compose(g)
    assert g.order_if_finite() == brute


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
       st.data())
@settings(max_examples=60, deadline=None)
def test_index_map_group_axioms(offsets, data):
    N = len(offsets)
    try:
        g = IndexMap(offsets)
    except PreconditionError:
        return
    h_off = data.draw(st.lists(st.integers(min_value=-6, max_value=6),
                               min_size=N, max_size=N))
    try:
        h = IndexMap(h_off)
    except PreconditionError:
        return
    assert g.compose(g.inverse()).is_identity()
    assert g.inverse().compose(g).is_identity()
    k = g.compose(h)
    # built unchecked, yet residue permutations: the check accepts them
    assert IndexMap(k.offsets) == k and IndexMap(g.inverse().offsets) == g.inverse()
    for i in range(-2 * N, 2 * N + 1):
        assert k(i) == g(h(i))
        assert g(i + N) == g(i) + N


@given(st.integers(-3, 3), st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(-3, 3), st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(-3, 3), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
@settings(max_examples=80, deadline=None)
def test_affine_group_axioms(k1, v1, k2, v2, k3, v3):
    a, b, c = AffineElement(k1, v1), AffineElement(k2, v2), AffineElement(k3, v3)
    assert a.mul(b).mul(c) == a.mul(b.mul(c))
    assert a.mul(a.inverse()) == AffineElement.identity()
    assert a.inverse().mul(a) == AffineElement.identity()


# -- scalloped marker ------------------------------------------------------------------

def test_scalloped_invariant(scalloped):
    s, swap = scalloped.automorphisms["s"], scalloped.automorphisms["swap"]
    assert scalloped_invariant(scalloped, s) is True
    assert scalloped_invariant(scalloped, swap) is False
    assert scalloped_invariant(scalloped, s.compose(swap)) is False


@pytest.mark.parametrize("plus, minus, want", [
    # both bands' boundary families: swap exchanges the bands, so it keeps
    # the marked set, which reading the first marked family alone misses;
    # shifting band one alone breaks the common block shift
    (("V", "va"), ("H", "ha"),
     {"s": True, "swap": True, "s*swap": True, "one": False}),
    # band one's two families: shifting band one alone keeps them, while it
    # moves their neighbouring residues (a and va, b and ha) apart
    (("V", "a"), ("H", "b"),
     {"s": True, "swap": False, "s*swap": False, "one": True}),
])
def test_scalloped_invariant_reads_every_marked_residue(scalloped, plus, minus,
                                                        want):
    # the shipped marker cannot tell which residues it names: s keeps every
    # residue and swap moves every one, so the scalloped templates are
    # re-marked here, with "one" the shift of band one alone
    pp = PeriodicPattern(scalloped.tracks, scalloped.plus_families,
                         scalloped.minus_families,
                         scalloped=ScallopedMarker(plus, minus),
                         automorphisms={"s": ([4] * 4, [4] * 4),
                                        "swap": ([2, 2, -2, -2],) * 2,
                                        "one": ([4, 4, 0, 0],) * 2})
    g = pp.automorphisms
    elements = {"s": g["s"], "swap": g["swap"],
                "s*swap": g["s"].compose(g["swap"]), "one": g["one"]}
    assert {nm: scalloped_invariant(pp, h) for nm, h in elements.items()} \
        == want


def test_scalloped_marker_missing(skew2):
    with pytest.raises(PreconditionError):
        scalloped_invariant(skew2, skew2.automorphisms["s"])


def test_scalloped_window_has_both_chains(scalloped):
    w = scalloped.materialize_window(0, 5)
    rep = w.detect_lozenges()
    keys = {(L.plus1, L.plus2) for L in rep.lozenges}
    # vertical bricks share consecutive plus sides, horizontal bricks skip one
    assert ("V1", "V0") in keys or ("V0", "V1") in keys
    assert ("V2", "V0") in keys or ("V0", "V2") in keys
