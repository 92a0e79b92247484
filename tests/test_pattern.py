import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bifol.pattern import (
    PLUS, MINUS, FinitePattern, InvalidPatternError, Leaf, Lozenge, Mode,
    Point, PreconditionError, Singularity, UnknownIdError, _is_cyclic_run,
)
from bifol.fixtures import MANIFEST, load_fixture
from bifol import io as bio
from bifol import walls as wl
from bifol.cli import main
from bifol.periodic import (
    _GENERATORS, PeriodicPattern, _chord_pattern, generate, ladder_chords,
)
from bifol.randgen import random_pattern

from oracles import (
    geometric_intersects, geometric_separates_leaves, geometric_separates_point,
    oracle_face_of_point, oracle_lozenges, oracle_on_leaf,
    oracle_pseudo_interval_set, oracle_relations, oracle_validate,
    all_monotone_paths,
)


# -- the relation table -----------------------------------------------------------

def _table_patterns():
    """Every finite fixture, windows (-3, 3), (-6, 6) and (-12, 12) of every
    periodic one, a three-prong with perfect fits at two prong endpoints,
    and 300 random patterns.  The fixtures hold the perfect fits (shared
    endpoints) that random draws almost never make."""
    prong = generate("prong", 3)
    yield "prong3 with fits", FinitePattern(
        prong.boundary, [*prong.leaves.values(), Leaf("f", MINUS, ("c0", "c46")),
                         Leaf("g", PLUS, ("c5", "c8"))],
        prong.singularities).require_valid()
    for name in sorted(MANIFEST):
        p = load_fixture(name)
        if isinstance(p, FinitePattern):
            yield name, p
        else:
            for w in (3, 6, 12):
                yield f"{name}[-{w},{w}]", p.materialize_window(-w, w)
    for seed in range(300):
        yield f"random {seed}", random_pattern(seed, max_leaves=24)


def test_relation_table_matches_the_oracle():
    # every column, and the face of every leaf at every circle position:
    # the oracle row's arc off the leaf, the arc starting there on it
    for name, p in _table_patterns():
        want, t = oracle_relations(p), p._table
        assert dict(t.ep) == want["ep"], name
        assert dict(zip(t.ids, t.cross)) == want["cross"], name
        assert t.ends == want["ends"], name
        for lid, row in want["face"].items():
            e = want["ep"][lid]
            got = [t.face(lid, x) for x in range(p.n)]
            assert got == [e.index(x) if f is None else f
                           for x, f in enumerate(row)], (name, lid)


def test_separates_reads_the_face_planes():
    # the folded planes for every separator, singular or not, against a
    # comparison of the oracle's face rows
    rng = random.Random(13)
    for name, p in _table_patterns():
        want = oracle_relations(p)
        for sign in (PLUS, MINUS):
            ids = p.leaf_ids(sign)
            if len(ids) < 3:
                continue
            triples = (itertools.permutations(ids, 3) if len(ids) <= 12
                       else (rng.sample(ids, 3) for _ in range(1500)))
            for m, a, b in triples:
                face, ep = want["face"][m], want["ep"]
                assert p._separates(m, a, b) == \
                    (face[ep[a][0]] != face[ep[b][0]]), (name, m, a, b)


# -- validation ------------------------------------------------------------------

PAIR_RULES = {"same-sign leaves share an endpoint", "same-sign crossing",
              "leaves share several endpoints", "perfect-fit pair also crosses",
              "forced multiple crossing", "forced double crossing"}
_SINGULAR_FIXTURES = ("prong3", "prongchain2", "prongdiv", "prongnondiv")


def _broken_pattern(seed: int) -> FinitePattern:
    """One seeded edit of a valid pattern, a random one or (every third
    seed) a fixture with a singularity: two boundary labels swapped; a chord
    between two new labels; a chord from a new label to an endpoint (of a
    singular leaf where there is one), sometimes with a chord of the other
    sign on both endpoints of a leaf; or a second singularity of three or
    four prongs with a chord between two more new labels.  Most are
    invalid."""
    rng = random.Random(seed)
    base = (load_fixture(_SINGULAR_FIXTURES[seed % 4]) if seed % 3 == 0
            else random_pattern(seed, max_leaves=16))
    boundary, leaves = list(base.boundary), list(base.leaves.values())
    singularities = list(base.singularities)
    how = seed % 4
    if how == 0:
        i, j = rng.sample(range(len(boundary)), 2)
        boundary[i], boundary[j] = boundary[j], boundary[i]
        return FinitePattern(boundary, leaves, singularities, base.nonseparated,
                             base.points.values())
    k = rng.choice((3, 4))
    new = [f"z{i}" for i in range(2 * k + 2 if how == 3 else 2)]
    for lab in new:
        boundary.insert(rng.randrange(len(boundary) + 1), lab)
    pos = {lab: i for i, lab in enumerate(boundary)}

    def chord(lid, sign, labels):
        return Leaf(lid, sign, tuple(sorted(labels, key=pos.get)))

    sign = rng.choice((PLUS, MINUS))
    if how == 1:
        leaves.append(chord("zz", sign, new))
    elif how == 2:
        host = rng.choice([lf for lf in leaves if lf.is_singular] or leaves)
        leaves.append(chord("zz", sign, (new[0], rng.choice(host.endpoints))))
        other = rng.choice(leaves[:-1])
        if rng.random() < 0.5:
            leaves.append(chord("zy", MINUS if other.sign == PLUS else PLUS,
                                other.endpoints[:2]))
    else:
        prongs = sorted(new[:2 * k], key=pos.get)
        leaves += [chord("zp", PLUS, prongs[0::2]), chord("zm", MINUS, prongs[1::2]),
                   chord("zz", sign, new[2 * k:])]
        singularities.append(Singularity("zp", "zm"))
    return FinitePattern(boundary, leaves, singularities, base.nonseparated,
                         base.points.values())


def test_validate_matches_the_all_pairs_oracle():
    # the pairwise rules run only on the pairs that can break one; the
    # oracle runs them on every pair.  Same reports, violations in the same
    # order, on valid patterns and on broken ones that break every rule
    patterns = itertools.chain(
        _table_patterns(),
        ((f"broken {seed}", _broken_pattern(seed)) for seed in range(400)))
    invalid, rules = 0, set()
    for name, p in patterns:
        rep = p.validate()
        assert rep == oracle_validate(p), name
        invalid += not rep.ok
        rules.update(v.rule for v in rep.violations)
    assert invalid >= 300
    assert PAIR_RULES <= rules



def test_grid3_valid(grid3):
    assert grid3.validate().ok


def test_same_sign_crossing_rejected():
    p = FinitePattern(["a", "b", "c", "d"],
                      [Leaf("p1", PLUS, ("a", "c")), Leaf("p2", PLUS, ("b", "d"))])
    rep = p.validate()
    assert not rep.ok
    assert any(v.rule == "same-sign crossing" for v in rep.violations)


def test_chord_positions_hold_one_leaf_or_a_perfect_fit():
    fit = [("p", PLUS, [("bot", 0), ("top", 0)]),
           ("m", MINUS, [("bot", 0), ("top", 1)])]
    p = _chord_pattern(fit)
    assert p.leaf("p").endpoints == ("c0", "c2") and p.boundary[0] == "c0"
    assert p.leaf("m").endpoints == ("c0", "c1")
    third = ("q", PLUS, [("bot", 0), ("top", 2)])
    same = [("r", MINUS, [("top", 3), ("top", 4)]),
            ("s", MINUS, [("top", 4), ("top", 5)])]
    later = [("u", PLUS, [("top", 6), ("top", 7)]),
             ("v", PLUS, [("top", 6), ("top", 8)])]
    loop = ("w", MINUS, [("top", 9), ("top", 9)])
    # chords on one position share its rank, and validate names every pair
    # of one sign that meets there, and a leaf that meets itself
    for chords, found in (
            (fit + [third], ["same-sign leaves share an endpoint: p, q"]),
            (fit + same, ["same-sign leaves share an endpoint: r, s"]),
            (fit + same + later, ["same-sign leaves share an endpoint: r, s",
                                  "same-sign leaves share an endpoint: u, v"]),
            (fit + same + later + [third],
             ["same-sign leaves share an endpoint: p, q",
              "same-sign leaves share an endpoint: r, s",
              "same-sign leaves share an endpoint: u, v"]),
            (fit + [loop], ["leaf endpoints not distinct: w"])):
        p = _chord_pattern(chords)
        assert p.n == len({(tr, v) for _, _, eps in chords for tr, v in eps})
        assert [str(v) for v in p.validate().violations] == found
        with pytest.raises(InvalidPatternError, match=found[0]):
            p.require_valid()


def test_nonsep_with_common_transversal_rejected():
    # add one chord to the shipped two-block ladder crossing both pair members
    ch, nonsep = ladder_chords(2)
    ch.append(("bad", MINUS, [("bot", 30), ("top", 90)]))  # straddles u1 and w1
    p = _chord_pattern(ch, nonseparated=nonsep)
    rep = p.validate()
    assert not rep.ok
    assert any(v.rule == "nonseparated pair has common transversal"
               for v in rep.violations)


def test_nonsep_with_separator_rejected():
    ch, nonsep = ladder_chords(2)
    ch.append(("sep", PLUS, [("bot", 50), ("top", 50)]))  # between u1 and w1
    p = _chord_pattern(ch, nonseparated=nonsep)
    rep = p.validate()
    assert any(v.rule == "nonseparated pair separated by same-sign leaf"
               for v in rep.violations)


def test_double_crossing_rejected(prong3):
    # a chord spanning two non-adjacent sectors of the singular leaf
    leaves = [Leaf(l.id, l.sign, l.endpoints) for l in prong3.leaves.values()]
    leaves.append(Leaf("bad", MINUS, ("c2", "c18")))
    p = FinitePattern(prong3.boundary, leaves, prong3.singularities)
    rep = p.validate()
    assert not rep.ok


def test_degenerate_two_prong_rejected():
    p = FinitePattern(["a", "b", "c", "d"],
                      [Leaf("p", PLUS, ("a", "c")), Leaf("m", MINUS, ("b", "d"))],
                      [Singularity("p", "m")])
    rep = p.validate()
    assert any("< 3" in v.rule for v in rep.violations)


def test_shared_endpoint_same_sign_rejected():
    p = FinitePattern(["a", "b", "c"],
                      [Leaf("p1", PLUS, ("a", "b")), Leaf("p2", PLUS, ("a", "c"))])
    assert not p.validate().ok


def test_nonseparated_pair_skips_leaves_sharing_its_endpoints():
    # P2 ends at P0's c0 and P4 at P1's c4: whether they separate P0 from P1
    # has no answer, so only the shared endpoints are listed; P3, disjoint
    # from both, still separates them
    text = json.dumps({
        "boundary": [f"c{i}" for i in range(8)],
        "leaves": [{"id": lid, "sign": PLUS, "endpoints": eps} for lid, eps in (
            ("P0", ["c0", "c2"]), ("P1", ["c4", "c6"]), ("P2", ["c0", "c1"]),
            ("P3", ["c3", "c7"]), ("P4", ["c4", "c5"]))],
        "nonseparated": [["P0", "P1"]]})
    with pytest.raises(InvalidPatternError) as e:
        bio.parse_pattern_text(text)
    assert str(e.value).splitlines() == [
        "same-sign leaves share an endpoint: P0, P2",
        "same-sign leaves share an endpoint: P1, P4",
        "nonseparated pair separated by same-sign leaf: P0, P1, P3"]


def test_generators_and_random_draws_are_valid():
    # generators and random_pattern do not validate what they build: every
    # kind over a range of sizes (periodic kinds through windows of their
    # certified pattern) and 240 random draws pass validate and its
    # all-pairs oracle; trivial point names stay distinct past size 11
    sizes = {"trivial": (*range(1, 7), 11, 12, 13), "skew": range(2, 7), "ladder": range(1, 7),
             "prong": range(3, 8), "sinestrip": range(1, 7), "chain": range(1, 7)}
    patterns = []
    for kind in _GENERATORS:
        for args in ([(n,) for n in sizes[kind]] if kind in sizes else [()]):
            p = generate(kind, *args)
            if isinstance(p, PeriodicPattern):
                patterns += [p.materialize_window(-w, w) for w in (1, 3)]
                patterns.append(p.materialize_window(0, p.reach()))
            else:
                patterns.append(p)
    patterns += [random_pattern(seed, max_leaves=8 + seed % 3 * 8)
                 for seed in range(240)]
    for p in patterns:
        rep = p.validate()
        assert rep.ok and rep == oracle_validate(p), rep


# -- relations --------------------------------------------------------------------

def test_grid3_relations(grid3):
    for i in range(3):
        for j in range(3):
            assert grid3.intersects(f"v{i}", f"h{j}")
    assert grid3.perfect_fits() == []


def test_loz1_relations(loz1):
    crossings = [(a, b) for a, b in itertools.combinations(sorted(loz1.leaves), 2)
                 if loz1.intersects(a, b)]
    assert len(crossings) == 2
    assert len(loz1.perfect_fits()) == 2


def test_prong3_singular_crossing(prong3):
    assert prong3.intersects("sp", "sm")


def test_unknown_leaf_errors(grid3):
    with pytest.raises(UnknownIdError):
        grid3.intersects("v0", "nope")


def test_intersects_matches_geometry_on_regular_patterns():
    for seed in range(25):
        p = random_pattern(seed, max_leaves=14)
        for a, b in itertools.combinations(sorted(p.leaves), 2):
            if p.leaves[a].sign == p.leaves[b].sign:
                assert not p.intersects(a, b)
            else:
                assert p.intersects(a, b) == geometric_intersects(p, a, b), \
                    (seed, a, b)


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_linking_symmetry(seed):
    p = random_pattern(seed, max_leaves=12)
    for a, b in itertools.combinations(sorted(p.leaves), 2):
        assert p.intersects(a, b) == p.intersects(b, a)


# -- separation ----------------------------------------------------------------------

def test_grid3_separates_leaves(grid3):
    assert grid3.separates_leaves("v1", "v0", "v2")
    assert not grid3.separates_leaves("v0", "v1", "v2")


def test_separates_leaves_mixed_sign_error(grid3):
    with pytest.raises(PreconditionError):
        grid3.separates_leaves("h0", "v0", "v1")


def test_ladder3_pairs_never_separated(ladder3):
    for pair in ladder3.nonseparated:
        l1, l2 = sorted(pair)
        for m in ladder3.leaf_ids(PLUS):
            if m in (l1, l2):
                continue
            assert not ladder3.separates_leaves(m, l1, l2)


def test_separates_leaves_matches_geometry():
    for seed in range(20):
        p = random_pattern(seed, max_leaves=12)
        for sign in (PLUS, MINUS):
            ids = p.leaf_ids(sign)
            for m, l1, l2 in itertools.permutations(ids, 3):
                assert p.separates_leaves(m, l1, l2) == \
                    geometric_separates_leaves(p, m, l1, l2), (seed, m, l1, l2)


# -- point separation ------------------------------------------------------------------

def test_point_on_leaf_convention(grid3):
    # x lies on the leaf, y off it: separated
    assert grid3.separates_point("v0", "x00", "x22")
    # same point: never separated
    assert not grid3.separates_point("v0", "x00", "x00")
    # both crossings on the same horizontal side of h1
    assert not grid3.separates_point("h1", "x00", "x20")


def test_point_separation_matches_geometry():
    for seed in range(20):
        p = random_pattern(seed, max_leaves=12)
        pts = [p.points[q] for q in sorted(p.points)]
        for a, b in itertools.combinations(pts, 2):
            for leaf in sorted(p.leaves):
                assert p.separates_point(leaf, a, b) == \
                    geometric_separates_point(p, leaf, a, b), (seed, leaf, a.id, b.id)
    with pytest.raises(UnknownIdError):
        p.separates_point("nope", a, b)


def test_region_point_faces(grid3):
    q = Point.region("q", grid3.boundary[0])
    # the gap after the first boundary label sits on no leaf, and the point
    # reads the face planes of that gap
    on, planes = grid3._point_bits(q)
    assert on == 0 and planes == grid3._table.gap[0]
    for leaf in grid3.leaves:
        assert grid3._table.face(leaf, 0) == oracle_face_of_point(grid3, q, leaf)


# -- pseudo-intervals ---------------------------------------------------------------------

def test_grid3_interval(grid3):
    pi = grid3.pseudo_interval("v0", "v2")
    assert pi.separators == ("v1",)
    assert pi.n_blocks == 1


def test_ladder_blocks(ladder2, ladder3):
    assert ladder2.pseudo_interval("x", "y").n_blocks == 2
    assert ladder3.pseudo_interval("x", "y").n_blocks == 3


def test_nonseparated_pair_two_degenerate_blocks(ladder2):
    pi = ladder2.pseudo_interval("u1", "w1")
    assert pi.blocks == (("u1",), ("w1",))


def test_pseudo_interval_same_leaf(grid3):
    pi = grid3.pseudo_interval("v0", "v0")
    assert pi.blocks == (("v0",),)


def test_mixed_sign_error(grid3):
    with pytest.raises(PreconditionError):
        grid3.pseudo_interval("v0", "h0")


def _check_oracle(p, x, y):
    pi = p.pseudo_interval(x, y)
    assert set(pi.chain) == oracle_pseudo_interval_set(p, x, y)
    # minimality: every block inside every monotone path
    paths = all_monotone_paths(p, x, y)
    for block in pi.blocks:
        for path in paths:
            assert set(block) <= set(path)
    # disjointness
    for b1, b2 in itertools.combinations(pi.blocks, 2):
        assert not (set(b1) & set(b2))


def test_interval_oracle_fixtures(grid3, ladder2, ladder3):
    _check_oracle(grid3, "v0", "v2")
    _check_oracle(ladder2, "x", "y")
    _check_oracle(ladder3, "x", "y")
    _check_oracle(ladder3, "u1", "w2")


def test_interval_oracle_random():
    for seed in range(30):
        p = random_pattern(seed, max_leaves=12)
        for sign in (PLUS, MINUS):
            ids = sorted(p.leaf_ids(sign))
            for x, y in itertools.combinations(ids, 2):
                _check_oracle(p, x, y)


def test_separator_order_total():
    # betweenness depths are pairwise distinct on every fixture pair
    for seed in range(20):
        p = random_pattern(seed, max_leaves=12)
        for sign in (PLUS, MINUS):
            ids = sorted(p.leaf_ids(sign))
            for x, y in itertools.combinations(ids, 2):
                seps = p.separator_chain(x, y)
                for m1, m2 in itertools.combinations(seps, 2):
                    assert p._separates(m1, x, m2) != p._separates(m2, x, m1)


def _brute_seps(p, x, y):
    return [m for m in p.leaf_ids(p.leaf(x).sign)
            if m not in (x, y) and p._separates(m, x, y)]


def _brute_point_seps(p, px, py):
    """Leaves separating two points, one face-by-face lookup per leaf."""
    out = []
    for m in p.leaf_ids():
        on_x, on_y = oracle_on_leaf(px, m), oracle_on_leaf(py, m)
        if px.key() == py.key() or (on_x and on_y):
            continue
        if on_x or on_y or oracle_face_of_point(p, px, m) != \
                oracle_face_of_point(p, py, m):
            out.append(m)
    return out


def _brute_chain(p, x, y):
    seps = _brute_seps(p, x, y)
    depth = {m: sum(1 for m2 in seps if m2 != m and p._separates(m2, x, m))
             for m in seps}
    assert len(set(depth.values())) == len(depth), (x, y)
    return sorted(seps, key=depth.get)


def _differential_patterns():
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    for name in sorted(MANIFEST):
        p = load_fixture(name)
        if not isinstance(p, PeriodicPattern):
            yield name, p
    yield "ladder_periodic", generate("ladder_periodic").materialize_window(-6, 6)
    yield "scalloped", generate("scalloped").materialize_window(-3, 3)
    for seed in range(40):
        yield f"random{seed}", random_pattern(seed, max_leaves=14)


def _probe_points(p, rng):
    pts = list(p.points.values())
    crossings = [(a, b) for a, b in itertools.product(p.leaf_ids(PLUS),
                                                        p.leaf_ids(MINUS))
                 if p.intersects(a, b)]
    for i, (a, b) in enumerate(rng.sample(crossings, min(6, len(crossings)))):
        pts.append(Point.crossing(f"qx{i}", a, b))
    for i, lab in enumerate(rng.sample(p.boundary, min(6, len(p.boundary)))):
        pts.append(Point.region(f"qr{i}", lab))
    return pts


def test_separator_bitsets_match_brute_force():
    # every bitset reading against a face-by-face loop kept here, and against
    # the path oracle and float geometry on small regular patterns
    rng = random.Random(11)
    for name, p in _differential_patterns():
        small = len(p.leaves) <= 14 and all(not lf.is_singular
                                            for lf in p.leaves.values())
        for sign in (PLUS, MINUS):
            pairs = list(itertools.permutations(p.leaf_ids(sign), 2))
            if len(pairs) > 1000:
                pairs = rng.sample(pairs, 1000)
            for x, y in pairs:
                seps = p._seps(x, y)
                assert p._ids_of(seps) == _brute_seps(p, x, y), (name, x, y)
                chain = p.separator_chain(x, y)
                assert chain == _brute_chain(p, x, y), (name, x, y)
                assert wl.reeb_separated(p, x, y) == \
                    (p.pseudo_interval(x, y).n_blocks >= 2), (name, x, y)
                if small and x < y:
                    assert set(chain) | {x, y} == \
                        oracle_pseudo_interval_set(p, x, y), (name, x, y)
                    for m in p.leaf_ids(sign):
                        if m not in (x, y):
                            assert (m in chain) == \
                                geometric_separates_leaves(p, m, x, y), (name, m)
        pts = _probe_points(p, rng)
        for a, b in itertools.product(pts, pts):
            want = _brute_point_seps(p, a, b)
            assert p._ids_of(p._point_seps(a, b)) == want, (name, a.id, b.id)
            assert [l for l in p.leaf_ids() if p.separates_point(l, a, b)] \
                == want, (name, a.id, b.id)


def _loose_diagram(seed):
    """Random chords of both signs, up to 60 leaves; a same-sign crossing is
    kept now and then, so some draws are non-planar."""
    rng = random.Random(seed)
    grid = rng.sample(range(10_000), 120)
    chords = []
    for i in range(rng.randint(4, 60)):
        sign = rng.choice((PLUS, MINUS))
        e1, e2 = sorted(grid[2 * i: 2 * i + 2])
        planar = all(not ((e1 < c1 < e2) != (e1 < c2 < e2))
                     for s, c1, c2 in chords if s == sign)
        if planar or rng.random() < 0.02:
            chords.append((sign, e1, e2))
    return _circle_chords(chords)


def _circle_chords(chords):
    positions = sorted(x for _, a, b in chords for x in (a, b))
    label = {x: f"c{i}" for i, x in enumerate(positions)}
    leaves = [Leaf(f"l{i}", sign, (label[a], label[b]))
              for i, (sign, a, b) in enumerate(chords)]
    return FinitePattern([label[x] for x in positions], leaves)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_valid_patterns_never_have_incomparable_separators(seed):
    # the pairwise checks of validate imply a total separator order, so a
    # separator sweep in validate would find nothing more at any size
    for p in (_loose_diagram(seed), random_pattern(seed, max_leaves=60)):
        ok = p.validate().ok
        for sign in (PLUS, MINUS):
            for x, y in itertools.permutations(p.leaf_ids(sign), 2):
                try:
                    p.separator_chain(x, y)
                except InvalidPatternError:
                    assert not ok, (seed, x, y)


def test_incomparable_separators_raise_on_nonplanar_data():
    p = _circle_chords([(PLUS, 0, 3), (PLUS, 1, 4), (PLUS, 2, 6), (PLUS, 5, 7)])
    assert not p.validate().ok
    with pytest.raises(InvalidPatternError, match="incomparable separators"):
        p.separator_chain("l1", "l3")


def test_large_pattern_with_one_same_sign_crossing_rejected():
    p = random_pattern(0, max_leaves=60)
    assert len(p.leaves) > 36
    host = next(lf for lf in p.leaves.values() if lf.sign == PLUS)
    # a short plus chord round the host's first endpoint crosses it alone
    at = p.boundary.index(host.endpoints[0])
    boundary = list(p.boundary[:at]) + ["z0", host.endpoints[0], "z1"] + \
        list(p.boundary[at + 1:])
    leaves = list(p.leaves.values()) + [Leaf("bad", PLUS, ("z0", "z1"))]
    q = FinitePattern(boundary, leaves, nonseparated=p.nonseparated,
                      points=p.points.values())
    rules = [(v.rule, set(v.subjects)) for v in q.validate().violations]
    assert rules == [("same-sign crossing", {host.id, "bad"})]


@pytest.mark.parametrize("name, window", [("ladder_periodic", (-6, 6)),
                                          ("scalloped", (-3, 3))])
def test_relation_table_matches_geometry_past_the_sweep_cap(name, window):
    # windows larger than 36 leaves, the cap of a separator sweep that
    # validate used to run
    p = generate(name).materialize_window(*window)
    assert len(p.leaves) > 36
    ids = p.leaf_ids()
    crossing = {}
    for a, b in itertools.product(p.leaf_ids(PLUS), p.leaf_ids(MINUS)):
        crossing[a, b] = crossing[b, a] = geometric_intersects(p, a, b)
        assert p.intersects(a, b) == p.intersects(b, a) == crossing[a, b], (a, b)
    rng = random.Random(7)
    for sign in (PLUS, MINUS):
        same = p.leaf_ids(sign)
        for m, l1, l2 in (rng.sample(same, 3) for _ in range(400)):
            assert p._separates(m, l1, l2) == \
                geometric_separates_leaves(p, m, l1, l2), (m, l1, l2)
        for a, b in itertools.combinations(same, 2):
            brute = {t for t in ids if crossing.get((t, a)) and crossing.get((t, b))}
            mask = p.common_transversal(a, b)
            got = {t for i, t in enumerate(ids) if mask >> i & 1}
            assert got == brute, (a, b)


# -- quadrants and prongs -----------------------------------------------------------------

def test_prong3_quadrants(prong3):
    quads, inc = prong3.quadrants_of_crossing("sp", "sm")
    assert len(quads) == 6
    # each minus satellite crosses one ray: meets its two flanking quadrants
    assert len(inc["m0"]) == 2


def test_regular_crossing_four_quadrants(grid3):
    quads, _ = grid3.quadrants_of_crossing("v1", "h1")
    assert len(quads) == 4


def test_satellite_in_single_quadrant():
    p = generate("prong", 3)
    leaves = [Leaf(l.id, l.sign, l.endpoints) for l in p.leaves.values()]
    leaves.append(Leaf("sat", PLUS, ("c1", "c2")))
    q = FinitePattern(p.boundary, leaves, p.singularities)
    assert q.validate().ok
    inc = q.quadrant_incidence("sp", "sm", "sat")
    assert len(inc) == 1


def test_dividing_prong_examples():
    pd, pn = generate("prongdiv"), generate("prongnondiv")
    assert pd.is_dividing_prong(pd.singularities[0], "x", "y") is True
    assert pn.is_dividing_prong(pn.singularities[0], "x", "y") is False


def test_dividing_prong_adjacent_quadrant_false():
    # y in the quadrant right across the prong ray from x's: rejected by the
    # five-quadrant buffer rule
    pn = generate("prongnondiv")
    leaves = [Leaf(l.id, l.sign, l.endpoints) for l in pn.leaves.values()
              if l.id not in ("y", "ty")]
    leaves.append(Leaf("y", PLUS, ("c42", "c46")))
    q = FinitePattern(pn.boundary, leaves, pn.singularities)
    assert q.validate().ok
    assert q.is_dividing_prong(q.singularities[0], "x", "y") is False


def test_dividing_prong_precondition():
    pd = generate("prongdiv")
    with pytest.raises(PreconditionError):
        pd.is_dividing_prong(pd.singularities[0], "x", "x")


# -- partial linking -------------------------------------------------------------------------

def test_partial_link_fixture():
    p = generate("partlink")
    assert p.partially_linked("a", "b") is True


def test_grid3_fully_linked(grid3):
    assert grid3.partially_linked("x00", "x22") is False


def test_loz1_corners_not_partially_linked(loz1):
    assert loz1.partially_linked("ca", "cb") is False


def test_partial_link_rejects_region_points(grid3):
    q = Point.region("q", grid3.boundary[0])
    with pytest.raises(PreconditionError):
        grid3.partially_linked(q, "x00")


# -- lozenges ----------------------------------------------------------------------------------

def test_grid3_no_lozenges(grid3):
    rep = grid3.detect_lozenges()
    assert rep.lozenges == ()
    assert rep.corners == frozenset()


def test_loz1_detection(loz1):
    rep = loz1.detect_lozenges()
    assert len(rep.lozenges) == 1
    assert len(rep.chains) == 1
    assert len(rep.corners) == 2


def test_chain3_detection(chain3):
    rep = chain3.detect_lozenges()
    assert len(rep.lozenges) == 3
    assert len(rep.chains) == 1


def test_chain_quadrant_flag_clear_on_fixtures(chain3, loz1, prong3):
    for p in (chain3, loz1, prong3):
        rep = p.detect_lozenges()
        assert not any(rep.chain_quadrant_flags)


def test_prong_mode_blocks_share_prongs():
    pc = generate("prongchain")
    pi = pc.pseudo_interval("x", "y", Mode.PRONG)
    assert pi.blocks == (("x", "pa"), ("pa", "pb"), ("pb", "y"))
    # consecutive blocks overlap exactly in the dividing prong
    for b1, b2 in zip(pi.blocks, pi.blocks[1:]):
        assert set(b1) & set(b2) == {b1[-1]}


def test_claim_flag_clear_on_all_shipped_fixtures():
    from bifol.fixtures import MANIFEST, regenerate
    from bifol.periodic import PeriodicPattern

    for name in sorted(MANIFEST):
        p = regenerate(name)
        if isinstance(p, PeriodicPattern):
            p = p.materialize_window(0, 3)
        rep = p.detect_lozenges()
        assert not any(rep.chain_quadrant_flags), name


def test_star_crossing_symmetry():
    # crossing is symmetric also in the presence of singular leaves; query
    # both orders on fresh patterns so the cache cannot mask asymmetry
    for kind in ("prong", "prongdiv", "prongchain"):
        p1 = generate(kind) if kind != "prong" else generate(kind, 3)
        p2 = generate(kind) if kind != "prong" else generate(kind, 3)
        ids = sorted(p1.leaves)
        for a, b in itertools.combinations(ids, 2):
            assert p1.intersects(a, b) == p2.intersects(b, a), (kind, a, b)


def _on_prong3(leaves):
    """prong3's skeleton, the three-prong sp (plus, at 0, 16, 32) and its
    partner sm (minus, at 8, 24, 40) on 48 positions, with further leaves
    (id, sign, [positions])."""
    from bifol.periodic import _circle_pattern

    return _circle_pattern(48, [("sp", PLUS, [0, 16, 32]),
                                ("sm", MINUS, [8, 24, 40]), *leaves],
                           singularities=[Singularity("sp", "sm")])


def _prong_chain_leaves(valid):
    # corner chain hugging a three-prong: minus leaves cross one prong ray,
    # plus leaves cross one ray of the partner, quadrant reach q0..q2.  The
    # invalid variant adds a leaf jumping non-adjacent rays, which stretches
    # the chain past three quadrants; no honest plane realizes that.
    leaves = [("m0", MINUS, [13, 18]), ("m1", MINUS, [11, 22]),
              ("p0", PLUS, [17, 22]), ("p1", PLUS, [7, 13])]
    if not valid:
        leaves += [("mc", MINUS, [17, 42]), ("pc", PLUS, [18, 44])]
    return _on_prong3(leaves)


def test_chain_near_prong_within_three_quadrants():
    p = _prong_chain_leaves(valid=True)
    assert p.validate().ok, str(p.validate())
    rep = p.detect_lozenges()
    assert len(rep.lozenges) == 1 and len(rep.chains) == 1
    assert rep.chain_quadrant_flags == (False,)


def test_unrealizable_chain_spread_is_flagged_and_rejected():
    p = _prong_chain_leaves(valid=False)
    rep = p.validate()
    assert not rep.ok  # no honest plane realizes the stretched chain
    loz = p.detect_lozenges()
    assert any(loz.chain_quadrant_flags)


# a lozenge with a corner at the singular point, and one with a side on the
# singular leaf; each validates
_SINGULAR_CORNER = [("m1", MINUS, [0, 4]), ("p2", PLUS, [2, 8])]
_SINGULAR_SIDE = [("m1", MINUS, [16, 21]), ("m2", MINUS, [30, 38]),
                  ("p2", PLUS, [17, 30])]


@pytest.mark.parametrize("leaves, lozenge, flag", [
    (_SINGULAR_CORNER, Lozenge("sp", "m1", "p2", "sm"), False),
    (_SINGULAR_SIDE, Lozenge("sp", "m1", "p2", "m2"), True),
])
def test_chain_flag_at_a_singular_corner_and_a_singular_side(
        leaves, lozenge, flag, tmp_path, capsys):
    # a chain with a corner at the singularity is not checked against it; a
    # chain with a side on its leaf meets every one of its quadrants
    p = _on_prong3(leaves)
    assert p.validate().ok, str(p.validate())
    rep = p.detect_lozenges()
    assert rep.lozenges == (lozenge,)
    assert rep.chains == ((0,),)
    assert rep.corners == frozenset(lozenge.corners)
    assert rep.chain_quadrant_flags == (flag,)
    path = tmp_path / "p.json"
    bio.write_pattern(p, path)
    assert main(["lozenges", "--in", str(path)]) == (3 if flag else 0)
    assert json.loads(capsys.readouterr().out)["results"]["quadrant_flags"] \
        == [flag]


def _lozenge_patterns():
    """Every finite fixture; every periodic one at windows (-w, w), w in 1,
    2, 3, 5, 8, 16 and 40; chain at sizes 1 to 11; and the first 300
    patterns with a lozenge among prong3's skeleton with 2 to 6 random
    chords.  None of those 300 validates: they hold the inputs, such as
    one leaf pair listed as two fits, that only invalid patterns make."""
    for name in sorted(MANIFEST):
        p = load_fixture(name)
        if isinstance(p, FinitePattern):
            yield name, p
        else:
            for w in (1, 2, 3, 5, 8, 16, 40):
                yield f"{name}[-{w},{w}]", p.materialize_window(-w, w)
    for n in range(1, 12):
        yield f"chain {n}", generate("chain", n)
    rng, found = random.Random(29), 0
    while found < 300:
        p = _on_prong3([(f"r{i}", rng.choice((PLUS, MINUS)),
                         rng.sample(range(48), 2))
                        for i in range(rng.randint(2, 6))])
        if oracle_lozenges(p)[0]:
            found += 1
            yield f"random {found}", p


def test_lozenges_match_the_oracle():
    # order and orientation included
    for name, p in _lozenge_patterns():
        rep = p.detect_lozenges()
        lozenges, chains, corners = oracle_lozenges(p)
        assert [(L.plus1, L.minus1, L.plus2, L.minus2)
                for L in rep.lozenges] == lozenges, name
        assert list(rep.chains) == chains, name
        assert rep.corners == corners, name


def test_quadrant_jumping_leaves_rejected():
    # a leaf whose endpoints sit in non-adjacent sectors of a prong would
    # have to cross the same-family singular leaf, which validation forbids
    pd = generate("prongdiv")
    leaves = [Leaf(l.id, l.sign, l.endpoints) for l in pd.leaves.values()]
    leaves.append(Leaf("bad", PLUS, ("c11", "c34")))
    q = FinitePattern(pd.boundary, leaves, pd.singularities)
    rep = q.validate()
    assert any(v.rule == "same-sign crossing" and "bad" in v.subjects
               for v in rep.violations)


# -- refusals and edge returns of the pattern API --------------------------------


def test_constructor_refuses_duplicate_labels_leaf_ids_and_point_ids():
    x, y = Leaf("x", PLUS, ("a", "c")), Leaf("y", MINUS, ("b", "d"))
    with pytest.raises(InvalidPatternError, match="duplicate boundary labels"):
        FinitePattern(["a", "a"], [])
    with pytest.raises(InvalidPatternError, match="duplicate leaf id x"):
        FinitePattern("abcd", [x, Leaf("x", PLUS, ("b", "d"))])
    q = Point.crossing("q", "x", "y")
    with pytest.raises(InvalidPatternError, match="duplicate point id q"):
        FinitePattern("abcd", [x, y], points=[q, q])


def test_query_refusals_name_the_fault(grid3, prong3):
    with pytest.raises(UnknownIdError, match="unknown boundary label 'zz'"):
        grid3.pos("zz")
    with pytest.raises(PreconditionError, match="requires distinct leaves"):
        grid3.separates_leaves("v0", "v0", "v1")
    with pytest.raises(PreconditionError, match="leaves do not cross"):
        grid3.quadrants_of_crossing("v0", "v1")
    a = next(iter(grid3.points))
    with pytest.raises(PreconditionError, match="two distinct points"):
        grid3.partially_linked(a, a)
    sing = prong3.singularities[0]
    with pytest.raises(PreconditionError, match="requires plus leaves"):
        prong3.is_dividing_prong(sing, "p0", "m0")
    chain2 = load_fixture("prongchain2")
    pa = next(s for s in chain2.singularities if s.plus_leaf == "pa")
    with pytest.raises(PreconditionError, match="must separate x from y"):
        chain2.is_dividing_prong(pa, "pb", "y")


def test_edge_returns_of_separation_and_quadrants(grid3, prong3):
    assert grid3.separator_chain("v1", "v1") == []
    assert str(grid3.validate()) == "valid"
    # a bounding leaf meets all six quadrants of the 3-prong crossing
    assert prong3.quadrant_incidence("sp", "sm", "sp") == set(range(6))
    # p0 meets two quadrants, so it cannot sit in a five-quadrant buffer
    sing = prong3.singularities[0]
    assert len(prong3.quadrant_incidence("sp", "sm", "p0")) == 2
    assert prong3.is_dividing_prong(sing, "p0", "p1") is False
    # the chain's end is the prong itself: the prong test refuses it, and
    # the pseudo-interval keeps one block
    assert prong3.pseudo_interval("p0", "sp", Mode.PRONG).blocks == \
        (("p0", "sp"),)
    assert not _is_cyclic_run({0, 2}, 6, 2)
    assert _is_cyclic_run({0, 5}, 6, 2)


def test_ray_crossed_is_none_for_two_rays_of_a_4_prong():
    # invalid on purpose: m has endpoints in faces 0 and 2 of the 4-prong
    # s, so it crosses two of its rays and no single ray is the crossed one
    lab = [f"c{i}" for i in range(8)]
    p = FinitePattern(lab, [Leaf("s", PLUS, ("c0", "c2", "c4", "c6")),
                            Leaf("m", MINUS, ("c1", "c5"))])
    assert p.intersects("m", "s")
    assert p._ray_crossed("m", "s") is None
