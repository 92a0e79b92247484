import itertools
import random

import pytest

from bifol.pattern import (
    PLUS, MINUS, DegenerateInputError, FinitePattern, Point, PreconditionError,
    UnknownIdError,
)
from bifol import graphs as gr
from bifol import walls as wl
from bifol.fixtures import load_fixture
from bifol.randgen import random_pattern

from oracles import (
    oracle_longest_chain, oracle_separation_depth, oracle_wall_sup,
)
from test_pattern import _brute_point_seps, _differential_patterns, _probe_points


def test_grid3_no_aligned_plus_pair(grid3):
    for a, b in itertools.combinations(grid3.leaf_ids(PLUS), 2):
        assert not wl.aligned(grid3, a, b)


def test_nonseparated_pair_aligned(ladder2):
    assert wl.aligned(ladder2, "u1", "w1")


def test_ladder_reeb(ladder2):
    assert wl.reeb_separated(ladder2, "x", "y")
    assert not wl.reeb_separated(ladder2, "x", "u1")


def test_aligned_same_leaf_error(grid3):
    with pytest.raises(PreconditionError):
        wl.aligned(grid3, "v0", "v0")


def test_reeb_mixed_sign_error(grid3):
    with pytest.raises(PreconditionError):
        wl.reeb_separated(grid3, "v0", "h0")


def test_grid3_distances(grid3):
    assert wl.wall_distance(grid3, "x00", "x22", wl.D_PLUS) == 2
    assert wl.wall_distance(grid3, "x00", "x00", wl.D_PLUS) == 0
    assert wl.wall_distance(grid3, "x00", "x22", wl.D_H) == 1
    wit = wl.longest_chain_witness(grid3, "x00", "x22", wl.D_PLUS)
    assert wit.leaves == ("v0",)  # ties break toward the least leaf id


def test_ladder2_reeb_distance(ladder2):
    assert wl.wall_distance(ladder2, "px", "py", wl.D_RPLUS) == 2
    wit = wl.longest_chain_witness(ladder2, "px", "py", wl.D_RPLUS)
    assert len(wit.leaves) == 1


def test_empty_witness_for_equal_points(grid3):
    assert wl.longest_chain_witness(grid3, "x11", "x11", wl.D_H).leaves == ()


def test_wall_distance_unknown_point(grid3):
    with pytest.raises(Exception):
        wl.wall_distance(grid3, "nope", "x00", wl.D_H)


def test_skew_aligned_family_size(skew2):
    # far-apart crossings on a window admit aligned families of linear size
    w = skew2.materialize_window(0, 8)
    a = Point.crossing("a", "p0", "m0")
    b = Point.crossing("b", "p8", "m8")
    d = wl.wall_distance(w, a, b, wl.D_PLUS)
    wit = wl.longest_chain_witness(w, a, b, wl.D_PLUS)
    assert d == len(wit.leaves) + 1
    assert len(wit.leaves) >= 3
    assert d == oracle_wall_sup(w, a, b, wl.D_PLUS) + 1


def _oracle_all_kinds(p, points):
    for a, b in itertools.combinations(points, 2):
        for kind in wl.KINDS:
            wit = wl.longest_chain_witness(p, a, b, kind)
            assert len(wit.leaves) == oracle_wall_sup(p, a, b, kind), \
                (a if isinstance(a, str) else a.id,
                 b if isinstance(b, str) else b.id, kind)


def test_witness_matches_bruteforce_fixtures(grid3, ladder2, chain3):
    _oracle_all_kinds(grid3, sorted(grid3.points))
    _oracle_all_kinds(ladder2, sorted(ladder2.points))
    _oracle_all_kinds(chain3, sorted(chain3.points))


def test_witness_matches_bruteforce_random():
    for seed in range(18):
        p = random_pattern(seed, max_leaves=12)
        pts = sorted(p.points)
        if len(pts) >= 2:
            _oracle_all_kinds(p, pts)


def test_chain_coherence():
    # in a nested separating family, consecutive alignment gives pairwise
    for seed in range(15):
        p = random_pattern(seed, max_leaves=12)
        pts = sorted(p.points)
        for a, b in itertools.combinations(pts, 2):
            for kind in (wl.D_PLUS, wl.D_MINUS, wl.D_H):
                wit = wl.longest_chain_witness(p, a, b, kind)
                for l1, l2 in itertools.combinations(wit.leaves, 2):
                    assert not p.intersects(l1, l2)
                    assert wl.aligned(p, l1, l2), (seed, a, b, kind, l1, l2)


def test_metric_axioms_fixtures(grid3, ladder3, chain3):
    for p in (grid3, ladder3, chain3):
        for kind in wl.KINDS:
            rep = wl.metric_axiom_check(p, kind)
            assert rep.ok, (kind, rep.violations)


def test_fault_injection_reports_triangle(grid3, monkeypatch):
    # a corrupted distance oracle must surface as a reported violation
    honest = wl.wall_distance

    def corrupted(p, a, b, kind):
        if {a.id, b.id} == {"x00", "x22"}:
            return 99
        return honest(p, a, b, kind)

    monkeypatch.setattr(wl, "wall_distance", corrupted)
    rep = wl.metric_axiom_check(grid3, wl.D_PLUS)
    assert not rep.ok
    assert any(v[0] == "triangle" for v in rep.violations)


def test_qi_metric_grid3(grid3):
    rep = wl.qi_metric_report(grid3)
    assert rep.ok, rep.violations
    plus_checks = [c for c in rep.checks if c[0] == wl.D_PLUS]
    assert plus_checks


def test_qi_metric_skew_window(skew2):
    w = skew2.materialize_window(0, 9)
    pts = [Point.crossing(f"q{i}", f"p{i}", f"m{i}") for i in (0, 3, 6, 9)]
    rep = wl.qi_metric_report(w, points=pts)
    assert rep.ok, rep.violations


def test_region_points_skipped_in_qi(grid3):
    pts = [Point.crossing("a", "v0", "h0"), Point.region("r", grid3.boundary[0])]
    rep = wl.qi_metric_report(grid3, points=pts)
    assert rep.skipped == ("r",)


def _depth_by_id(p, x, leaves):
    """``FinitePattern._depths`` of the bitset of some leaves, by leaf id."""
    t = p._table
    depth = p._depths(x, sum(1 << t.index[l] for l in leaves))
    return {t.ids[i]: d for i, d in depth.items()}


def test_nestedness_of_separators():
    # separating leaves of a fixed pair, restricted to disjoint families,
    # are linearly ordered by betweenness
    for seed in range(12):
        p = random_pattern(seed, max_leaves=12)
        pts = sorted(p.points)
        for a, b in itertools.combinations(pts, 2):
            seps = wl.separating_leaves(p, a, b, wl.D_H)
            depth = _depth_by_id(p, p.point(a), seps)
            for l1, l2 in itertools.combinations(seps, 2):
                if not p.intersects(l1, l2):
                    assert depth[l1] != depth[l2] or l1 == l2


def test_wall_distance_finite_everywhere(grid3, chain3):
    for p in (grid3, chain3):
        pts = sorted(p.points)
        for a, b in itertools.combinations(pts, 2):
            for kind in wl.KINDS:
                assert wl.wall_distance(p, a, b, kind) < 10 ** 6


def test_wall_distance_window_monotone(skew2):
    # wall distances never decrease when the window grows
    small = skew2.materialize_window(-3, 3)
    big = skew2.materialize_window(-6, 6)
    a = Point.crossing("a", "p-2", "m-2")
    b = Point.crossing("b", "p2", "m2")
    for kind in wl.KINDS:
        ds = wl.wall_distance(small, a, b, kind)
        db = wl.wall_distance(big, a, b, kind)
        assert db >= ds, kind


def test_skew3_aligned_family_scales():
    from bifol.periodic import generate as gen

    w = gen("skew", 3).materialize_window(0, 12)
    a = Point.crossing("a", "p0", "m0")
    b = Point.crossing("b", "p12", "m12")
    wit = wl.longest_chain_witness(w, a, b, wl.D_PLUS)
    # pairwise-aligned plus leaves must sit at least W apart in the band
    idx = sorted(int(l[1:]) for l in wit.leaves)
    assert all(j - i >= 3 for i, j in zip(idx, idx[1:]))
    assert len(wit.leaves) == oracle_wall_sup(w, a, b, wl.D_PLUS)
    assert len(wit.leaves) >= 3


def test_metric_axioms_with_region_points(grid3):
    pts = [Point.crossing("a", "v0", "h0"), Point.crossing("b", "v2", "h2"),
           Point.region("r1", grid3.boundary[0]),
           Point.region("r2", grid3.boundary[6])]
    for kind in wl.KINDS:
        rep = wl.metric_axiom_check(grid3, kind, points=pts)
        assert rep.ok, (kind, rep.violations)


def test_degenerate_points_rejected():
    from bifol.pattern import FinitePattern, Leaf

    # two spare labels in one face: the truncation cannot tell the anchored
    # points apart, which must surface as an error rather than distance zero
    p = FinitePattern(["a", "b", "u", "v"],
                      [Leaf("p0", "plus", ("a", "b"))])
    assert p.validate().ok
    x, y = Point.region("x", "u"), Point.region("y", "v")
    with pytest.raises(DegenerateInputError):
        wl.wall_distance(p, x, y, wl.D_H)


def _witness_patterns():
    yield from _differential_patterns()
    from bifol.periodic import generate as gen

    for W in (2, 3, 4):
        yield f"skew{W}[-4,4]", gen("skew", W).materialize_window(-4, 4)


def test_witness_tuples_match_face_by_face_oracle():
    # separation depths and exact witness tuples, not only their length,
    # against the face-by-face depth and the per-pair predicates, for every
    # kind and ordered pair
    rng = random.Random(5)
    for name, p in _witness_patterns():
        pts = _probe_points(p, rng)
        for a, b, kind in itertools.product(pts, pts, wl.KINDS):
            if a.key() == b.key():
                want = ()
            else:
                seps = p._point_seps(a, b)
                if not seps:
                    with pytest.raises(DegenerateInputError):
                        wl.longest_chain_witness(p, a, b, kind)
                    continue
                seps = p._ids_of(wl._of_kind(p, seps, kind))
                assert _depth_by_id(p, a, seps) == \
                    oracle_separation_depth(p, a, seps), (name, a.id, b.id, kind)
                want = oracle_longest_chain(p, kind, seps, a)
            got = wl.longest_chain_witness(p, a, b, kind).leaves
            assert got == want, (name, a.id, b.id, kind)


def _region_point_patterns():
    for name in ("prong3", "prongchain2", "prongdiv", "prongnondiv"):
        yield name, load_fixture(name)
    for seed in range(12):
        yield f"random{seed}", random_pattern(seed, max_leaves=10)


def test_region_points_at_every_gap_match_the_face_oracle():
    # a region point in every gap, against every other gap and every
    # declared point, through separates_point and wall_distance, on the
    # singular fixtures and on random patterns; the oracle reads faces off
    # sorted endpoints
    for name, p in _region_point_patterns():
        gaps = [Point.region(f"r{i}", lab) for i, lab in enumerate(p.boundary)]
        pairs = itertools.chain(
            itertools.combinations_with_replacement(gaps, 2),
            itertools.product(gaps, p.points.values()))
        for a, b in pairs:
            seps = _brute_point_seps(p, a, b)
            assert [m for m in p.leaf_ids() if p.separates_point(m, a, b)] \
                == seps, (name, a.id, b.id)
            for kind in wl.KINDS:
                if a.key() != b.key() and not seps:
                    with pytest.raises(DegenerateInputError):
                        wl.wall_distance(p, a, b, kind)
                    continue
                sign = wl._SIGN_OF[kind]
                of_kind = sorted(m for m in seps
                                 if sign in (None, p.leaves[m].sign))
                chain = oracle_longest_chain(p, kind, of_kind, a)
                plus_one = kind != wl.D_H and a.key() != b.key()
                assert wl.wall_distance(p, a, b, kind) == \
                    len(chain) + plus_one, (name, a.id, b.id, kind)


def test_leaf_through_the_point_ending_at_the_first_endpoint_is_not_between(
        chain3):
    # m1 runs through the crossing point x of p1 and m1, and p0's first
    # endpoint is an endpoint of m1 (a perfect fit): x holds no face of m1
    # and p0 is read on m1, so m1 is not counted as lying between x and p0
    x = Point.crossing("x", "p1", "m1")
    assert chain3.endpoint_positions("p0")[0] in \
        chain3.endpoint_positions("m1")
    assert not chain3.intersects("p0", "m1")
    want = {"p0": 0, "m1": 1}
    assert _depth_by_id(chain3, x, ["p0", "m1"]) == want
    assert oracle_separation_depth(chain3, x, ["p0", "m1"]) == want


def test_reeb_chains_read_the_gamma_graph():
    # Reeb chains against the per-pair oracle_breaks, on every pair of the
    # declared points and of up to ten crossing points of every fixture
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    rng = random.Random(3)
    cases = []
    for name in sorted(MANIFEST):
        p = load_fixture(name)
        if isinstance(p, PeriodicPattern):
            p = p.materialize_window(-4, 4)
        crossings = [(a, b) for a, b in itertools.product(p.leaf_ids(PLUS),
                                                            p.leaf_ids(MINUS))
                     if p.intersects(a, b)]
        pts = list(p.points.values()) + [
            Point.crossing(f"qx{i}", a, b)
            for i, (a, b) in enumerate(rng.sample(crossings, min(10, len(crossings))))]
        for a, b in itertools.permutations(pts, 2):
            for kind in (wl.D_RPLUS, wl.D_RMINUS):
                seps = p._point_seps(a, b)
                if a.key() != b.key() and seps:
                    seps = p._ids_of(wl._of_kind(p, seps, kind))
                    cases.append((name, p, a, b, kind,
                                  oracle_longest_chain(p, kind, seps, a)))
    assert {kind for *_, kind, _ in cases} == {wl.D_RPLUS, wl.D_RMINUS}
    assert any(len(want) >= 2 for *_, want in cases)
    for name, p, a, b, kind, want in cases:
        got = wl.longest_chain_witness(p, a, b, kind).leaves
        assert got == want, (name, a.id, b.id, kind)


def test_qi_metric_checks_match_per_pair_distances():
    graph_of = {wl.D_PLUS: (gr.XPLUS, "plus_leaf"),
                wl.D_MINUS: (gr.XMINUS, "minus_leaf"),
                wl.D_RPLUS: (gr.GAMMAPLUS, "plus_leaf"),
                wl.D_RMINUS: (gr.GAMMAMINUS, "minus_leaf")}
    rng = random.Random(7)
    for name, p in _witness_patterns():
        pts = sorted((q for q in _probe_points(p, rng) if q.kind == "crossing"),
                     key=lambda q: q.id)
        rep = wl.qi_metric_report(p, points=pts)
        want = []
        for kind, (gk, attr) in graph_of.items():
            G = gr.build_graph(p, gk)
            for a, b in itertools.combinations(pts, 2):
                la, lb = getattr(a, attr), getattr(b, attr)
                want.append((kind, a.id, b.id, wl.wall_distance(p, a, b, kind),
                             0 if la == lb else gr.distance(G, la, lb)))
        assert list(rep.checks) == want, name


def test_qi_metric_unknown_graph_vertex(grid3):
    # a crossing point named with its leaves swapped has no image in the
    # one-family graphs, whichever end of the pair it is
    good, swapped = ("v0", "h0"), ("h1", "v1")
    for first, second in ((good, swapped), (swapped, good)):
        pts = [Point.crossing("a", *first), Point.crossing("b", *second)]
        with pytest.raises(UnknownIdError, match="'h1' not in graph"):
            wl.qi_metric_report(grid3, points=pts)
