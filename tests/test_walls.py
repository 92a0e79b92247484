import itertools

import pytest

from bifol.pattern import (
    PLUS, DegenerateInputError, Point, PreconditionError,
)
from bifol import walls as wl
from bifol.randgen import random_pattern

from oracles import oracle_wall_sup


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


def test_fault_injection_reports_triangle(grid3):
    # a corrupted distance oracle must surface as a reported violation
    bad = {}

    def corrupted(a, b):
        ia, ib = a.id, b.id
        if {ia, ib} == {"x00", "x22"}:
            return 99
        return wl.wall_distance(grid3, a, b, wl.D_PLUS)

    rep = wl.metric_axiom_check(grid3, wl.D_PLUS, _distance_fn=corrupted)
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


def test_nestedness_of_separators():
    # separating leaves of a fixed pair, restricted to disjoint families,
    # are linearly ordered by betweenness
    for seed in range(12):
        p = random_pattern(seed, max_leaves=12)
        pts = sorted(p.points)
        for a, b in itertools.combinations(pts, 2):
            seps = wl.separating_leaves(p, a, b, wl.D_H)
            depth = wl._separation_depth(p, p.point(a), seps)
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
