import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from bifol.pattern import PreconditionError
from bifol.periodic import (
    AffineElement, IndexMap, PatternAutomorphism, generate,
    materialize_window, scalloped_invariant,
)
from bifol import graphs as gr

from oracles import oracle_bfs_distance


# -- generators and windows --------------------------------------------------------

def test_trivial_passes_validate_and_diameter(grid3):
    assert grid3.validate().ok
    G = gr.build_graph(grid3, gr.XPLUS)
    assert gr.diameter(G) == 1


def test_skew_band_contract(skew2):
    w = materialize_window(skew2, 0, 6)
    for i in range(7):
        for j in range(7):
            expected = i <= j < i + 2
            assert w.intersects(f"p{i}", f"m{j}") == expected


def test_skew_window_distance(skew2):
    w = materialize_window(skew2, 0, 6)
    G = gr.build_graph(w, gr.XPLUS)
    assert gr.distance(G, "p0", "p6") == 6
    assert oracle_bfs_distance(G.adj, "p0", "p6") == 6


def test_skew_small_window_counts(skew2):
    w = materialize_window(skew2, 0, 3)
    assert len(w.leaf_ids("plus")) == 4 and len(w.leaf_ids("minus")) == 4
    assert w.validate().ok


def test_window_preconditions(skew2):
    with pytest.raises(PreconditionError):
        materialize_window(skew2, 0, 0)
    with pytest.raises(PreconditionError):
        generate("skew", 1)
    with pytest.raises(PreconditionError):
        generate("ladder", 0)
    with pytest.raises(PreconditionError):
        generate("prong", 2)


def test_every_window_validates(ladder_periodic, scalloped, trivial_periodic, skew2):
    for pp in (ladder_periodic, scalloped, trivial_periodic, skew2):
        for lo, hi in ((0, 2), (-3, 3), (0, 5)):
            assert materialize_window(pp, lo, hi).validate().ok


def test_ladder_periodic_window_blocks(ladder_periodic):
    w = materialize_window(ladder_periodic, -2, 2)
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
        small = materialize_window(pp, -2, 2)
        big = materialize_window(pp, -4, 4)
        Gs = gr.build_graph(small, gr.XPLUS)
        Gb = gr.build_graph(big, gr.XPLUS)
        for u, v in itertools.combinations(Gs.vertices, 2):
            ds, db = gr.distance(Gs, u, v), gr.distance(Gb, u, v)
            assert db <= ds


def test_window_stability_flag(skew2):
    small = materialize_window(skew2, -4, 4)
    big = materialize_window(skew2, -8, 8)
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


def test_orientation_reversing_rejected(skew2):
    with pytest.raises(PreconditionError):
        PatternAutomorphism(skew2, IndexMap([1]), IndexMap([1]), orientation=-1)


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


def test_scalloped_marker_missing(skew2):
    with pytest.raises(PreconditionError):
        scalloped_invariant(skew2, skew2.automorphisms["s"])


def test_scalloped_window_has_both_chains(scalloped):
    w = materialize_window(scalloped, 0, 5)
    rep = w.detect_lozenges()
    keys = {(L.plus1, L.plus2) for L in rep.lozenges}
    # vertical bricks share consecutive plus sides, horizontal bricks skip one
    assert ("V1", "V0") in keys or ("V0", "V1") in keys
    assert ("V2", "V0") in keys or ("V0", "V2") in keys
