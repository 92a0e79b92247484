import itertools

import pytest

from bifol.pattern import Mode, PreconditionError
from bifol.periodic import IndexMap, PatternAutomorphism
from bifol import dynamics as dy
from bifol import graphs as gr
from bifol.census import BudgetExceededError, word_ball
from bifol.fixtures import load_fixture


def test_skew_axis_all_leaves(skew2):
    s = skew2.automorphisms["s"]
    ax = dy.axis(skew2, s, "plus", (-5, 5))
    assert len(ax.blocks) == 1
    assert set(ax.leaves) == {f"p{i}" for i in range(-4, 5)}


def test_ladder_axis_blocks(ladder_periodic):
    s = ladder_periodic.automorphisms["s"]
    ax = dy.axis(ladder_periodic, s, "plus", (-4, 4))
    # hooks never lie on the axis
    assert all(not l.startswith("r") for l in ax.leaves)
    assert ax.period_blocks == 1
    # interior blocks are the junction-to-junction pairs
    interior = ax.blocks[1:-1]
    assert all(len(b) == 2 for b in interior)
    assert all(b[0].startswith("w") and b[1].startswith("u") for b in interior)


def test_skew_axis_is_a_separation_chain(skew2):
    ax = dy.axis(skew2, skew2.automorphisms["s"], "plus", (-8, 8))
    w = skew2.materialize_window(-8, 8)
    for a, m, c in zip(ax.leaves, ax.leaves[1:], ax.leaves[2:]):
        assert w.separates_leaves(m, a, c), (a, m, c)


def test_axis_invariance(ladder_periodic):
    s = ladder_periodic.automorphisms["s"]
    ax = dy.axis(ladder_periodic, s, "plus", (-4, 4))
    names = set(ax.leaves)
    shifted = {s.act(l) for l in ax.leaves}
    # images stay on the axis wherever they stay in the window
    assert {x for x in shifted if x in names} <= names
    blocks = ax.blocks
    imgs = [tuple(s.act(l) for l in b) for b in blocks[1:-2]]
    assert all(tuple(i) in blocks for i in imgs)


def test_axis_fixed_leaf_error(scalloped):
    swap = scalloped.automorphisms["swap"]
    sq = swap.compose(swap)  # identity fixes everything
    with pytest.raises(PreconditionError):
        dy.axis(scalloped, sq, "plus", (-3, 3))


def test_trivial_translation_axis(trivial_periodic):
    t = PatternAutomorphism(trivial_periodic, IndexMap([1]), IndexMap([1]))
    ax = dy.axis(trivial_periodic, t, "plus", (-4, 4))
    assert len(ax.blocks) == 1


def test_induced_blocks_lemma(ladder_periodic):
    s = ladder_periodic.automorphisms["s"]
    lo, hi = -4, 4
    w = ladder_periodic.materialize_window(lo, hi)
    ax = dy.axis(ladder_periodic, s, "plus", (lo, hi))
    blocks = ax.blocks
    idx_of = {l: i for i, b in enumerate(blocks) for l in b}
    pairs = [(x, y) for x, y in itertools.combinations(ax.leaves, 2)
             if idx_of[y] - idx_of[x] >= 2]
    for x, y in pairs[:40]:
        sub = dy.induced_blocks(w, ax, x, y)
        # interior blocks agree with axis blocks; ends shift by at most one
        whole = [set(b) for b in blocks]
        for piece in sub[1:-1]:
            assert set(piece) in whole
        first, last = set(sub[0]), set(sub[-1])
        assert any(first <= b for b in whole)
        assert any(last <= b for b in whole)
        i, j = idx_of[x], idx_of[y]
        ii = next(k for k, b in enumerate(whole) if first <= b)
        jj = next(k for k, b in enumerate(whole) if last <= b)
        assert abs(ii - i) <= 1 and abs(jj - j) <= 1


def test_induced_single_block(ladder_periodic):
    w = ladder_periodic.materialize_window(-2, 2)
    # both endpoints inside one axis block: a single true interval
    assert w.pseudo_interval("w0", "u1").blocks == (("w0", "u1"),)


def test_projection_identity_on_line(grid3):
    A = dy.PseudoLine(("v0", "v1", "v2"), frozenset())
    assert dy.project_to_pseudoline(grid3, A, "v0") == ("v0",)
    assert dy.project_to_pseudoline(grid3, A, "v1") == ("v1",)


def test_projection_off_line(ladder_periodic):
    s = ladder_periodic.automorphisms["s"]
    w = ladder_periodic.materialize_window(-3, 3)
    ax = dy.axis(ladder_periodic, s, "plus", (-3, 3))
    # a hook hangs off its junction gap: projects to the nonseparated pair
    pr = dy.project_to_pseudoline(w, ax.line, "r0")
    assert set(pr) == {"u0", "w0"}


def test_projection_distance_bound(ladder_periodic):
    # d(x, p_A(x)) <= d(x, y) for every y on the line
    s = ladder_periodic.automorphisms["s"]
    w = ladder_periodic.materialize_window(-3, 3)
    ax = dy.axis(ladder_periodic, s, "plus", (-3, 3))
    G = gr.build_graph(w, gr.XPLUS)
    for x in w.leaf_ids("plus"):
        try:
            pr = dy.project_to_pseudoline(w, ax.line, x)
        except dy.ProjectionUndefinedError:
            continue
        dpr = min(gr.distance(G, x, q) for q in pr)
        for y in ax.leaves:
            assert dpr <= gr.distance(G, x, y), (x, y)


def test_overlap_identity(ladder_periodic):
    pp = ladder_periodic
    w = pp.materialize_window(-4, 4)
    s = pp.automorphisms["s"]
    ax = dy.axis(pp, s, "plus", (-4, 4))
    ident = s.compose(s.inverse())
    a, b = ax.leaves[0], ax.leaves[-1]
    G = gr.build_graph(w, gr.XPLUS)
    eps = 1.0
    if gr.distance(G, a, b) > 4 * eps + 5:
        rep = dy.overlap_interval(w, ax.line, a, b, ident, eps)
        assert set(rep.interval) == set(w.pseudo_interval(a, b, Mode.NONSEP).chain)
        assert rep.ok


def test_overlap_with_shift(ladder_periodic):
    pp = ladder_periodic
    w = pp.materialize_window(-5, 5)
    s = pp.automorphisms["s"]
    ax = dy.axis(pp, s, "plus", (-5, 5))
    a, b = ax.leaves[1], ax.leaves[-2]
    G = gr.build_graph(w, gr.XPLUS)
    eps = gr.distance(G, a, s.act(a)) + 1
    if gr.distance(G, a, b) > 4 * eps + 5:
        rep = dy.overlap_interval(w, ax.line, a, b, s, eps)
        assert rep.ok, rep.bounds


def test_overlap_too_close_errors(ladder_periodic):
    pp = ladder_periodic
    w = pp.materialize_window(-2, 2)
    s = pp.automorphisms["s"]
    ax = dy.axis(pp, s, "plus", (-2, 2))
    a = ax.leaves[0]
    b = ax.leaves[1]
    with pytest.raises(PreconditionError):
        dy.overlap_interval(w, ax.line, a, b, s.compose(s.inverse()), 2.0)


def test_classify_skew_shift(skew2):
    v = dy.classify_isometry(skew2, skew2.automorphisms["s"], window=8, nmax=6)
    assert isinstance(v, dy.Loxodromic)
    assert v.tau_lower <= 1.0 <= v.tau_upper


def test_classify_ladder_shift(ladder_periodic):
    v = dy.classify_isometry(ladder_periodic, ladder_periodic.automorphisms["s"],
                             window=6, nmax=5)
    assert isinstance(v, dy.Loxodromic)
    assert v.tau_lower > 0


def test_classify_trivial_translation(trivial_periodic):
    t = PatternAutomorphism(trivial_periodic, IndexMap([1]), IndexMap([1]))
    v = dy.classify_isometry(trivial_periodic, t, window=5, nmax=4)
    assert isinstance(v, dy.Elliptic) and v.certificate == "bounded_orbit"


def test_classify_scalloped(scalloped):
    s = scalloped.automorphisms["s"]
    swap = scalloped.automorphisms["swap"]
    vs = dy.classify_isometry(scalloped, s, window=5, nmax=4)
    assert isinstance(vs, dy.Elliptic) and vs.certificate == "scalloped"
    vw = dy.classify_isometry(scalloped, swap, window=5, nmax=4)
    assert isinstance(vw, dy.Elliptic) and vw.certificate == "bounded_orbit"


def test_classify_scalloped_power(scalloped):
    s, swap = scalloped.automorphisms["s"], scalloped.automorphisms["swap"]
    # (s*swap)^2 = s^2 preserves the marked chain, so s*swap is elliptic
    v = dy.classify_isometry(scalloped, s.compose(swap), window=5, nmax=4)
    assert isinstance(v, dy.Elliptic) and v.certificate == "scalloped"


def test_classify_fixed_leaf(ladder_periodic):
    # a map fixing one full side: plus and minus both fixed => fixed crossing
    ident = dy.identity_automorphism(ladder_periodic)
    v = dy.classify_isometry(ladder_periodic, ident, window=4, nmax=3)
    assert isinstance(v, dy.Elliptic)
    assert v.certificate == "fixed_point"


def test_prop42_sandwich(ladder_periodic):
    # (m+2)(k-1)+2 >= d(B_0, B_k) >= k-1 with m the block diameter
    pp = ladder_periodic
    s = pp.automorphisms["s"]
    w = pp.materialize_window(-8, 8)
    ax = dy.axis(pp, s, "plus", (-8, 8))
    blocks = ax.blocks[1:-1]
    G = gr.build_graph(w, gr.XPLUS)
    m = max(gr.distance(G, b[0], b[-1]) for b in blocks)
    for k in range(1, 7):
        pairs = [(blocks[i], blocks[i + k]) for i in range(len(blocks) - k)]
        for B0, Bk in pairs[:3]:
            d = min(gr.distance(G, u, v) for u in B0 for v in Bk)
            assert k - 1 <= d <= (m + 2) * (k - 1) + 2, (k, d, m)


def test_wpd_scan_ladder(ladder_periodic):
    pp = ladder_periodic
    s = pp.automorphisms["s"]
    ax = dy.axis(pp, s, "plus", (-8, 8))
    scan = dy.wpd_scan(pp, s, "u0", eps=1.0, n=4, gens={"s": s}, radius=4,
                       window=8, axis_data=ax)
    assert scan.witnesses == ("id",)
    assert scan.stable
    assert scan.block_constraint_ok


@pytest.mark.parametrize("name", ["ladder_periodic", "skew2"])
def test_wpd_scan_enumerates_one_ball(name, monkeypatch):
    pp = load_fixture(name)
    s, gens = pp.automorphisms["s"], dict(pp.automorphisms)
    base = pp.leaf_of_index("plus", 0)
    radii = []

    def spy(gens_, ident, n, *args, **kw):
        radii.append(n)
        return word_ball(gens_, ident, n, *args, **kw)

    monkeypatch.setattr(dy, "word_ball", spy)
    scan = dy.wpd_scan(pp, s, base, 1.0, 4, gens, radius=2, window=8)
    assert radii == [4]
    # the witnesses of the two balls enumerated apart
    wit = [dy._wpd_witnesses(pp, s, base, 1.0, 4,
                             sorted(dy.automorphism_ball(pp, gens, r).values()), w)
           for r, w in ((2, 8), (4, 16))]
    assert scan.witnesses == wit[0]
    assert scan.stable == (wit[0] == wit[1])


def test_wpd_eps_zero(ladder_periodic):
    pp = ladder_periodic
    s = pp.automorphisms["s"]
    scan = dy.wpd_scan(pp, s, "u0", eps=0.0, n=4, gens={"s": s}, radius=3,
                       window=8)
    assert scan.witnesses == ()


def test_wpd_requires_loxodromic(scalloped):
    swap = scalloped.automorphisms["swap"]
    with pytest.raises(PreconditionError):
        dy.wpd_scan(scalloped, swap, "V0", eps=1.0, n=4,
                    gens=dict(scalloped.automorphisms), radius=2, window=6)


def test_block_fixing_maps_rejected(ladder_periodic):
    # an element fixing far-apart blocks would need to fix one family while
    # shifting another, which the nonseparation template forbids
    with pytest.raises(PreconditionError):
        PatternAutomorphism(ladder_periodic, IndexMap([0, 3, 3]),
                            IndexMap([3, 3, 3]))
    with pytest.raises(PreconditionError):
        PatternAutomorphism(ladder_periodic, IndexMap([3, 0, 3]),
                            IndexMap([3, 3, 3]))


def test_axis_prong_count_constant_per_window(skew2):
    # embedded-line axes carry finitely many dividing prongs per window;
    # the skew line carries none at every size
    s = skew2.automorphisms["s"]
    for w in ((-3, 3), (-6, 6)):
        ax = dy.axis(skew2, s, "plus", w)
        win = skew2.materialize_window(*w)
        prongs = [l for l in ax.leaves if win.leaf(l).is_singular]
        assert prongs == []


PERIODIC = ("ladder_periodic", "skew2", "skew3", "skew4", "scalloped",
            "trivial_periodic")


def test_automorphism_ball_elements_pass_the_check():
    # products and inverses are built unchecked; the checking constructor
    # must accept every one of them
    for nm in PERIODIC:
        pp = load_fixture(nm)
        ball = dy.automorphism_ball(pp, pp.automorphisms, 4)
        assert len(ball) > 1 or not pp.automorphisms
        for word, h in ball.values():
            PatternAutomorphism(pp, h.plus, h.minus)


def test_automorphism_ball_budget(trivial_periodic, monkeypatch):
    gens = {nm: PatternAutomorphism(trivial_periodic, IndexMap([a]),
                                    IndexMap([b]))
            for nm, (a, b) in (("a", (1, 1)), ("b", (0, 1)))}
    # a rank-two free abelian group: 2r^2 + 2r + 1 elements within radius r
    assert len(dy.automorphism_ball(trivial_periodic, gens, 16)) == 545
    monkeypatch.setenv("BIFOL_BUDGET_MS", "1")
    with pytest.raises(BudgetExceededError):
        dy.automorphism_ball(trivial_periodic, gens, 16)
