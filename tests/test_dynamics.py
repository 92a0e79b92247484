import itertools
from fractions import Fraction

import pytest

from bifol.pattern import MINUS, PLUS, Mode, PreconditionError, UsageError
from bifol.periodic import (
    BOT, Family, IndexMap, NonsepTemplate, PatternAutomorphism,
    PeriodicPattern, Track, ladder_periodic,
)
from bifol import dynamics as dy
from bifol import graphs as gr
from bifol.census import BudgetExceededError, word_ball
from bifol.fixtures import MANIFEST, load_fixture

from oracles import (
    geometric_separates_leaves, oracle_axis, oracle_window_verdict,
    oracle_wpd_scan,
)


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


def test_axes_are_chains_from_their_least_id_end():
    # every periodic fixture's elements (a unit translation for
    # trivial_periodic, which declares none) with their inverse, square and
    # cube, both signs, windows of 5 to 25 blocks and one off centre; each
    # axis is judged by the chords' geometry, not by the relation table
    checked = 0
    for name in sorted(MANIFEST):
        pp = load_fixture(name)
        if not isinstance(pp, PeriodicPattern):
            continue
        gens = list(pp.automorphisms.values()) or [
            PatternAutomorphism(pp, IndexMap([1]), IndexMap([1]))]
        for g, sign, window in itertools.product(
                gens, (PLUS, MINUS), [(-2, 2), (-4, 4), (-6, 6), (-8, 8),
                                      (-3, 7), (-12, 12)]):
            g2 = g.compose(g)
            for h in (g, g.inverse(), g2, g2.compose(g)):
                try:
                    ax = dy.axis(pp, h, sign, window)
                except PreconditionError:
                    continue
                w, hinv = pp.materialize_window(*window), h.inverse()
                leaves, case = ax.leaves, (name, h.plus.offsets, sign, window)
                on_axis = [l for l in w.leaf_ids(sign)
                           if h.act(l) in w.leaves and hinv.act(l) in w.leaves
                           and geometric_separates_leaves(w, l, hinv.act(l),
                                                          h.act(l))]
                assert sorted(leaves) == sorted(on_axis), case
                assert leaves[0] <= leaves[-1], case
                for a, m, c in zip(leaves, leaves[1:], leaves[2:]):
                    assert geometric_separates_leaves(w, m, a, c), \
                        (case, a, m, c)
                checked += 1
    assert checked == 276  # of 336: the rest fix a leaf or miss the window


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


def test_complete_graph_is_diameter_at_most_one():
    # classify's "diameter one" stage reads degrees, not a BFS per vertex:
    # same answer as gr.diameter on every graph kind of the fixtures and
    # their windows, and on a complete graph with and without one edge
    from bifol.fixtures import MANIFEST
    graphs = []
    for name in sorted(MANIFEST):
        p = load_fixture(name)
        windows = ([p.materialize_window(-w, w) for w in (1, 2, 4)]
                   if isinstance(p, PeriodicPattern) else [p])
        graphs += [gr.build_graph(fp, kind) for fp in windows for kind in gr.KINDS]
    v = tuple("abcde")
    for drop in (None, ("a", "b")):
        graphs.append(gr.LeafGraph("x", v, {x: frozenset(
            y for y in v if y != x and {x, y} != set(drop or ())) for x in v}))
    graphs.append(gr.LeafGraph("x", ("a",), {"a": frozenset()}))
    graphs.append(gr.LeafGraph("x", ("a", "b"), dict.fromkeys("ab", frozenset())))
    verdicts = [dy._complete(G) for G in graphs]
    assert verdicts == [gr.diameter(G) <= 1 for G in graphs]
    assert 10 <= sum(verdicts) < len(graphs) - 10


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


def test_classify_orbit_leaving_the_base_component_is_inconclusive(
        ladder_periodic):
    # s^2 moves the base leaf out of the window (-1, 1) at its first step,
    # so no power up to nmax brings it back to the base component
    s = ladder_periodic.automorphisms["s"]
    v = dy.classify_isometry(ladder_periodic, s.power(2), window=1)
    assert v == dy.Inconclusive("orbit leaves the base component in this window")


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
    wit = [dy._wpd_witnesses(pp.materialize_window(-w, w), s, base, 1.0, 4,
                             sorted(dy.automorphism_ball(pp, gens, r).values()))
           for r, w in ((2, 8), (4, 16))]
    assert scan.witnesses == wit[0]
    assert scan.stable == (wit[0] == wit[1])


@pytest.mark.parametrize("name", ["ladder_periodic", "skew2"])
def test_wpd_scan_builds_each_window_once(name, monkeypatch):
    # classification and the witness scan share the window (-8, 8), and so
    # its memoized xplus graph
    pp = load_fixture(name)
    s = pp.automorphisms["s"]
    windows = []
    materialize = PeriodicPattern.materialize_window

    def spy(self, lo, hi):
        windows.append((lo, hi))
        return materialize(self, lo, hi)

    monkeypatch.setattr(PeriodicPattern, "materialize_window", spy)
    dy.wpd_scan(pp, s, pp.leaf_of_index("plus", 0), 1.0, 4, {"s": s},
                radius=2, window=8)
    assert windows == [(-8, 8), (-16, 16)]


def test_wpd_scan_refuses_a_doubled_window_before_building_any(monkeypatch):
    # (-700, 700) holds 8406 leaves, (-1400, 1400) 16806: past the limit
    pp = load_fixture("ladder_periodic")
    s = pp.automorphisms["s"]
    built = []
    monkeypatch.setattr(PeriodicPattern, "materialize_window",
                        lambda self, lo, hi: built.append((lo, hi)))
    with pytest.raises(UsageError, match=r"window \(-1400, 1400\) would hold "
                                         r"16806 leaves"):
        dy.wpd_scan(pp, s, "u0", 1.0, 4, {"s": s}, radius=2, window=700)
    assert built == []


def test_wpd_scan_keeps_at_most_two_rows_per_window(monkeypatch):
    # each window's witness scan reads the rows of base and tip, kept on its
    # xplus graph, however many candidates it measures
    pp = load_fixture("ladder_periodic")
    s, gens = pp.automorphisms["s"], dict(pp.automorphisms)
    built = []
    materialize = PeriodicPattern.materialize_window

    def spy(self, lo, hi):
        built.append(materialize(self, lo, hi))
        return built[-1]

    monkeypatch.setattr(PeriodicPattern, "materialize_window", spy)
    dy.wpd_scan(pp, s, pp.leaf_of_index("plus", 0), 1.0, 8, gens, radius=4,
                window=8)
    assert len(built) == 2
    for p in built:
        assert 1 <= len(gr.build_graph(p, gr.XPLUS).rows) <= 2


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


def test_classify_nmax_below_two_builds_no_window(ladder_periodic, monkeypatch):
    s = ladder_periodic.automorphisms["s"]
    built = []
    monkeypatch.setattr(PeriodicPattern, "materialize_window",
                        lambda *args: built.append(args))
    for nmax in (0, 1):
        v = dy.classify_isometry(ladder_periodic, s, window=8, nmax=nmax)
        assert v == dy.Inconclusive(
            f"nmax {nmax} is below 2: a displacement bracket needs at least "
            f"two displacements")
    assert built == []
    # certificates that need no window still win
    ident = dy.identity_automorphism(ladder_periodic)
    assert dy.classify_isometry(ladder_periodic, ident, nmax=0).kind == "elliptic"


def _ladder_band(suffix, bot, top):
    """ladder_periodic's plus and minus families, suffixed, on the tracks
    bot and top."""
    lp = ladder_periodic()
    return [[Family(f.name + suffix, f.sign, tuple(
        (bot if t == BOT else top, v) for t, v in f.endpoints))
        for f in fams] for fams in (lp.plus_families, lp.minus_families)]


def two_band():
    """Two copies of ladder_periodic's families on separate track pairs, as
    scalloped_periodic lays its bands, the second suffixed "b".  g moves both
    bands by one block and h only the second."""
    (p1, m1), (p2, m2) = (_ladder_band("", "bota", "topa"),
                          _ladder_band("b", "botb", "topb"))
    return PeriodicPattern(
        (Track("bota", 1), Track("botb", -1), Track("topb", 1),
         Track("topa", -1)), p1 + p2, m1 + m2,
        nonsep=(NonsepTemplate("u", "w", 0), NonsepTemplate("ub", "wb", 0)),
        name="two_band", automorphisms={"g": ([6] * 6, [6] * 6),
                                        "h": ([0, 0, 0, 6, 6, 6],) * 2})


def ladder_beside_grid():
    """ladder_periodic's families beside a grid band, trivial_periodic's
    families renamed x (plus) and y (minus), where every x crosses every y.
    g moves both bands by one block; h moves every leaf but the y, so it
    fixes leaves of one sign only.  y is listed first, so its residue is
    that of the ladder's u."""
    plus, minus = _ladder_band("", "bota", "topa")
    return PeriodicPattern(
        (Track("bota", 1), Track("n", 1), Track("e", 1), Track("s", -1),
         Track("w", -1), Track("topa", -1)),
        plus + [Family("x", PLUS, (("n", Fraction(0)), ("s", Fraction(0))))],
        [Family("y", MINUS, (("e", Fraction(0)), ("w", Fraction(0))))] + minus,
        nonsep=(NonsepTemplate("u", "w", 0),), name="ladder_beside_grid",
        automorphisms={"g": ([4] * 4, [4] * 4), "h": ([4] * 4, [0, 4, 4, 4])})


def test_wpd_block_check_refuses_an_element_fixing_a_far_block():
    # h fixes the whole first band, which the axis of g runs along for more
    # than one block, so the block constraint fails
    pp = two_band()
    g = pp.automorphisms["g"]
    scan = dy.wpd_scan(pp, g, "u0", 1.0, 4, pp.automorphisms, radius=2,
                       window=6, axis_data=dy.axis(pp, g, "plus", (-6, 6)))
    assert scan.block_checked
    assert not scan.block_constraint_ok
    assert scan.witnesses == ("h", "h*h", "h^-1", "h^-1*h^-1", "id")


def _dynamics_cases():
    """(pattern, named elements, element) for every periodic fixture, the
    two-band pattern and the ladder beside a grid, over the named elements and their inverses, squares
    and cubes.  trivial_periodic declares none; it gets a unit translation t
    and u, which moves the plus leaves and fixes the minus ones."""
    patterns = [load_fixture(nm) for nm in sorted(MANIFEST)]
    patterns += [two_band(), ladder_beside_grid()]
    for pp in patterns:
        if not isinstance(pp, PeriodicPattern):
            continue
        gens = dict(pp.automorphisms) or {
            nm: PatternAutomorphism(pp, IndexMap([1]), IndexMap([m]), nm)
            for nm, m in (("t", 1), ("u", 0))}
        for g in gens.values():
            g2 = g.compose(g)
            for h in (g, g.inverse(), g2, g2.compose(g)):
                yield pp, gens, h


def test_axes_verdicts_and_wpd_scans_match_the_act_oracles():
    # the index-map code against the same computations moving leaf names
    # with PatternAutomorphism.act, over both signs and six windows; the
    # scans' block checks see candidates that fix leaves of one sign only
    counts = {"axis": 0, "verdict": 0, "wpd": 0}
    for pp, gens, h in _dynamics_cases():
        for sign, window in itertools.product(
                (PLUS, MINUS), [(-2, 2), (-4, 4), (-6, 6), (-8, 8), (-3, 7),
                                (-12, 12)]):
            case = (pp.name, h.plus.offsets, h.minus.offsets, sign, window)
            try:
                ax = dy.axis(pp, h, sign, window)
            except PreconditionError:
                ax = None
            want = oracle_axis(pp, h, sign, window)
            assert (ax and (ax.leaves, ax.period_blocks)) == want, case
            counts["axis"] += ax is not None
            w = window[1]
            if sign == MINUS or window[0] != -w:
                continue
            for nmax in (2, 3, 8):
                verdict = dy.classify_isometry(pp, h, window=w, nmax=nmax)
                want = dy._algebraic_verdict(pp, h) or \
                    oracle_window_verdict(pp, h, w, nmax)
                assert verdict == want, (case, nmax)
                counts["verdict"] += 1
            if verdict.kind != "loxodromic" or w > 8:
                continue
            base = pp.leaf_of_index(PLUS, 0)
            for axis_sign, radius in itertools.product((PLUS, MINUS), (1, 2)):
                try:
                    ax = dy.axis(pp, h, axis_sign, window)
                except PreconditionError:
                    ax = None
                scan = dy.wpd_scan(pp, h, base, 2.0, 4, gens, radius=radius,
                                   window=w, axis_data=ax)
                assert scan == oracle_wpd_scan(pp, h, base, 2.0, 4, gens,
                                               radius, w, ax), \
                    (case, axis_sign, radius)
                counts["wpd"] += 1
    assert counts == {"axis": 414, "verdict": 720, "wpd": 296}


def test_wpd_witnesses_name_a_base_outside_the_window(ladder_periodic):
    p = ladder_periodic.materialize_window(-2, 2)
    with pytest.raises(PreconditionError,
                       match="base vertex 'u5' outside window"):
        dy._wpd_witnesses(p, ladder_periodic.automorphisms["s"], "u5", 1.0, 2,
                          [])


def test_line_and_overlap_refusals(grid3, ladder_periodic):
    A = dy.PseudoLine(("v0", "v2"), frozenset())
    with pytest.raises(PreconditionError, match="a leaf of the line's family"):
        dy.project_to_pseudoline(grid3, A, "h1")
    # v1 lies between the line's two leaves, which are not nonseparated
    with pytest.raises(dy.ProjectionUndefinedError, match="projection of v1"):
        dy.project_to_pseudoline(grid3, A, "v1")
    pp = ladder_periodic
    s = pp.automorphisms["s"]
    w = pp.materialize_window(-6, 6)
    ax = dy.axis(pp, s, "plus", (-6, 6))
    with pytest.raises(PreconditionError, match="must lie on the axis"):
        dy.induced_blocks(w, ax, "u0", "r0")
    # d(u-5, u5) = 30 > 4 eps + 5, but s moves u-5 by 3
    with pytest.raises(PreconditionError, match="measured 3, 3"):
        dy.overlap_interval(w, ax.line, "u-5", "u5", s, 0.5)
    # onto a line of one leaf past u5, the projections miss [u-5, u5]
    with pytest.raises(PreconditionError, match="overlap interval is empty"):
        dy.overlap_interval(w, dy.PseudoLine(("w5",), frozenset()), "u-5",
                            "u5", s.compose(s.inverse()), 1.0)
