"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here; expected values marked as frozen live in tests/data/expected_values.json
and were generated once by tests/gen_expected.py.
"""

import functools
import itertools
import json
import time
from pathlib import Path

import pytest

from bifol import census as cs
from bifol import dynamics as dy
from bifol import graphs as gr
from bifol import walls as wl
from bifol.cli import main as cli_main
from bifol.pattern import Mode, Point
from bifol.periodic import IndexMap, PatternAutomorphism, generate
from bifol.randgen import random_pattern

from oracles import oracle_pseudo_interval_set, all_monotone_paths, oracle_wall_sup

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "expected_values.json").read_text())

FIXDIR = Path(__file__).parent.parent / "src" / "bifol" / "fixtures"


def _criterion(n, tag):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            t0 = time.time()
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"FAIL criterion-{n} [{tag}]")
                raise
            print(f"PASS criterion-{n} [{tag}] ({time.time() - t0:.1f}s)")
        return wrapper
    return deco


def _acceptance_fixtures():
    """The shipped fixture list from criterion 1, with windows."""
    out = [("grid3", generate("trivial", 3)),
           ("loz1", generate("lozenge")),
           ("chain3", generate("chain", 3)),
           ("prong3", generate("prong", 3))]
    for W in (2, 3, 4):
        out.append((f"skew{W}w16", generate("skew", W).materialize_window(0, 16)))
    for n in range(2, 9):
        out.append((f"ladder{n}", generate("ladder", n)))
    for m in range(2, 7):
        out.append((f"sinestrip{m}", generate("sinestrip", m)))
    return out


@_criterion(1, "bottleneck-k3")
def test_criterion_1_bottleneck():
    t0 = time.time()
    kinds = (gr.XPLUS, gr.XMINUS, gr.GAMMAPLUS, gr.GAMMAMINUS)
    for name, p in _acceptance_fixtures():
        for kind in kinds:
            res = gr.bottleneck_certify_components(gr.build_graph(p, kind), 3)
            assert res.passed, (name, kind, res.witness)
        GX = gr.build_graph(p, gr.XFULL)
        K = gr.minimal_bottleneck_constant(GX, 8)
        assert K is not None and K <= 8, (name, K)
    for name, K in EXPECTED["bottleneck_K_for_x"].items():
        assert K <= 8
    for seed in range(200):
        p = random_pattern(seed, max_leaves=20)
        for kind in kinds:
            res = gr.bottleneck_certify_components(gr.build_graph(p, kind), 3)
            assert res.passed, ("random", seed, kind, res.witness)
    assert time.time() - t0 < 120, "criterion 1 must finish inside 2 minutes"


@_criterion(2, "graph-inclusion-qi")
def test_criterion_2_inclusion_inequalities():
    for name, p in _acceptance_fixtures():
        rep = gr.qi_inclusion_report(p)
        assert rep.ok, (name, rep.violations)
        assert rep.max_ratio <= 2.0, name


def _all_crossing_points(p, cap=40):
    pts = []
    ids = sorted(p.leaves)
    for a, b in itertools.combinations(ids, 2):
        if p.intersects(a, b):
            plus, minus = (a, b) if p.leaves[a].sign == "plus" else (b, a)
            pts.append(Point.crossing(f"q{len(pts)}", plus, minus))
            if len(pts) >= cap:
                return pts
    return pts


@_criterion(3, "wall-metric-qi")
def test_criterion_3_metric_graph_inequalities():
    for name, p in _acceptance_fixtures():
        pts = _all_crossing_points(p, cap=24)
        if len(pts) < 2:
            continue
        rep = wl.qi_metric_report(p, points=pts)
        assert rep.ok, (name, rep.violations[:3])
        # pairs in different window components are reported (legal
        # truncation artifacts); only the bare lozenge fixtures, which ship
        # without interior leaves, produce them
        if name not in ("loz1", "chain3"):
            assert rep.disconnected == (), (name, rep.disconnected[:3])


@_criterion(4, "metric-axioms")
def test_criterion_4_metric_axioms_and_witness_oracle():
    # metric axioms over all marked-point triples, five kinds, exact
    with_points = [("grid3", generate("trivial", 3)),
                   ("ladder2", generate("ladder", 2)),
                   ("ladder4", generate("ladder", 4)),
                   ("chain3", generate("chain", 3)),
                   ("prong3", generate("prong", 3)),
                   ("loz1", generate("lozenge")),
                   ("partlink", generate("partlink"))]
    for name, p in with_points:
        assert len(p.points) <= 30
        for kind in wl.KINDS:
            rep = wl.metric_axiom_check(p, kind)
            assert rep.ok, (name, kind, rep.violations)
    # witness sizes against the subset-enumeration oracle on small patterns
    small = [p for _, p in with_points if len(p.leaves) <= 12]
    small += [random_pattern(seed, max_leaves=12) for seed in range(10)]
    for p in small:
        pts = sorted(p.points)
        for a, b in itertools.combinations(pts, 2):
            for kind in wl.KINDS:
                wit = wl.longest_chain_witness(p, a, b, kind)
                assert len(wit.leaves) == oracle_wall_sup(p, a, b, kind)


@_criterion(5, "interval-decomposition")
def test_criterion_5_interval_oracle():
    pats = [generate("trivial", 3), generate("lozenge"), generate("chain", 3),
            generate("prong", 3), generate("prongdiv"), generate("prongchain"),
            generate("partlink"), generate("ladder", 2)]
    pats += [random_pattern(seed, max_leaves=12) for seed in range(20)]
    for p in pats:
        assert len(p.leaves) <= 12
        for sign in ("plus", "minus"):
            ids = sorted(p.leaf_ids(sign))
            for x, y in itertools.combinations(ids, 2):
                pi = p.pseudo_interval(x, y, Mode.NONSEP)
                pi2 = p.pseudo_interval(x, y, Mode.NONSEP)
                assert pi == pi2  # uniqueness / determinism
                assert set(pi.chain) == oracle_pseudo_interval_set(p, x, y)
                paths = all_monotone_paths(p, x, y)
                for block in pi.blocks:
                    for path in paths:
                        assert set(block) <= set(path)
                for b1, b2 in itertools.combinations(pi.blocks, 2):
                    assert not (set(b1) & set(b2))


@_criterion(6, "block-distance-bounds")
def test_criterion_6_ladder_and_prong_bounds():
    for n in range(2, 9):
        p = generate("ladder", n)
        d = gr.distance(gr.build_graph(p, gr.XPLUS), "x", "y")
        assert d >= n - 1, (n, d)
        assert d == EXPECTED["ladder_d_xplus"][str(n)], (n, d)
        dg = gr.distance(gr.build_graph(p, gr.GAMMAPLUS), "x", "y")
        assert dg == EXPECTED["ladder_d_gammaplus"][str(n)], (n, dg)
        assert dg >= p.pseudo_interval("x", "y").n_blocks - 1
    for name, row in EXPECTED["prong_chains"].items():
        kind = "prongchain" if name == "prongchain2" else "prongdiv"
        p = generate(kind)
        d = gr.distance(gr.build_graph(p, gr.XPLUS), "x", "y")
        assert d >= row["prongs"], (name, d)
        assert d == row["d_xplus"], (name, d)
        # a dividing prong forces distance at least two
        assert d >= 2


@_criterion(7, "projection-overlap-bounds")
def test_criterion_7_projection_and_overlap():
    pp = generate("ladder_periodic")
    s = pp.automorphisms["s"]
    w = pp.materialize_window(-6, 6)
    ax = dy.axis(pp, s, "plus", (-6, 6))
    G = gr.build_graph(w, gr.XPLUS)
    # Lemma 4.9 analogue: projection is closest up to the pair ambiguity
    for x in w.leaf_ids("plus"):
        try:
            pr = dy.project_to_pseudoline(w, ax.line, x)
        except dy.ProjectionUndefinedError:
            continue
        dpr = min(gr.distance(G, x, q) for q in pr)
        for y in ax.leaves:
            assert dpr <= gr.distance(G, x, y), (x, y)
    # Lemma 4.10 analogue with the quoted constants
    eps = 4.0
    a, b = ax.leaves[0], ax.leaves[-1]
    assert gr.distance(G, a, b) > 4 * eps + 5
    rep = dy.overlap_interval(w, ax.line, a, b, s, eps)
    assert all(v <= 2 * eps + 2 for v in rep.bounds.values()), rep.bounds
    ident = s.compose(s.inverse())
    rep0 = dy.overlap_interval(w, ax.line, a, b, ident, eps)
    assert set(rep0.interval) == set(w.pseudo_interval(a, b).chain)
    assert all(v <= 2 * eps + 2 for v in rep0.bounds.values())
    with pytest.raises(Exception):
        dy.overlap_interval(w, ax.line, ax.leaves[0], ax.leaves[1], ident, eps)
    # Lemma 4.6 analogue: induced end blocks shift by at most one
    blocks = ax.blocks
    idx_of = {l: i for i, b in enumerate(blocks) for l in b}
    whole = [set(b) for b in blocks]
    for x, y in itertools.combinations(ax.leaves, 2):
        if idx_of[y] - idx_of[x] < 2:
            continue
        sub = dy.induced_blocks(w, ax, x, y)
        for piece in sub[1:-1]:
            assert set(piece) in whole
        ii = next(k for k, bl in enumerate(whole) if set(sub[0]) <= bl)
        jj = next(k for k, bl in enumerate(whole) if set(sub[-1]) <= bl)
        assert abs(ii - idx_of[x]) <= 1 and abs(jj - idx_of[y]) <= 1
    # skew windows: the single-block line projects trivially and exactly
    sk = generate("skew", 2)
    wsk = sk.materialize_window(-5, 5)
    axk = dy.axis(sk, sk.automorphisms["s"], "plus", (-5, 5))
    Gk = gr.build_graph(wsk, gr.XPLUS)
    for x in axk.leaves:
        assert dy.project_to_pseudoline(wsk, axk.line, x) == (x,)
    for x, y in itertools.combinations(axk.leaves, 2):
        assert dy.induced_blocks(wsk, axk, x, y) == \
            wsk.pseudo_interval(x, y).blocks


@_criterion(8, "isometry-classification")
def test_criterion_8_theorem_E():
    # loxodromics
    sk = generate("skew", 2)
    v = dy.classify_isometry(sk, sk.automorphisms["s"], window=8, nmax=6)
    assert isinstance(v, dy.Loxodromic) and v.tau_lower > 0
    assert v.tau_lower <= 1.0 <= v.tau_upper

    lp = generate("ladder_periodic")
    s = lp.automorphisms["s"]
    v = dy.classify_isometry(lp, s, window=8, nmax=6)
    assert isinstance(v, dy.Loxodromic) and v.tau_lower > 0
    # sandwich bound around block distances for k <= 6
    w = lp.materialize_window(-8, 8)
    ax = dy.axis(lp, s, "plus", (-8, 8))
    blocks = ax.blocks[1:-1]
    G = gr.build_graph(w, gr.XPLUS)
    m = max(gr.distance(G, b[0], b[-1]) for b in blocks)
    for k in range(1, 7):
        for i in range(len(blocks) - k):
            d = min(gr.distance(G, u, vv)
                    for u in blocks[i] for vv in blocks[i + k])
            assert k - 1 <= d <= (m + 2) * (k - 1) + 2, (k, d)

    # elliptics: fixed point, fixed leaf, scalloped invariance, bounded orbit
    sc = generate("scalloped")
    ver = dy.classify_isometry(sc, sc.automorphisms["s"], window=5, nmax=4)
    assert isinstance(ver, dy.Elliptic) and ver.certificate == "scalloped"
    ver = dy.classify_isometry(sc, sc.automorphisms["swap"], window=5, nmax=4)
    assert isinstance(ver, dy.Elliptic) and ver.certificate == "bounded_orbit"
    tv = generate("trivial_periodic")
    t = PatternAutomorphism(tv, IndexMap([1]), IndexMap([1]))
    ver = dy.classify_isometry(tv, t, window=5, nmax=4)
    assert isinstance(ver, dy.Elliptic) and ver.certificate == "bounded_orbit"
    half = PatternAutomorphism(tv, IndexMap([0]), IndexMap([1]))
    ver = dy.classify_isometry(tv, half, window=5, nmax=4)
    assert isinstance(ver, dy.Elliptic) and ver.certificate == "fixed_leaf"
    ident = dy.identity_automorphism(lp)
    ver = dy.classify_isometry(lp, ident, window=5, nmax=4)
    assert isinstance(ver, dy.Elliptic) and ver.certificate == "fixed_point"

    # totality: no fixture element is inconclusive at window >= 4 periods
    cases = [(sk, sk.automorphisms["s"]), (sk, sk.automorphisms["s"].inverse()),
             (sk, sk.automorphisms["s"].power(2)),
             (lp, s), (lp, s.inverse()), (lp, s.power(2)),
             (sc, sc.automorphisms["s"]), (sc, sc.automorphisms["swap"]),
             (sc, sc.automorphisms["s"].compose(sc.automorphisms["swap"])),
             (tv, t), (tv, half), (lp, ident)]
    for pp, g in cases:
        ver = dy.classify_isometry(pp, g, window=4, nmax=4)
        assert not isinstance(ver, dy.Inconclusive), (pp.name, g.name)


@_criterion(9, "census-trivial")
def test_criterion_9_trivial_census():
    t0 = time.time()
    S = cs.trivial_affine_gens()
    rep = cs.growth_report(S, 10)
    st = rep.stats
    exp = EXPECTED["census"]["trivial"]
    assert list(st.ball) == exp["balls"]
    assert list(st.free) == exp["free"]
    # free elements are exactly the nonzero translations
    ball = cs.enumerate_ball(S, 10)
    for _, (el, _r) in ball.items():
        is_free = cs.classify_fixed_free(S.model, el) == cs.FREE
        assert is_free == (el.k == 0 and el.v != (0, 0))
    fracs = [st.free[n] / st.ball[n] for n in range(11)]
    assert all(fracs[n + 1] < fracs[n] for n in range(3, 10))
    assert st.lambda_hat[10] >= 0.3
    # polynomial growth of the free part in its own word metric; the ambient
    # ball intersection is exponentially distorted and frozen as data
    assert rep.loglog_slope_intrinsic <= 2.5
    assert abs(rep.loglog_slope_intrinsic
               - exp["loglog_slope_free_intrinsic"]) < 1e-6
    assert abs(rep.loglog_slope_free - exp["loglog_slope_free_ambient"]) < 1e-6
    assert st.lambda_free[10] < st.lambda_hat[10]
    assert time.time() - t0 < 180, "criterion 9 must finish inside 3 minutes"


@_criterion(10, "census-skew")
def test_criterion_10_skew_census():
    t0 = time.time()
    S = cs.skew_intmap_gens()
    h = cs.skew_designated_shift()
    assert all(o >= h.N + 1 for o in h.offsets)
    rep = cs.genericity_report(S, h, 8)
    exp = EXPECTED["census"]["skew"]
    assert rep.dichotomy_ok, "g or hg must act freely for the whole ball"
    assert rep.R == exp["R"] and rep.K == exp["K"] and rep.L == exp["L"]
    assert rep.fraction_bound_ok
    st = cs.ball_stats(S, 8)
    assert list(st.ball) == exp["balls"]
    assert list(st.free) == exp["free"]
    assert st.doubling_ok
    for n in range(8):
        assert st.ball[n + 1] - st.ball[n] <= 2 * S.size * st.ball[n]
    assert time.time() - t0 < 120, "criterion 10 must finish inside 2 minutes"


@_criterion(11, "determinism")
def test_criterion_11_determinism(tmp_path):
    runs = []
    for i in (1, 2):
        r1 = tmp_path / f"census{i}.json"
        r2 = tmp_path / f"bottleneck{i}.json"
        r3 = tmp_path / f"classify{i}.json"
        assert cli_main(["--report", str(r1), "--seed", "11", "census",
                         "--model", "trivial", "--nmax", "6"]) == 0
        assert cli_main(["--report", str(r2), "--seed", "11", "bottleneck",
                         "--in", str(FIXDIR / "grid3.json"), "--K", "3"]) == 0
        assert cli_main(["--report", str(r3), "--seed", "11", "classify",
                         "--pattern", str(FIXDIR / "ladder_periodic.json"),
                         "--element", "s", "--window", "6", "--nmax", "5"]) == 0
        runs.append((r1.read_bytes(), r2.read_bytes(), r3.read_bytes()))
    assert runs[0] == runs[1]
