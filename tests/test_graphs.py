import itertools
import random

import pytest

from bifol.pattern import (
    MINUS, PLUS, FinitePattern, Mode, PreconditionError, UnknownIdError,
)
from bifol.periodic import generate
from bifol import graphs as gr
from bifol.randgen import random_pattern

from oracles import (
    oracle_bfs_distance, oracle_bfs_row, oracle_bottleneck_certify,
    oracle_build_graph,
)


def test_grid3_graphs(grid3):
    Gp = gr.build_graph(grid3, gr.XPLUS)
    assert set(Gp.vertices) == {"v0", "v1", "v2"}
    assert gr.diameter(Gp) == 1
    GX = gr.build_graph(grid3, gr.XFULL)
    assert gr.diameter(GX) == 2
    assert gr.distance(GX, "v0", "v1") == 2


def test_graph_built_once_per_kind():
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    def fresh(name):
        p = load_fixture(name)
        return p.materialize_window(0, 4) if isinstance(p, PeriodicPattern) else p

    for name in sorted(MANIFEST):
        p, q = fresh(name), fresh(name)
        for kind in gr.KINDS:
            G = gr.build_graph(p, kind)
            assert gr.build_graph(p, kind.upper()) is G, (name, kind)
        # built on another pattern object, in the other order of kinds
        for kind in reversed(gr.KINDS):
            assert gr.build_graph(q, kind) == gr.build_graph(p, kind), (name, kind)
            assert gr.build_graph(q, kind) is not gr.build_graph(p, kind)


def _declaring(p, pairs):
    """A fresh copy of p declaring ``pairs`` nonseparated instead."""
    return FinitePattern(p.boundary, p.leaves.values(), p.singularities,
                         pairs, p.points.values())


def _differential_patterns():
    """Every shipped fixture (windows of the periodic ones: the scalloped
    windows hold leaves of two unlinked bands), seeded random patterns, the
    same random patterns declaring several legal nonseparated pairs, and the
    prong fixtures declaring same-family pairs that hold singular leaves.
    Those have no legal pair, but a declared pair with three or more faces
    is what the true-interval rows read differently, and their adjacency is
    defined all the same."""
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    for name in sorted(MANIFEST):
        p = load_fixture(name)
        if isinstance(p, PeriodicPattern):
            for lo, hi in ((0, 1), (-3, 3), (-6, 9)):
                yield f"{name} ({lo}, {hi})", p.materialize_window(lo, hi)
        else:
            yield name, p
    rng = random.Random(7)
    for seed in range(40):
        p = random_pattern(seed, max_leaves=8 + seed % 4 * 8)
        yield f"random {seed}", p
        legal = [(a, b) for a, b in itertools.combinations(sorted(p.leaves), 2)
                 if p.leaves[a].sign == p.leaves[b].sign
                 and not p._seps(a, b) and not p.common_transversal(a, b)]
        q = _declaring(p, rng.sample(legal, min(len(legal), 2 + seed % 4)))
        assert q.validate().ok, seed
        yield f"random {seed} declaring {len(q.nonseparated)} pairs", q
    for name in ("prong3", "prongchain2", "prongdiv", "prongnondiv"):
        p = load_fixture(name)
        for r in range(4):
            pairs = [pair for sign in (PLUS, MINUS) for pair in rng.sample(
                list(itertools.combinations(sorted(p.leaf_ids(sign)), 2)), 2)]
            yield f"{name} declaring {pairs}", _declaring(p, pairs)


@pytest.mark.parametrize("kind", [gr.XFULL, gr.XPLUS, gr.XMINUS,
                                  gr.GAMMAPLUS, gr.GAMMAMINUS])
def test_intersection_graphs_match_the_pairwise_oracle(kind):
    for name, p in _differential_patterns():
        G, want = gr.build_graph(p, kind), oracle_build_graph(p, kind)
        assert G.vertices == want.vertices, (name, kind)
        assert G.adj == want.adj, (name, kind)


def test_distance_identity_and_errors(grid3):
    G = gr.build_graph(grid3, gr.XPLUS)
    assert gr.distance(G, "v0", "v0") == 0
    with pytest.raises(UnknownIdError):
        gr.distance(G, "v0", "zz")


def test_distance_matches_oracle_everywhere():
    for seed in range(15):
        p = random_pattern(seed, max_leaves=14)
        for kind in (gr.XPLUS, gr.XMINUS, gr.XFULL):
            G = gr.build_graph(p, kind)
            for u, v in itertools.combinations(G.vertices, 2):
                d = gr.distance(G, u, v)
                o = oracle_bfs_distance(G.adj, u, v)
                assert (o is None and d == gr.INF) or d == o


def test_distance_rows_are_kept_on_the_graph():
    G = gr.build_graph(generate("trivial", 3), gr.XFULL)
    assert G.rows == {}
    row = gr.distances_from(G, "v0")
    assert gr.distances_from(G, "v0") is row and G.rows == {"v0": row}
    with pytest.raises(UnknownIdError, match="vertex 'zz' not in graph"):
        gr.distances_from(G, "zz")
    assert G.rows == {"v0": row}
    # the rows are left out of construction, equality and repr
    H = gr.LeafGraph(G.kind, G.vertices, G.adj)
    assert H == G and H.rows == {} and repr(H) == repr(G)


def test_rows_filled_by_the_reports_match_the_bfs_oracle():
    # the wall-metric, inclusion and bottleneck reports read their distances
    # off the rows kept on each graph; every stored row is a plain BFS row
    from bifol import walls as wl
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    patterns = []
    for name in sorted(MANIFEST):
        p = load_fixture(name)
        patterns.append((name, p.materialize_window(-3, 3)
                         if isinstance(p, PeriodicPattern) else p))
    patterns += [(f"random {seed}", random_pattern(seed, max_leaves=16))
                 for seed in range(20)]
    for name, p in patterns:
        wl.qi_metric_report(p)
        gr.qi_inclusion_report(p)
        for kind in gr.KINDS:
            gr.bottleneck_certify_components(gr.build_graph(p, kind), 3)
        for kind in gr.KINDS:
            G = gr.build_graph(p, kind)
            assert set(G.rows) == set(G.vertices), (name, kind)
            for src, row in G.rows.items():
                assert row == oracle_bfs_row(G.adj, src), (name, kind, src)


def test_singular_transversal_excluded(prong3):
    # sp and each plus satellite share only the singular minus leaf plus the
    # dedicated regular one; adjacency must come from the regular leaf
    G = gr.build_graph(prong3, gr.XPLUS)
    assert "sp" in G.adj["p0"]
    # satellites two sectors apart share no nonsingular transversal
    assert "p1" not in G.adj["p0"] or any(
        prong3.intersects(t, "p0") and prong3.intersects(t, "p1")
        for t in prong3.leaf_ids("minus") if not prong3.leaf(t).is_singular)


def test_gamma_contains_x(grid3, ladder2, chain3):
    for p in (grid3, ladder2, chain3):
        for xk, gk in ((gr.XPLUS, gr.GAMMAPLUS), (gr.XMINUS, gr.GAMMAMINUS)):
            GX, GG = gr.build_graph(p, xk), gr.build_graph(p, gk)
            assert set(GX.edges()) <= set(GG.edges())


def test_gamma_edge_iff_one_block(ladder3):
    G = gr.build_graph(ladder3, gr.GAMMAPLUS)
    for a, b in itertools.combinations(G.vertices, 2):
        expected = ladder3.pseudo_interval(a, b, Mode.NONSEP).is_interval
        assert (b in G.adj[a]) == expected


def test_ladder_gamma_distance():
    # endpoint distance equals the block count of the connecting interval
    for n in (2, 3, 5):
        p = generate("ladder", n)
        G = gr.build_graph(p, gr.GAMMAPLUS)
        assert gr.distance(G, "x", "y") == n


def test_project_path_single_edge(grid3):
    G = gr.build_graph(grid3, gr.XPLUS)
    assert gr.project_path(grid3, G, ["v0", "v2"]) == ("v0", "v1", "v2")
    assert gr.project_path(grid3, G, ["v0"]) == ("v0",)


def test_project_path_contains_interval(ladder3):
    G = gr.build_graph(ladder3, gr.XPLUS)
    # all geodesics from x to y contain the pseudo-interval
    dx = gr.distances_from(G, "x")
    dy = gr.distances_from(G, "y")
    dxy = dx["y"]
    interval = set(ladder3.pseudo_interval("x", "y").chain)

    def geodesics(u, path):
        if u == "y":
            yield path
            return
        for w in G.adj[u]:
            if dx[w] == dx[u] + 1 and dx[w] + dy[w] == dxy:
                yield from geodesics(w, path + [w])

    for g in geodesics("x", ["x"]):
        proj = gr.project_path(ladder3, G, g)
        assert interval <= set(proj)


def test_project_path_requires_adjacency(grid3):
    G = gr.build_graph(grid3, gr.XPLUS)
    H = gr.LeafGraph(G.kind, G.vertices, {v: frozenset() for v in G.vertices})
    with pytest.raises(PreconditionError):
        gr.project_path(grid3, H, ["v0", "v2"])


def test_geodesic_vertices_near_interval():
    # every geodesic vertex sits within 2 of the endpoint pseudo-interval
    for seed in range(12):
        p = random_pattern(seed, max_leaves=12)
        G = gr.build_graph(p, gr.XPLUS)
        dist = {v: gr.distances_from(G, v) for v in G.vertices}
        for x, y in itertools.combinations(G.vertices, 2):
            if y not in dist[x]:
                continue
            interval = set(p.pseudo_interval(x, y).chain)
            dxy = dist[x][y]
            for v in G.vertices:
                if dist[x].get(v, 10 ** 9) + dist[y].get(v, 10 ** 9) == dxy:
                    assert min(dist[v][w] for w in interval
                               if w in dist[v]) <= 2, (seed, x, y, v)


def test_bottleneck_fixture_pass(grid3, ladder2):
    for p in (grid3, ladder2):
        for kind in (gr.XPLUS, gr.XMINUS):
            G = gr.build_graph(p, kind)
            assert gr.bottleneck_certify_components(G, 3).passed


def test_bottleneck_requires_connected(loz1):
    G = gr.build_graph(loz1, gr.XPLUS)
    with pytest.raises(PreconditionError):
        gr.bottleneck_certify(G, 3)
    assert gr.bottleneck_certify_components(G, 3).passed


def test_cycle_fails_small_K():
    # a plain 12-cycle, a negative control for the bottleneck check
    v = tuple(f"v{i}" for i in range(12))
    c12 = gr.LeafGraph("x", v, {v[i]: frozenset({v[i - 1], v[(i + 1) % 12]})
                                for i in range(12)})
    res = gr.bottleneck_certify(c12, 1)
    assert not res.passed and res.witness is not None


def _bottleneck_graphs():
    """Every connected component of every graph kind of the fixtures, of
    small windows of the periodic ones and of 60 random patterns, and a
    12-cycle."""
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    patterns = []
    for name in sorted(MANIFEST):
        p = load_fixture(name)
        patterns.append((name, p.materialize_window(-3, 3)
                         if isinstance(p, PeriodicPattern) else p))
    patterns += [(f"random {seed}", random_pattern(seed, max_leaves=16))
                 for seed in range(60)]
    for name, p in patterns:
        for kind in gr.KINDS:
            G = gr.build_graph(p, kind)
            for comp in gr.connected_components(G):
                yield (name, kind, comp[0]), G.subgraph(comp)
    v = tuple(f"v{i}" for i in range(12))
    yield "c12", gr.LeafGraph("x", v, {v[i]: frozenset({v[i - 1], v[(i + 1) % 12]})
                                       for i in range(12)})


def test_components_are_certified_in_place():
    # every component of the whole graph, in place, against the oracle on
    # each component's subgraph: pair counts add up to the first failure
    from bifol.fixtures import MANIFEST, load_fixture
    from bifol.periodic import PeriodicPattern

    patterns = [load_fixture(name) for name in sorted(MANIFEST)]
    patterns = [p.materialize_window(-3, 3) if isinstance(p, PeriodicPattern)
                else p for p in patterns]
    patterns += [random_pattern(seed, max_leaves=16) for seed in range(30)]
    several = 0
    for p in patterns:
        for kind in gr.KINDS:
            G = gr.build_graph(p, kind)
            comps = gr.connected_components(G)
            assert sorted(v for c in comps for v in c) == sorted(G.vertices)
            assert all(set(gr.distances_from(G, c[0])) == set(c) for c in comps)
            several += len(comps) > 1
            for K in range(3):
                checked, want = 0, (True, None)
                for comp in comps:
                    ok, n, wit = oracle_bottleneck_certify(G.subgraph(comp), K)
                    checked += n
                    if not ok:
                        want = (False, wit)
                        break
                res = gr.bottleneck_certify_components(G, K)
                assert (res.passed, res.pairs_checked, res.witness) == \
                    (want[0], checked, want[1]), (kind, K)
    assert several >= 20


def test_bottleneck_matches_the_subgraph_oracle():
    # one component labelling per midpoint against a subgraph and a BFS per
    # (pair, midpoint): same verdict, count and witness
    failed = 0
    for name, G in _bottleneck_graphs():
        for K in range(4):
            res = gr.bottleneck_certify(G, K)
            want = oracle_bottleneck_certify(G, K)
            assert (res.passed, res.pairs_checked, res.witness) == want, (name, K)
            failed += not res.passed
    assert failed >= 40


def test_qi_inclusion(grid3, prong3, ladder3):
    for p in (grid3, prong3, ladder3):
        rep = gr.qi_inclusion_report(p)
        assert rep.ok, rep.violations
        assert rep.max_ratio <= 2.0


def test_qi_inclusion_tight_on_skew(skew2):
    w = skew2.materialize_window(0, 8)
    rep = gr.qi_inclusion_report(w)
    assert rep.ok
    assert rep.max_ratio == 2.0


def test_qi_inclusion_single_leaf():
    from bifol.pattern import FinitePattern, Leaf

    p = FinitePattern(["a", "b"], [Leaf("p0", PLUS, ("a", "b"))])
    assert p.validate().ok
    rep = gr.qi_inclusion_report(p)
    assert rep.ok and rep.pairs_checked == 0


def test_dividing_prong_distance():
    pd = generate("prongdiv")
    G = gr.build_graph(pd, gr.XPLUS)
    assert gr.distance(G, "x", "y") >= 2


def test_block_count_lower_bound(ladder2, ladder3):
    for p, n in ((ladder2, 2), (ladder3, 3)):
        G = gr.build_graph(p, gr.XPLUS)
        assert gr.distance(G, "x", "y") >= n - 1


def test_every_geodesic_vertex_near_every_path(ladder2, grid3):
    # each geodesic vertex lies within 3 of the vertex set of any path
    # joining the same endpoints
    for p in (grid3, ladder2):
        G = gr.build_graph(p, gr.XPLUS)
        dist = {v: gr.distances_from(G, v) for v in G.vertices}

        def simple_paths(u, t, seen):
            if u == t:
                yield [u]
                return
            for w in sorted(G.adj[u]):
                if w not in seen:
                    for rest in simple_paths(w, t, seen | {w}):
                        yield [u] + rest

        for x, y in itertools.combinations(G.vertices, 2):
            if y not in dist[x]:
                continue
            dxy = dist[x][y]
            geodesic_verts = [v for v in G.vertices
                              if dist[x].get(v, 10 ** 9)
                              + dist[y].get(v, 10 ** 9) == dxy]
            for path in simple_paths(x, y, {x}):
                pv = set(path)
                for v in geodesic_verts:
                    assert min(dist[v][w] for w in pv if w in dist[v]) <= 3


def test_graph_refusals_name_the_fault(grid3):
    with pytest.raises(PreconditionError, match="unknown graph kind 'nope'"):
        gr.build_graph(grid3, "nope")
    G = gr.build_graph(grid3, gr.XPLUS)
    with pytest.raises(PreconditionError, match="empty path"):
        gr.project_path(grid3, G, [])
    with pytest.raises(UnknownIdError, match="'zz' not in graph"):
        gr.project_path(grid3, G, ["v0", "zz"])


def test_minimal_bottleneck_constant_is_none_past_its_bound(grid3):
    G = gr.build_graph(grid3, "x")
    K = gr.minimal_bottleneck_constant(G)
    assert K is not None and K >= 1
    assert gr.minimal_bottleneck_constant(G, K - 1) is None
