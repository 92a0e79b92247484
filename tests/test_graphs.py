import itertools

import pytest

from bifol.pattern import PLUS, Mode, PreconditionError, UnknownIdError
from bifol.periodic import generate
from bifol import graphs as gr
from bifol.randgen import random_pattern

from oracles import oracle_bfs_distance


def test_grid3_graphs(grid3):
    Gp = gr.build_graph(grid3, gr.XPLUS)
    assert set(Gp.vertices) == {"v0", "v1", "v2"}
    assert gr.diameter(Gp) == 1
    GX = gr.build_graph(grid3, gr.XFULL)
    assert gr.diameter(GX) == 2
    assert gr.distance(GX, "v0", "v1") == 2


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
    c12 = gr.synthetic_cycle(12)
    res = gr.bottleneck_certify(c12, 1)
    assert not res.passed and res.witness is not None


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
