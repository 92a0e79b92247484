"""Leaf graphs of a pattern: intersection graphs, the true-interval graphs,
distances, path projection, bottleneck certification and the inclusion
quasi-isometry check.

Five kinds are supported.  In the one-family graphs two leaves are adjacent
when a common nonsingular leaf of the other family crosses both; in the full
graph adjacency is crossing itself; in the true-interval graphs two leaves
are adjacent when nothing but an honest interval lies between them.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from .pattern import (
    PLUS, MINUS, FinitePattern, Mode, PreconditionError, UnknownIdError,
    _bits,
)

XPLUS, XMINUS, XFULL = "xplus", "xminus", "x"
GAMMAPLUS, GAMMAMINUS = "gammaplus", "gammaminus"
KINDS = (XPLUS, XMINUS, XFULL, GAMMAPLUS, GAMMAMINUS)

INF = math.inf


@dataclass(frozen=True)
class LeafGraph:
    kind: str
    vertices: tuple[str, ...]
    adj: dict  # vertex -> frozenset of neighbours
    rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def edges(self):
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]

    def subgraph(self, keep) -> "LeafGraph":
        keep = set(keep)
        return LeafGraph(self.kind, tuple(v for v in self.vertices if v in keep),
                         {v: frozenset(self.adj[v] & keep)
                          for v in self.vertices if v in keep})


def build_graph(p: FinitePattern, kind: str) -> LeafGraph:
    """The leaf graph of one kind, built once per pattern and kept in it;
    every caller shares it, so nobody may change it."""
    kind = kind.lower()
    if kind not in KINDS:
        raise PreconditionError(f"unknown graph kind {kind!r}")
    if kind in p._graphs:
        return p._graphs[kind]
    if kind in (GAMMAPLUS, GAMMAMINUS):
        verts = sorted(p.leaf_ids(PLUS if kind == GAMMAPLUS else MINUS))
        adj = {v: set() for v in verts}
        for a, b in itertools.combinations(verts, 2):
            if not p._breaks(a, b):
                adj[a].add(b)
                adj[b].add(a)
    else:
        adj = _x_rows(p, kind)
        verts = sorted(adj)
    G = p._graphs[kind] = LeafGraph(kind, tuple(verts),
                                    {v: frozenset(adj[v]) for v in verts})
    return G


def _x_rows(p: FinitePattern, kind: str) -> dict:
    """Vertex -> neighbours in an X graph: ``cross[v]``, or for one family
    the OR of ``cross[m]`` over the nonsingular m crossing v."""
    t = p._table
    if kind == XFULL:
        return {v: p._ids_of(t.cross[v]) for v in t.ids}
    cross, rows = [t.cross[m] for m in t.ids], {}
    for i in _bits(t.plus if kind == XPLUS else t.minus):
        row = 0
        for m in _bits(cross[i] & t.nonsingular):
            row |= cross[m]
        rows[t.ids[i]] = p._ids_of(row & ~(1 << i))
    return rows


def distances_from(G: LeafGraph, src: str) -> dict:
    """BFS distances from src, kept in G.rows: shared, so nobody may change them."""
    if src in G.rows:
        return G.rows[src]
    if src not in G.adj:
        raise UnknownIdError(f"vertex {src!r} not in graph")
    dist = G.rows[src] = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in G.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def distance(G: LeafGraph, u: str, v: str):
    if v not in G.adj:
        raise UnknownIdError(f"vertex {v!r} not in graph")
    return distances_from(G, u).get(v, INF)


def diameter(G: LeafGraph):
    best = 0
    for v in G.vertices:
        d = distances_from(G, v)
        if len(d) < len(G.vertices):
            return INF
        best = max(best, max(d.values(), default=0))
    return best


def connected_components(G: LeafGraph) -> list[tuple[str, ...]]:
    """The groups of one labelling, each in vertex order, by first vertex."""
    comps, lab = {}, _components_off(G, (), G.vertices)
    for v in G.vertices:
        comps.setdefault(lab[v], []).append(v)
    return [tuple(c) for c in comps.values()]


def project_path(p: FinitePattern, G: LeafGraph, path) -> tuple[str, ...]:
    """Ordered union of the separator intervals spanned by the edges of a
    path in a one-family intersection graph.  Independent of how each edge is
    realized, because separator sets between adjacent leaves are canonical."""
    path = list(path)
    if not path:
        raise PreconditionError("empty path")
    for v in path:
        if v not in G.adj:
            raise UnknownIdError(f"vertex {v!r} not in graph")
    out = [path[0]]
    for u, v in zip(path, path[1:]):
        if v not in G.adj[u]:
            raise PreconditionError(f"{u} and {v} are not adjacent")
        seg = p.pseudo_interval(u, v, Mode.NONSEP).chain
        for leaf in seg[1:]:
            if leaf != out[-1]:
                out.append(leaf)
    return tuple(out)


@dataclass(frozen=True)
class BottleneckWitness:
    x: str
    y: str
    midpoint: str


@dataclass(frozen=True)
class BottleneckResult:
    passed: bool
    K: int
    pairs_checked: int
    witness: BottleneckWitness | None


def bottleneck_certify(G: LeafGraph, K: int) -> BottleneckResult:
    """Quasi-tree certificate: for every even geodesic pair and every geodesic
    midpoint v, removing the closed K-ball around v must disconnect the
    endpoints.  Exact equivalence with "every path meets the ball" holds on
    finite graphs."""
    comps = connected_components(G)
    if len(comps) > 1:
        raise PreconditionError("bottleneck certification requires a connected graph")
    return _certify(G, comps, K)


def bottleneck_certify_components(G: LeafGraph, K: int) -> BottleneckResult:
    """Certify each connected component separately, in place; disconnected
    windows are legal truncation artifacts."""
    return _certify(G, connected_components(G), K)


def _certify(G: LeafGraph, comps: list, K: int) -> BottleneckResult:
    """The certificate on each component in turn, to the first failure.  A
    component minus the ball of a midpoint is labelled once, when a pair first
    asks about it, so each (pair, midpoint) check compares two labels."""
    checked = 0
    for comp in comps:
        labels = {}  # midpoint -> component label of each vertex, None in its ball
        for i, x in enumerate(comp):
            dx = distances_from(G, x)
            for y in comp[i + 1:]:
                dxy = dx[y]
                if dxy % 2 or dxy == 0:
                    continue
                r, dy = dxy // 2, distances_from(G, y)
                mids = [v for v in comp if dx.get(v) == r and dy.get(v) == r]
                for v in mids:
                    checked += 1
                    lab = labels.get(v)
                    if lab is None:
                        lab = labels[v] = _components_off(
                            G, [w for w, d in distances_from(G, v).items()
                                if d <= K], comp)
                    if lab[x] is not None and lab[x] == lab[y]:
                        return BottleneckResult(False, K, checked,
                                                BottleneckWitness(x, y, v))
    return BottleneckResult(True, K, checked, None)


def _components_off(G: LeafGraph, removed, seeds) -> dict:
    """Vertex -> a vertex naming its component of G minus ``removed``, and
    None for the removed vertices, over the components holding ``seeds``."""
    lab = dict.fromkeys(removed)
    for s in seeds:
        if s in lab:
            continue
        lab[s] = s
        stack = [s]
        while stack:
            for w in G.adj[stack.pop()]:
                if w not in lab:
                    lab[w] = s
                    stack.append(w)
    return lab


def minimal_bottleneck_constant(G: LeafGraph, K_max: int = 16):
    """Smallest K <= K_max for which every component certifies, or None."""
    for K in range(K_max + 1):
        if bottleneck_certify_components(G, K).passed:
            return K
    return None


@dataclass(frozen=True)
class InclusionReport:
    pairs_checked: int
    violations: tuple
    max_ratio: float  # max d_X / d_sign over finite pairs

    @property
    def ok(self):
        return not self.violations


def qi_inclusion_report(p: FinitePattern) -> InclusionReport:
    """Check d_sign(v,w) <= d_X(v,w) <= 2 d_sign(v,w) over all same-sign
    pairs, both signs."""
    GX = build_graph(p, XFULL)
    violations = []
    checked = 0
    max_ratio = 0.0
    for kind, sign in ((XPLUS, PLUS), (XMINUS, MINUS)):
        G = build_graph(p, kind)
        for v in G.vertices:
            dv, dxv = distances_from(G, v), distances_from(GX, v)
            for w in G.vertices:
                if w <= v:
                    continue
                checked += 1
                ds = dv.get(w, INF)
                dx = dxv.get(w, INF)
                if ds == INF and dx == INF:
                    continue
                if not (ds <= dx <= 2 * ds):
                    violations.append((kind, v, w, ds, dx))
                elif ds > 0:
                    max_ratio = max(max_ratio, dx / ds)
    return InclusionReport(checked, tuple(violations), max_ratio)


def windowed_distance(pp, kind: str, u: str, v: str, window: tuple[int, int]):
    """Distance inside a materialized window, with a stability flag: True
    when doubling the window leaves the value unchanged.  Window values are
    upper bounds for the infinite pattern (distances are monotone
    non-increasing in the window).  Both windows are size-checked before
    either is built."""
    lo, hi = window
    pp.check_window(lo, hi)
    pp.check_window(2 * lo, 2 * hi)
    d1 = distance(build_graph(pp.materialize_window(lo, hi), kind), u, v)
    d2 = distance(build_graph(pp.materialize_window(2 * lo, 2 * hi), kind), u, v)
    return d1, d1 == d2

