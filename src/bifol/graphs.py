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
import operator
from collections import deque
from dataclasses import dataclass, field

from .pattern import (
    PLUS, MINUS, FinitePattern, Mode, PreconditionError, UnknownIdError,
    _bits,
)

XPLUS, XMINUS, XFULL = "xplus", "xminus", "x"
GAMMAPLUS, GAMMAMINUS = "gammaplus", "gammaminus"
KINDS = (XPLUS, XMINUS, XFULL, GAMMAPLUS, GAMMAMINUS)
_FAMILY = {XPLUS: PLUS, GAMMAPLUS: PLUS, XMINUS: MINUS, GAMMAMINUS: MINUS}
_GAMMA = (GAMMAPLUS, GAMMAMINUS)

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
    if kind not in p._graphs:
        t, verts = p._table, sorted(p.leaf_ids(_FAMILY.get(kind)))
        rows = (gamma_rows if kind in _GAMMA else _x_rows)(p, kind)
        p._graphs[kind] = LeafGraph(kind, tuple(verts), {
            v: frozenset(p._ids_of(rows[t.index[v]])) for v in verts})
    return p._graphs[kind]


def _x_rows(p: FinitePattern, kind: str) -> list:
    """Neighbour bitsets in an X graph, by bit position: ``cross[v]``, or for
    one family the OR of ``cross[m]`` over the nonsingular m crossing v."""
    t = p._table
    if kind == XFULL:
        return t.cross
    rows = [0] * len(t.cross)
    for i in _bits(t.plus if kind == XPLUS else t.minus):
        row = 0
        for m in _bits(t.cross[i] & t.nonsingular):
            row |= t.cross[m]
        rows[i] = row & ~(1 << i)
    return rows


def gamma_rows(p: FinitePattern, kind: str) -> list:
    """Neighbour bitsets of a true-interval graph by bit position, zero off
    its family, built once per pattern.  b is adjacent to a unless a declared
    nonseparated pair (u, w) of the family lies in [a, b]: u lies there when
    it is a or b, or when b's first endpoint is off u's face holding a's.
    Faces are prefix masks of first endpoints over the circle, and every a on
    one face of u and one of w breaks one set: O(|nonsep|) per row."""
    if kind in p._gamma:
        return p._gamma[kind]
    t = p._table
    family = t.plus if kind == GAMMAPLUS else t.minus
    before = [0] * (p.n + 1)  # the leaves whose first endpoint is below x
    for i, e in enumerate(t.ep.values()):
        before[e[0] + 1] |= 1 << i
    before = list(itertools.accumulate(before, operator.or_))

    def faces(u):  # (a on face j but u, the family off face j and u), (u, all)
        e, bit = t.ep[t.ids[u]], 1 << u
        on = [before[y] ^ before[x] for x, y in zip(e, e[1:])]
        on.append(~(before[e[-1]] ^ before[e[0]]))
        return [(f & ~bit & family, family & ~f | bit) for f in on] + [(bit, family)]

    rows = p._gamma[kind] = [0] * len(t.ids)  # the broken sets, then the rows
    for u, w in (_bits(pair) for pair in t.nonsep if pair & family == pair):
        for (on_u, off_u), (on_w, off_w) in itertools.product(faces(u),
                                                               faces(w)):
            for a in _bits(on_u & on_w if off_u & off_w else 0):
                rows[a] |= off_u & off_w
    for a in _bits(family):
        rows[a] = family & ~(rows[a] | 1 << a)
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
        d = dist[u] + 1
        for w in G.adj[u]:
            if w not in dist:
                dist[w] = d
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
    """The certificate on each component in turn, to the first failure.  The
    midpoints of x and y at distance 2r are the bits of ``sphere[x][r] &
    sphere[y][r]``, spheres of component indices read off ``G.rows``, so
    lowest bit first is component order.  A component minus the ball of a
    midpoint is labelled once, when a pair first asks about it."""
    checked = 0
    for comp in comps:
        at = {v: j for j, v in enumerate(comp)}
        sphere = {v: [0] * (max(distances_from(G, v).values()) + 1)
                  for v in comp}  # vertex -> component-index bitset per radius
        for v in comp:
            for w, d in G.rows[v].items():
                sphere[v][d] |= 1 << at[w]
        labels = {}  # midpoint -> component label of each vertex, None in its ball
        for i, x in enumerate(comp):
            dx = G.rows[x]
            for y in comp[i + 1:]:
                dxy = dx[y]
                if dxy % 2:
                    continue
                r = dxy // 2
                for j in _bits(sphere[x][r] & sphere[y][r]):
                    v = comp[j]
                    checked += 1
                    lab = labels.get(v)
                    if lab is None:
                        lab = labels[v] = _components_off(
                            G, [w for w, d in G.rows[v].items() if d <= K],
                            comp)
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
        for i, v in enumerate(G.vertices):  # sorted: w > v below
            dv, dxv = distances_from(G, v), distances_from(GX, v)
            for w in G.vertices[i + 1:]:
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

