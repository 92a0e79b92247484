"""Independent brute-force oracles the tests compare the library against.

Each oracle deliberately avoids the code path it checks: geometry uses
floating-point chords on an honest circle, the relation table a face row per
leaf and a face test per pair of opposite-sign leaves, validation's pairwise
rules a scan of every pair of leaves, periodic template crossings exact
endpoint angles without any window, pseudo-intervals come from exhaustive
path enumeration, wall distances from full subset enumeration, wall
witnesses from face-by-face depths and per-pair predicates, graph distances
from a second BFS, the bottleneck certificate a subgraph and a BFS per
(pair, midpoint), and census balls from a separate normal-form
implementation with its own matrix arithmetic.
"""

from __future__ import annotations

import bisect
import itertools
import math
import string
from unittest import mock


# -- geometric chord oracle (regular leaves only) --------------------------------

def _coords(p):
    n = len(p.boundary)
    return {lab: (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
            for i, lab in enumerate(p.boundary)}


def _seg_cross(a, b, c, d) -> bool:
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(v) < 1e-12 else (1 if v > 0 else -1)

    return (orient(a, b, c) * orient(a, b, d) < 0
            and orient(c, d, a) * orient(c, d, b) < 0)


def geometric_intersects(p, l1: str, l2: str) -> bool:
    xy = _coords(p)
    a, b = (xy[e] for e in p.leaves[l1].endpoints)
    c, d = (xy[e] for e in p.leaves[l2].endpoints)
    return _seg_cross(a, b, c, d)


def _side(xy, chord_eps, pt) -> int:
    a, b = chord_eps
    v = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
    return 1 if v > 0 else -1


def geometric_separates_leaves(p, m: str, l1: str, l2: str) -> bool:
    xy = _coords(p)
    chord = tuple(xy[e] for e in p.leaves[m].endpoints)
    s1 = {_side(xy, chord, xy[e]) for e in p.leaves[l1].endpoints}
    s2 = {_side(xy, chord, xy[e]) for e in p.leaves[l2].endpoints}
    return s1 != s2


def _crossing_coords(p, plus: str, minus: str):
    xy = _coords(p)
    (x1, y1), (x2, y2) = (xy[e] for e in p.leaves[plus].endpoints)
    (x3, y3), (x4, y4) = (xy[e] for e in p.leaves[minus].endpoints)
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def geometric_separates_point(p, leaf: str, pt_a, pt_b) -> bool:
    """Separation of two crossing points by a regular leaf, computed with
    float geometry and the on-leaf convention."""
    xy = _coords(p)
    on_a = leaf in (pt_a.plus_leaf, pt_a.minus_leaf)
    on_b = leaf in (pt_b.plus_leaf, pt_b.minus_leaf)
    if pt_a.key() == pt_b.key():
        return False
    if on_a and on_b:
        return False
    if on_a or on_b:
        return True
    chord = tuple(xy[e] for e in p.leaves[leaf].endpoints)
    ca = _crossing_coords(p, pt_a.plus_leaf, pt_a.minus_leaf)
    cb = _crossing_coords(p, pt_b.plus_leaf, pt_b.minus_leaf)
    return _side(xy, chord, ca) != _side(xy, chord, cb)


# -- periodic template oracle (exact endpoint angles, no window) -------------------

def _template_angles(pp, sign: str, i: int):
    """Endpoint angles of leaf (sign, global index i): (track position, signed
    value) tuples that sort in circle order; equal tuples are shared
    (perfect-fit) endpoints."""
    r, k = i % pp.period, i // pp.period
    order = {t.name: j for j, t in enumerate(pp.tracks)}
    return sorted((order[t], (off + k) * pp.tracks[order[t]].direction)
                  for t, off in pp.families(sign)[r].endpoints)


def oracle_template_cross(pp, sign_a: str, ia: int, sign_b: str, ib: int) -> bool:
    """Do leaves (sign_a, ia) and (sign_b, ib) of a periodic pattern with
    regular leaves cross: exactly one endpoint of b strictly between a's."""
    if sign_a == sign_b:
        return False
    aa, bb = _template_angles(pp, sign_a, ia), _template_angles(pp, sign_b, ib)
    assert len(aa) == len(bb) == 2, "template crossing needs regular leaves"
    if set(aa) & set(bb):
        return False  # shared endpoint: perfect fit, not a crossing
    lo, hi = aa
    return sum(lo < x < hi for x in bb) == 1


def oracle_check_templates(g):
    """The message of the first failure of an automorphism's template check,
    or None: the same (plus f, minus j) pairs as the library, in the same
    order, each asked of the angle oracle, then the declared nonseparated
    pairs by leaf name."""
    from bifol.pattern import MINUS, PLUS

    pp, B = g.pattern, g._reach()
    for f in range(pp.period):
        for j in range(-B, B + 1):
            if oracle_template_cross(pp, PLUS, f, MINUS, j) != \
                    oracle_template_cross(pp, PLUS, g.plus(f), MINUS, g.minus(j)):
                return (f"map does not preserve the intersection template "
                        f"(plus {f}, minus {j})")
    for t in pp.nonsep:
        pair = {g.act(f"{t.fam_a}0"), g.act(f"{t.fam_b}{t.offset}")}
        ks = [int(name.lstrip(string.ascii_letters)) for name in pair]
        if frozenset(pair) not in pp.nonsep_pairs_in(min(ks), max(ks)):
            return "map does not preserve nonseparation"
    return None


# -- relation-table oracle ----------------------------------------------------------

def arc_index_of_position(p, leaf_id: str, x: int):
    """Index of the open arc of ``leaf_id`` containing circle position x,
    or None when x is an endpoint of the leaf, counted from its sorted
    endpoint positions: arc i runs from the i-th endpoint to the next, and
    the last one wraps round."""
    return _arc(_sorted_endpoints(p, leaf_id), x)


def _sorted_endpoints(p, leaf_id: str) -> list:
    return sorted(map(p.pos, p.leaves[leaf_id].endpoints))


def _arc(e: list, x: int):
    if x in e:
        return None
    return (bisect.bisect(e, x) - 1) % len(e)


def oracle_on_leaf(pt, leaf_id: str) -> bool:
    """Does a marked point lie on the leaf?  A crossing point lies on its
    two leaves, a region point on none."""
    return pt.kind == "crossing" and leaf_id in (pt.plus_leaf, pt.minus_leaf)


def oracle_face_of_point(p, pt, leaf_id: str):
    """The arc of ``leaf_id`` holding a marked point, None if the point lies
    on the leaf: for a crossing point, the arc holding the first endpoint of
    the point's leaf of ``leaf_id``'s family; for a region point, the arc
    holding the gap just counterclockwise of its anchor, which starts at the
    anchor when the anchor is an endpoint."""
    from bifol.pattern import PLUS

    if oracle_on_leaf(pt, leaf_id):
        return None
    if pt.kind == "crossing":
        same = pt.plus_leaf if p.leaves[leaf_id].sign == PLUS else pt.minus_leaf
        return arc_index_of_position(p, leaf_id, _sorted_endpoints(p, same)[0])
    x, e = p.pos(pt.anchor), _sorted_endpoints(p, leaf_id)
    return e.index(x) if x in e else _arc(e, x)


def oracle_relations(p) -> dict:
    """The relation table built the slow way: a face row for every leaf,
    every crossing by a face test per pair of opposite-sign leaves.  Returns
    the columns ``ep``, ``face`` (the arc index of every circle position,
    None on the leaf's endpoints) and ``cross`` keyed by leaf id, and
    ``ends`` keyed by circle position."""
    ids = list(p.leaves)
    ep, face = {}, {}
    ends = [0] * p.n  # leaves by endpoint
    for i, lf in enumerate(p.leaves.values()):
        e = _sorted_endpoints(p, lf.id)
        ep[lf.id] = tuple(e)
        face[lf.id] = [_arc(e, x) for x in range(p.n)]
        for x in ep[lf.id]:
            ends[x] |= 1 << i
    cross = dict.fromkeys(ids, 0)
    for i, t in enumerate(ids):
        for a in ids:
            if p.leaves[a].sign == p.leaves[t].sign:
                continue
            hit = {face[t][x] for x in ep[a]}
            hit.discard(None)
            if len(hit) >= 2:
                cross[a] |= 1 << i
    return {"ep": ep, "face": face, "cross": cross, "ends": ends}


# -- validation oracle --------------------------------------------------------------

def oracle_pair_violations(p) -> list:
    """Validation's pairwise endpoint and crossing rules, run on every pair
    of leaves in sorted order."""
    from bifol.pattern import Violation

    v = []
    for l1, l2 in itertools.combinations(sorted(p.leaves), 2):
        a, b = p.leaves[l1], p.leaves[l2]
        shared = set(a.endpoints) & set(b.endpoints)
        s12, s21 = p._spread(l2, l1), p._spread(l1, l2)
        if a.sign == b.sign:
            if shared:
                v.append(Violation("same-sign leaves share an endpoint", (l1, l2)))
            elif len(s12) >= 2 or len(s21) >= 2:
                v.append(Violation("same-sign crossing", (l1, l2)))
            continue
        if len(shared) > 1:
            v.append(Violation("leaves share several endpoints", (l1, l2)))
            continue
        if shared and (len(s12) >= 2 or len(s21) >= 2):
            v.append(Violation("perfect-fit pair also crosses", (l1, l2)))
            continue
        if frozenset((l1, l2)) in p._singular_pairs:
            continue  # alternation is checked with the singularity records
        for spread, host in ((s12, l1), (s21, l2)):
            if len(spread) >= 3:
                v.append(Violation("forced multiple crossing", (l1, l2)))
                break
            if len(spread) == 2:
                k = p.leaves[host].k
                i, j = sorted(spread)
                if k > 2 and not (j - i == 1 or (i == 0 and j == k - 1)):
                    v.append(Violation("forced double crossing", (l1, l2)))
                    break
    return v


def oracle_validate(p):
    """``p.validate()`` with its pairwise section replaced by the scan of
    every pair."""
    with mock.patch.object(type(p), "_pair_violations", oracle_pair_violations):
        return p.validate()


# -- pseudo-interval oracle --------------------------------------------------------

def _step_ok(p, a: str, b: str) -> bool:
    sign = p.leaves[a].sign
    return not any(p._separates(m, a, b)
                   for m in p.leaf_ids(sign) if m not in (a, b))


def all_monotone_paths(p, x: str, y: str, cap: int = 200_000):
    """All simple leaf paths from x to y whose consecutive steps jump over no
    same-family leaf."""
    sign = p.leaves[x].sign
    ids = p.leaf_ids(sign)
    paths = []
    stack = [(x, (x,))]
    count = 0
    while stack:
        cur, path = stack.pop()
        count += 1
        if count > cap:
            raise RuntimeError("path enumeration blew the cap")
        if cur == y:
            paths.append(path)
            continue
        for nxt in ids:
            if nxt in path:
                continue
            if _step_ok(p, cur, nxt):
                stack.append((nxt, path + (nxt,)))
    return paths


def oracle_pseudo_interval_set(p, x: str, y: str) -> set:
    if x == y:
        return {x}
    paths = all_monotone_paths(p, x, y)
    assert paths, f"no leaf path from {x} to {y}"
    out = set(paths[0])
    for path in paths[1:]:
        out &= set(path)
    return out


# -- wall distance oracle -----------------------------------------------------------

def oracle_wall_sup(p, x, y, kind: str) -> int:
    """Largest admissible separating family by full subset enumeration."""
    from bifol import walls as wl

    px, py = p.point(x), p.point(y)
    if px.key() == py.key():
        return 0
    seps = wl.separating_leaves(p, px, py, kind)
    best = 0
    for r in range(len(seps), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(seps, r):
            ok = True
            for a, b in itertools.combinations(combo, 2):
                if p.intersects(a, b):
                    ok = False
                    break
                if kind in (wl.D_RPLUS, wl.D_RMINUS):
                    if not oracle_breaks(p, a, b):
                        ok = False
                        break
                else:
                    if not wl.aligned(p, a, b):
                        ok = False
                        break
            if ok:
                best = r
                break
    return best


def oracle_breaks(p, x: str, y: str) -> bool:
    """Does the NONSEP pseudo-interval between two same-family leaves break:
    does some declared nonseparated pair lie inside the closed separator
    bitset from x to y?  Any declared pair counts, not only consecutive
    ones, so illegal declarations break a chain too."""
    t = p._table
    closed = p._seps(x, y) | 1 << t.index[x] | 1 << t.index[y]
    return any(pair & closed == pair for pair in t.nonsep)


def oracle_separation_depth(p, x, leaves) -> dict:
    """Depth of each separator by a face-by-face loop: how many other
    separators, disjoint from it, have it off the face that holds x."""
    px = p.point(x)
    face_x = {m: oracle_face_of_point(p, px, m) for m in leaves}
    ep = {m: _sorted_endpoints(p, m) for m in leaves}
    return {l: sum(1 for m in leaves if m != l and not p.intersects(m, l)
                   and _arc(ep[m], ep[l][0]) != face_x[m])
            for l in leaves}


def oracle_longest_chain(p, kind: str, seps, x) -> tuple:
    """Longest admissible chain in the depth order with the per-pair
    predicates, every option listed; ties go to the least tuple."""
    from bifol import walls as wl

    if not seps:
        return ()
    depth = oracle_separation_depth(p, x, seps)
    order = sorted(seps, key=lambda l: (depth[l], l))
    best = {}
    for l in order:
        options = [(l,)]
        for m in order:
            if depth[m] < depth[l] and not p.intersects(m, l):
                if kind in (wl.D_RPLUS, wl.D_RMINUS):
                    ok = oracle_breaks(p, m, l)
                else:
                    ok = wl.aligned(p, m, l)
                if ok:
                    options.append(best[m] + (l,))
        top = max(len(c) for c in options)
        best[l] = min(c for c in options if len(c) == top)
    top = max(len(c) for c in best.values())
    return min(c for c in best.values() if len(c) == top)


# -- second BFS ---------------------------------------------------------------------

def oracle_bfs_distance(adj: dict, src: str, dst: str):
    frontier, dist, seen = [src], 0, {src}
    while frontier:
        if dst in frontier:
            return dist
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        dist += 1
    return None


def oracle_bfs_row(adj: dict, src: str) -> dict:
    """Distances from src to every vertex it reaches, one level at a time."""
    row, level, d = {}, {src}, 0
    while level:
        row.update(dict.fromkeys(level, d))
        level = {w for u in level for w in adj[u]} - set(row)
        d += 1
    return row


def oracle_build_graph(p, kind: str):
    """A leaf graph built pair by pair: crossing for the full graph, a common
    nonsingular transversal for the one-family ones, no break in the NONSEP
    pseudo-interval for the true-interval ones.  Not memoized."""
    from bifol import graphs as gr
    from bifol.pattern import MINUS, PLUS

    if kind == gr.XFULL:
        verts = sorted(p.leaves)
        linked = p.intersects
    else:
        verts = sorted(p.leaf_ids(PLUS if kind in (gr.XPLUS, gr.GAMMAPLUS)
                                  else MINUS))
        if kind in (gr.XPLUS, gr.XMINUS):
            linked = lambda a, b: p.common_transversal(a, b) & p._table.nonsingular
        else:
            linked = lambda a, b: not oracle_breaks(p, a, b)
    adj = {v: set() for v in verts}
    for a, b in itertools.combinations(verts, 2):
        if linked(a, b):
            adj[a].add(b)
            adj[b].add(a)
    return gr.LeafGraph(kind, tuple(verts),
                        {v: frozenset(ns) for v, ns in adj.items()})


def oracle_bottleneck_certify(G, K: int):
    """The bottleneck certificate with a fresh subgraph and BFS for every
    (pair, midpoint): (passed, pairs checked, witness or None)."""
    from bifol import graphs as gr

    dist = {v: gr.distances_from(G, v) for v in G.vertices}
    checked = 0
    for x, y in itertools.combinations(G.vertices, 2):
        dxy = dist[x][y]
        if dxy % 2 or dxy == 0:
            continue
        r = dxy // 2
        mids = [v for v in G.vertices
                if dist[x].get(v) == r and dist[y].get(v) == r]
        for v in mids:
            checked += 1
            ball = {w for w in G.vertices if dist[v][w] <= K}
            if x in ball or y in ball:
                continue
            H = G.subgraph(set(G.vertices) - ball)
            if oracle_bfs_distance(H.adj, x, y) is not None:
                return False, checked, gr.BottleneckWitness(x, y, v)
    return True, checked, None


def oracle_bottleneck_midpoints(G, K: int):
    """The bottleneck certificate over the components of G, with its own BFS
    rows, the midpoints of each pair found by scanning the whole component,
    and the rest of G labelled once per midpoint: (passed, pairs checked,
    witness or None), in the order of ``bottleneck_certify_components``."""
    from bifol import graphs as gr

    checked = 0
    for comp in gr.connected_components(G):
        dist = {v: oracle_bfs_row(G.adj, v) for v in comp}
        labels = {}
        for i, x in enumerate(comp):
            for y in comp[i + 1:]:
                dxy = dist[x][y]
                if dxy % 2 or dxy == 0:
                    continue
                r = dxy // 2
                for v in [v for v in comp
                          if dist[x].get(v) == r and dist[y].get(v) == r]:
                    checked += 1
                    if v not in labels:
                        ball = {w for w, d in dist[v].items() if d <= K}
                        labels[v] = _labels_off(G.adj, ball)
                    if x in labels[v] and labels[v].get(y) == labels[v][x]:
                        return False, checked, gr.BottleneckWitness(x, y, v)
    return True, checked, None


def _labels_off(adj: dict, removed: set) -> dict:
    """Vertex -> a vertex naming its component in the graph minus
    ``removed``; removed vertices get no label."""
    lab = {}
    for s in adj:
        if s not in removed and s not in lab:
            lab[s], stack = s, [s]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in removed and w not in lab:
                        lab[w] = s
                        stack.append(w)
    return lab


# -- census oracle --------------------------------------------------------------------

_A = ((2, 1), (1, 1))
_AINV = ((1, -1), (-1, 2))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _aff_mul(a, b):
    (k1, v1), (k2, v2) = a, b
    w = v2
    m = _A if k1 >= 0 else _AINV
    for _ in range(abs(k1)):
        w = _apply(m, w)
    return (k1 + k2, (v1[0] + w[0], v1[1] + w[1]))


def oracle_trivial_ball_sizes(nmax: int):
    """Hash-set BFS over the affine model with locally defined arithmetic."""
    gens = [(1, (0, 0)), (-1, (0, 0)), (0, (1, 0)), (0, (-1, 0)),
            (0, (0, 1)), (0, (0, -1))]
    ident = (0, (0, 0))
    seen = {ident}
    frontier = [ident]
    sizes = [1]
    for _ in range(nmax):
        nxt = []
        for w in frontier:
            for g in gens:
                c = _aff_mul(g, w)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


def _aff_inv(a):
    k, v = a
    w = v
    m = _AINV if k >= 0 else _A
    for _ in range(abs(k)):
        w = _apply(m, w)
    return (-k, (-w[0], -w[1]))


def _skew_mul(a, b):
    """a after b, by applying b and then a to a representative of each
    residue class."""
    n = len(a)
    out = []
    for r in range(n):
        i = r + b[r]
        out.append(i + a[i % n] - r)
    return tuple(out)


def _skew_inv(a):
    n = len(a)
    out = [0] * n
    for r in range(n):
        out[(r + a[r]) % n] = -a[r]
    return tuple(out)


def _oracle_ball(gens, inv, mul, ident, nmax):
    sym = list(dict.fromkeys([*gens, *map(inv, gens)]))
    seen = {ident: 0}
    frontier = [ident]
    for radius in range(1, nmax + 1):
        nxt = []
        for w in frontier:
            for g in sym:
                c = mul(g, w)
                if c not in seen:
                    seen[c] = radius
                    nxt.append(c)
        frontier = nxt
    return seen


def oracle_affine_ball(gens, nmax):
    """{(k, (x, y)): word length} over raw affine generators (k, (x, y)) and
    their inverses, with locally defined arithmetic."""
    return _oracle_ball(list(gens), _aff_inv, _aff_mul, (0, (0, 0)), nmax)


def oracle_translation_ball(nmax):
    """The nonzero translations of word length <= nmax in the shipped
    trivial model <A, t1, t2>."""
    ball = oracle_affine_ball([(1, (0, 0)), (0, (1, 0)), (0, (0, 1))], nmax)
    return {v for k, v in ball if k == 0 and v != (0, 0)}


def oracle_skew_ball(gens, nmax):
    """{offsets: word length} over raw offset tuples of one period and their
    inverses, with locally defined composition."""
    gens = [tuple(g) for g in gens]
    return _oracle_ball(gens, _skew_inv, _skew_mul, (0,) * len(gens[0]), nmax)
