"""Reference computations the benchmark checks the program against.

Nothing here calls into ``bifol``: crossings come from a chord-interleaving
test on the JSON data, distances from a plain BFS, and census balls from a
separate implementation of the two group laws.  The benchmark runs these
once per run, outside the timed passes.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from fractions import Fraction

INF = math.inf


# -- finite patterns ---------------------------------------------------------


class Chords:
    """Leaves of a finite pattern as sorted endpoint positions on the circle,
    read straight from the pattern's JSON dict."""

    def __init__(self, d: dict):
        pos = {lab: i for i, lab in enumerate(d["boundary"])}
        self.sign = {x["id"]: x["sign"] for x in d["leaves"]}
        self.ends = {x["id"]: sorted(pos[e] for e in x["endpoints"])
                     for x in d["leaves"]}
        self.ids = sorted(self.sign)
        self._cross = {}
        for a, b in itertools.combinations(self.ids, 2):
            if self.sign[a] != self.sign[b] and self._interleave(a, b):
                self._cross.setdefault(a, set()).add(b)
                self._cross.setdefault(b, set()).add(a)

    def _interleave(self, a: str, b: str) -> bool:
        # b crosses a when b's endpoints that a does not share fall into at
        # least two of the arcs a cuts the circle into
        ea, eb = self.ends[a], self.ends[b]
        arcs = {bisect.bisect_left(ea, x) % len(ea) for x in eb if x not in ea}
        return len(arcs) >= 2

    def crosses(self, a: str, b: str) -> bool:
        return b in self._cross.get(a, ())

    def of_sign(self, sign: str) -> list[str]:
        return [l for l in self.ids if self.sign[l] == sign]

    def singular(self, leaf: str) -> bool:
        return len(self.ends[leaf]) >= 3

    def crossing_pairs(self) -> list[tuple[str, str]]:
        """(plus, minus) for every crossing, in sorted-id pair order."""
        out = []
        for a, b in itertools.combinations(self.ids, 2):
            if self.crosses(a, b):
                out.append((a, b) if self.sign[a] == "plus" else (b, a))
        return out

    def adjacency(self, kind: str) -> dict:
        """Adjacency of the full graph ("x") or a one-family intersection
        graph ("xplus", "xminus"): two leaves of one family are adjacent when
        a nonsingular leaf of the other family crosses both."""
        if kind == "x":
            return {v: set(self._cross.get(v, ())) for v in self.ids}
        sign = "plus" if kind == "xplus" else "minus"
        other = "minus" if sign == "plus" else "plus"
        verts = self.of_sign(sign)
        adj = {v: set() for v in verts}
        for t in self.of_sign(other):
            if self.singular(t):
                continue
            hit = [v for v in verts if self.crosses(t, v)]
            for a, b in itertools.combinations(hit, 2):
                adj[a].add(b)
                adj[b].add(a)
        return adj


def bfs(adj: dict, src: str) -> dict:
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def all_distances(adj: dict) -> dict:
    return {v: bfs(adj, v) for v in adj}


# -- periodic patterns -------------------------------------------------------


def window_chords(d: dict, lo: int, hi: int) -> dict:
    """Leaves of a periodic pattern's window [lo, hi] as
    ``name -> (sign, (key, key))`` with circle-ordered endpoint keys.  A key
    is (track index, offset along the track's direction)."""
    direction = {name: dr for name, dr in d["tracks"]}
    track = {name: i for i, (name, _) in enumerate(d["tracks"])}
    out = {}
    for famkey, sign in (("plus_families", "plus"), ("minus_families", "minus")):
        for fam in d[famkey]:
            for k in range(lo, hi + 1):
                keys = []
                for tname, off in fam["endpoints"]:
                    val = Fraction(off) + k
                    keys.append((track[tname], val * direction[tname]))
                out[f"{fam['name']}{k}"] = (sign, tuple(sorted(keys)))
    return out


def chord_crosses(ka, kb) -> bool:
    """Two chords cross when exactly one endpoint of one lies strictly inside
    the other's endpoint interval; a shared endpoint is a perfect fit."""
    if set(ka) & set(kb):
        return False
    lo, hi = ka
    return sum(1 for x in kb if lo < x < hi) == 1


def chord_separates(km, ka, kb) -> bool:
    """Does chord m put chords a and b on different sides?"""
    lo, hi = km
    return (lo < ka[0] < hi) != (lo < kb[0] < hi)


def window_xplus(d: dict, lo: int, hi: int) -> dict:
    leaves = window_chords(d, lo, hi)
    plus = [n for n, (s, _) in leaves.items() if s == "plus"]
    minus = [n for n, (s, _) in leaves.items() if s == "minus"]
    adj = {v: set() for v in plus}
    for t in minus:
        hit = [v for v in plus if chord_crosses(leaves[t][1], leaves[v][1])]
        for a, b in itertools.combinations(hit, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def axis_reference(d: dict, lo: int, hi: int) -> set:
    """Plus leaves of the window [lo, hi] that separate their images under
    the shift by one block back and forth (both inside the window)."""
    leaves = window_chords(d, lo, hi)
    out = set()
    for fam in d["plus_families"]:
        for k in range(lo, hi + 1):
            back, fwd = f"{fam['name']}{k - 1}", f"{fam['name']}{k + 1}"
            if back in leaves and fwd in leaves and chord_separates(
                    leaves[f"{fam['name']}{k}"][1], leaves[back][1],
                    leaves[fwd][1]):
                out.add(f"{fam['name']}{k}")
    return out


# -- census group laws -------------------------------------------------------

_A = ((2, 1), (1, 1))
_A_INV = ((1, -1), (-1, 2))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def affine_mul(a, b):
    """(k1, v1)(k2, v2) = (k1 + k2, v1 + A^k1 v2)."""
    (k1, v1), (k2, v2) = a, b
    m = _A if k1 >= 0 else _A_INV
    w = v2
    for _ in range(abs(k1)):
        w = _apply(m, w)
    return (k1 + k2, (v1[0] + w[0], v1[1] + w[1]))


def affine_inv(a):
    k, v = a
    m = _A_INV if k >= 0 else _A
    w = v
    for _ in range(abs(k)):
        w = _apply(m, w)
    return (-k, (-w[0], -w[1]))


def intmap_mul(a, b):
    """a after b, for bijections i -> i + offsets[i mod N]."""
    n = len(a)
    return tuple(b[r] + a[(r + b[r]) % n] for r in range(n))


def intmap_inv(a):
    n = len(a)
    out = [0] * n
    for r, o in enumerate(a):
        out[(r + o) % n] = -o
    return tuple(out)


def census_reference(model: str, gens: list, nmax: int):
    """Cumulative ball sizes and free counts for radii 0..nmax, and the word
    length of every element of the ball.

    ``gens`` are raw generators: (k, (x, y)) pairs for the affine model,
    offset tuples for the integer-map model.  Free means a pure nonzero
    translation (affine) or no zero offset (integer maps)."""
    if model == "trivial":
        mul, inv, ident = affine_mul, affine_inv, (0, (0, 0))
        free = lambda g: g[0] == 0 and g[1] != (0, 0)
    else:
        mul, inv, ident = intmap_mul, intmap_inv, (0,) * len(gens[0])
        free = lambda g: all(o != 0 for o in g)
    sym = list(dict.fromkeys(list(gens) + [inv(g) for g in gens]))
    seen = {ident: 0}
    frontier = [ident]
    balls, frees = [1], [1 if free(ident) else 0]
    for radius in range(1, nmax + 1):
        nxt = []
        for w in frontier:
            for g in sym:
                c = mul(g, w)
                if c not in seen:
                    seen[c] = radius
                    nxt.append(c)
        frontier = nxt
        balls.append(balls[-1] + len(nxt))
        frees.append(frees[-1] + sum(1 for c in nxt if free(c)))
    return balls, frees, seen
