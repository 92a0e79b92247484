"""Wall metrics on a pattern: distances between marked points measured by the
largest admissible family of leaves separating them.

Five flavours: mixed-family and one-family hyperbolically-aligned walls
(no third leaf crosses both members of a pair), and one-family Reeb walls
(each pair has a broken pseudo-interval).  Separation of points follows the
convention that a point on the leaf counts as separated from any point off
it; the one-family distances add one to the supremum, and the supremum over
no admissible family is zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import graphs as gr
from .pattern import (
    PLUS, MINUS, DegenerateInputError, FinitePattern, Point, PreconditionError,
)

D_H, D_PLUS, D_MINUS, D_RPLUS, D_RMINUS = "dH", "d+", "d-", "dR+", "dR-"
KINDS = (D_H, D_PLUS, D_MINUS, D_RPLUS, D_RMINUS)

_SIGN_OF = {D_PLUS: PLUS, D_MINUS: MINUS, D_RPLUS: PLUS, D_RMINUS: MINUS,
            D_H: None}
_GAMMA = {D_RPLUS: gr.GAMMAPLUS, D_RMINUS: gr.GAMMAMINUS}
_PLUS_ONE = {D_PLUS, D_MINUS, D_RPLUS, D_RMINUS}


@dataclass(frozen=True)
class AlignedFamily:
    kind: str
    leaves: tuple[str, ...]

    def __len__(self):
        return len(self.leaves)


def aligned(p: FinitePattern, l1: str, l2: str) -> bool:
    """Disjoint, and no third leaf of the pattern crosses both."""
    if l1 == l2:
        raise PreconditionError("alignment needs two distinct leaves")
    return not (p.intersects(l1, l2) or p.common_transversal(l1, l2))


def reeb_separated(p: FinitePattern, l1: str, l2: str) -> bool:
    """Same family, disjoint, and the pseudo-interval between them breaks."""
    if l1 == l2:
        raise PreconditionError("Reeb separation needs two distinct leaves")
    if p.leaf(l1).sign != p.leaf(l2).sign:
        raise PreconditionError("Reeb separation is a same-sign relation")
    return p._breaks(l1, l2)


def separating_leaves(p: FinitePattern, x, y, kind: str) -> list[str]:
    return _of_kind(p, p._point_seps(p.point(x), p.point(y)), kind)


def _of_kind(p: FinitePattern, seps: int, kind: str) -> list[str]:
    """The leaves of a separator bitset that a metric kind counts, sorted."""
    return sorted(p._ids_of(seps, _SIGN_OF[kind]))


def _separation_depth(p: FinitePattern, x, leaves: list[str]) -> dict:
    """Partial order position of each separator: how many other separators
    (disjoint from it) lie between the point x and it.

    m lies between x and a leaf l disjoint from it when l's first endpoint
    e is off x's face of m, an endpoint of m included: a bit of the folded
    face planes ``gap[e] ^ gap_x`` or of the leaves ending at e.  A leaf
    through x has no face of x, so it lies between exactly when it does not
    end at e."""
    t = p._table
    on_x, gap_x = p._point_bits(p.point(x))
    mask = 0
    for l in leaves:
        mask |= 1 << t.index[l]
    depth = {}
    for l in leaves:
        e = t.ep[l][0]
        others = mask & ~t.cross[l] & ~(1 << t.index[l])
        off_face = t.fold(t.gap[e] ^ gap_x) & ~on_x | t.ends[e]
        depth[l] = (others & (off_face ^ on_x)).bit_count()
    return depth


def _longest_chain(p: FinitePattern, kind: str, seps: list[str], x) -> tuple[str, ...]:
    """Longest admissible family inside the separator set, computed as a
    longest path in the nestedness order; consecutive admissibility implies
    pairwise admissibility for nested families, which is property-tested.
    Ties go to the lexicographically least chain."""
    if not seps:
        return ()
    t = p._table
    # Reeb walls need a broken pseudo-interval, that is no edge of the gamma
    # graph (built once per pattern); aligned walls no common transversal
    gamma = gr.build_graph(p, _GAMMA[kind]).adj if kind in _GAMMA else None
    depth = _separation_depth(p, x, seps)
    order = sorted(seps, key=lambda l: (depth[l], l))
    best: dict[str, tuple[str, ...]] = {}  # least longest chain ending at l
    for l in order:
        cross_l, top = t.cross[l], ()
        for m in order:
            if depth[m] >= depth[l]:
                break
            if cross_l >> t.index[m] & 1:
                continue
            if (m not in gamma[l]) if gamma is not None else \
                    not t.cross[m] & cross_l:
                c = best[m]
                if len(c) > len(top) or len(c) == len(top) and c < top:
                    top = c
        best[l] = top + (l,)
    top = max(len(c) for c in best.values())
    return min(c for c in best.values() if len(c) == top)


def _witness(p: FinitePattern, px: Point, py: Point, kind: str):
    """The longest admissible ``kind`` chain separating two points."""
    if kind not in KINDS:
        raise PreconditionError(f"unknown metric kind {kind!r}")
    if px.key() == py.key():
        return ()
    seps = p._point_seps(px, py)
    if not seps:
        raise DegenerateInputError(
            f"no leaf of the truncation separates {px.id} from {py.id}")
    return _longest_chain(p, kind, _of_kind(p, seps, kind), px)


def longest_chain_witness(p: FinitePattern, x, y, kind: str) -> AlignedFamily:
    """A maximal admissible separating family realizing the supremum; empty
    for one point twice.  Distinct points that no leaf separates are
    degenerate input."""
    return AlignedFamily(kind, _witness(p, p.point(x), p.point(y), kind))


def wall_distance(p: FinitePattern, x, y, kind: str) -> int:
    """The supremum of ``longest_chain_witness``, plus one for the
    one-family kinds between distinct points."""
    px, py = p.point(x), p.point(y)
    sup = len(_witness(p, px, py, kind))
    return sup + 1 if kind in _PLUS_ONE and px.key() != py.key() else sup


@dataclass(frozen=True)
class MetricAxiomReport:
    kind: str
    points: tuple[str, ...]
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def _point_list(p: FinitePattern, points):
    raw = points if points is not None else sorted(p.points)
    return sorted((p.point(q) for q in raw), key=lambda q: q.id)


def metric_axiom_check(p: FinitePattern, kind: str,
                       points=None) -> MetricAxiomReport:
    """Identity of indiscernibles, symmetry and the triangle inequality over
    all marked-point triples."""
    pts = _point_list(p, points)
    d = {(a.id, b.id): wall_distance(p, a, b, kind) for a in pts for b in pts}
    violations = []
    for a in pts:
        if d[(a.id, a.id)] != 0:
            violations.append(("identity", a.id))
    for a, b in itertools.combinations(pts, 2):
        if a.key() != b.key() and d[(a.id, b.id)] == 0:
            violations.append(("indiscernible", a.id, b.id))
        if d[(a.id, b.id)] != d[(b.id, a.id)]:
            violations.append(("symmetry", a.id, b.id))
    for a, b, c in itertools.permutations(pts, 3):
        if d[(a.id, c.id)] > d[(a.id, b.id)] + d[(b.id, c.id)]:
            violations.append(("triangle", a.id, b.id, c.id))
    return MetricAxiomReport(kind, tuple(q.id for q in pts), tuple(violations))


@dataclass(frozen=True)
class MetricQiReport:
    checks: tuple  # (kind, x, y, wall value, graph value)
    violations: tuple
    skipped: tuple  # region points have no leaf image
    disconnected: tuple = ()  # leaf images in different graph components

    @property
    def ok(self):
        return not self.violations


def qi_metric_report(p: FinitePattern, points=None) -> MetricQiReport:
    """For every pair of marked crossing points verify
    d_wall - 2 <= d_graph(leaf images) <= 5 d_wall for the four one-family
    metrics against their graphs."""
    pts = _point_list(p, points)
    crossings = [q for q in pts if q.kind == "crossing"]
    skipped = tuple(q.id for q in pts if q.kind != "crossing")
    plan = ((D_PLUS, gr.XPLUS, "plus_leaf"), (D_MINUS, gr.XMINUS, "minus_leaf"),
            (D_RPLUS, gr.GAMMAPLUS, "plus_leaf"),
            (D_RMINUS, gr.GAMMAMINUS, "minus_leaf"))
    checks, violations, disconnected = [], [], []
    for kind, gk, attr in plan:
        G = gr.build_graph(p, gk)
        for a, b in itertools.combinations(crossings, 2):
            la, lb = getattr(a, attr), getattr(b, attr)
            dw = wall_distance(p, a, b, kind)
            dg = 0 if la == lb else gr.distance(G, la, lb)
            checks.append((kind, a.id, b.id, dw, dg))
            if dg == gr.INF:
                # a truncation artifact: the window's graph is disconnected
                # while wall alignment over-approximates; reported, not a
                # violation of the inequality on the honest object
                disconnected.append((kind, a.id, b.id, dw))
            elif not (dw - 2 <= dg <= 5 * dw):
                violations.append((kind, a.id, b.id, dw, dg))
    return MetricQiReport(tuple(checks), tuple(violations), skipped,
                          tuple(disconnected))
