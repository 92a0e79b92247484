"""Wall metrics on a pattern: distances between marked points measured by the
largest admissible family of leaves separating them.

Five flavours: mixed-family and one-family hyperbolically-aligned walls
(no third leaf crosses both members of a pair), and one-family Reeb walls
(each pair has a broken pseudo-interval).  Separation of points follows the
convention that a point on the leaf counts as separated from any point off
it; the one-family distances add one to the supremum, and the supremum over
no admissible family is zero.

Chains live on the bit positions of the relation table: a pair's separator
bitset masked by the kind's sign, ordered by the pattern's separation depths
from the first point, admissibility one bit of the crossing bitsets or of
``graphs.gamma_rows``, which also answers ``reeb_separated``.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

from . import graphs as gr
from .pattern import (
    PLUS, DegenerateInputError, FinitePattern, Point, PreconditionError,
)

D_H, D_PLUS, D_MINUS, D_RPLUS, D_RMINUS = "dH", "d+", "d-", "dR+", "dR-"
KINDS = (D_H, D_PLUS, D_MINUS, D_RPLUS, D_RMINUS)

# the graph of each one-family kind: its family is the kind's sign
_GRAPH_OF = {D_PLUS: gr.XPLUS, D_MINUS: gr.XMINUS, D_RPLUS: gr.GAMMAPLUS,
             D_RMINUS: gr.GAMMAMINUS}
_SIGN_OF = {kind: gr._FAMILY.get(_GRAPH_OF.get(kind)) for kind in KINDS}


@dataclass(frozen=True)
class AlignedFamily:
    kind: str
    leaves: tuple[str, ...]


def aligned(p: FinitePattern, l1: str, l2: str) -> bool:
    """Disjoint, and no third leaf of the pattern crosses both."""
    if l1 == l2:
        raise PreconditionError("alignment needs two distinct leaves")
    return not (p.intersects(l1, l2) or p.common_transversal(l1, l2))


def reeb_separated(p: FinitePattern, l1: str, l2: str) -> bool:
    """Same family, disjoint, and the pseudo-interval between them breaks."""
    if l1 == l2:
        raise PreconditionError("Reeb separation needs two distinct leaves")
    sign = p.leaf(l1).sign
    if sign != p.leaf(l2).sign:
        raise PreconditionError("Reeb separation is a same-sign relation")
    t = p._table
    rows = gr.gamma_rows(p, gr.GAMMAPLUS if sign == PLUS else gr.GAMMAMINUS)
    return not rows[t.index[l1]] >> t.index[l2] & 1


def separating_leaves(p: FinitePattern, x, y, kind: str) -> list[str]:
    seps = _of_kind(p, p._point_seps(p.point(x), p.point(y)), kind)
    return sorted(p._ids_of(seps))


def _of_kind(p: FinitePattern, seps: int, kind: str) -> int:
    """The bits of a separator bitset that a metric kind counts."""
    t, sign = p._table, _SIGN_OF[kind]
    return seps if sign is None else seps & (t.plus if sign == PLUS else t.minus)


def _longest_chain(p: FinitePattern, kind: str, depth: dict) -> tuple[str, ...]:
    """The least longest admissible family among the separator bits of a
    depth map: a longest path over them in the nestedness order, by (depth,
    leaf id), as consecutive admissibility implies pairwise admissibility
    for nested families (property-tested).  Admissibility is a bit test: no
    common transversal, or for Reeb kinds no edge in the gamma rows.  Each
    bit takes the first admissible shallower chain in key order, (minus
    length, chain), so the least key is the least longest chain."""
    if not depth:
        return ()
    t = p._table
    ids, cross = t.ids, t.cross
    gk = _GRAPH_OF.get(kind)
    gamma = gr.gamma_rows(p, gk) if gk in gr._GAMMA else None
    ranked = []  # (key, depth, bit) of the chains found so far, least key first
    for dl, _, l in sorted([(d, ids[i], i) for i, d in depth.items()]):
        cross_l, top = cross[l], (0, ())
        bad = cross_l if gamma is None else cross_l | gamma[l]
        for key, dm, m in ranked:
            if dm < dl and not bad >> m & 1 and (gamma is not None or
                                                not cross[m] & cross_l):
                top = key
                break
        bisect.insort(ranked, ((top[0] - 1, top[1] + (ids[l],)), dl, l))
    return ranked[0][0][1]


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
    return _longest_chain(p, kind, p._depths(px, _of_kind(p, seps, kind)))


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
    return sup + 1 if _SIGN_OF[kind] and px.key() != py.key() else sup


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
    checks, violations, disconnected = [], [], []
    for kind, gk in _GRAPH_OF.items():
        G = gr.build_graph(p, gk)
        attr = "plus_leaf" if _SIGN_OF[kind] == PLUS else "minus_leaf"
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
