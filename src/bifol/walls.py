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

Every distance and witness comes from one core, ``_walls``: one separator
set per pair, one order per sign it needs, one longest chain per kind, and
the one-family plus-one rule.  The aligned and the Reeb kind of one sign (d+
and dR+, d- and dR-) count the same separators, the pair's bitset under one
sign mask, ordered by depth from the same first point, so they share one
order; only admissibility tells them apart.
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


def _ranked(p: FinitePattern, px: Point, seps: int) -> list:
    """The separator bits as (depth from px, leaf id, bit), in order."""
    if not seps:
        return []
    ids = p._table.ids
    return sorted([(d, ids[i], i) for i, d in p._depths(px, seps).items()])


def _longest_chain(p: FinitePattern, kind: str, order: list) -> tuple[str, ...]:
    """The least longest admissible family among the separator bits of an
    order from ``_ranked``: a longest path over them in the nestedness
    order, by (depth, leaf id), as consecutive admissibility implies pairwise
    admissibility for nested families (property-tested).  Admissibility is a
    bit test: no common transversal, or for Reeb kinds no edge in the gamma
    rows.  Each bit takes the first admissible shallower chain in key order,
    (minus length, chain), so the least key is the least longest chain."""
    if not order:
        return ()
    t = p._table
    ids, cross = t.ids, t.cross
    gk = _GRAPH_OF.get(kind)
    gamma = gr.gamma_rows(p, gk) if gk in gr._GAMMA else None
    ranked = []  # (key, depth, bit) of the chains found so far, least key first
    for dl, _, l in order:
        cross_l, top = cross[l], (0, ())
        bad = cross_l if gamma is None else cross_l | gamma[l]
        for key, dm, m in ranked:
            if dm < dl and not bad >> m & 1 and (gamma is not None or
                                                not cross[m] & cross_l):
                top = key
                break
        bisect.insort(ranked, ((top[0] - 1, top[1] + (ids[l],)), dl, l))
    return ranked[0][0][1]


def _separators(p: FinitePattern, px: Point, py: Point) -> int:
    """The bitset of the leaves separating two points; none for one point
    twice.  Distinct points that no leaf separates are degenerate input."""
    if px.key() == py.key():
        return 0
    seps = p._point_seps(px, py)
    if not seps:
        raise DegenerateInputError(
            f"no leaf of the truncation separates {px.id} from {py.id}")
    return seps


def _walls(p: FinitePattern, px: Point, py: Point, kinds) -> dict:
    """{kind: (wall distance, least longest admissible chain)} between two
    points for each of ``kinds``: the chain's length, plus one for the
    one-family kinds between distinct points; for one point twice, zero and
    the empty chain.  Distinct points that no leaf separates are degenerate
    input."""
    for kind in kinds:
        if kind not in KINDS:
            raise PreconditionError(f"unknown metric kind {kind!r}")
    seps, orders, walls = _separators(p, px, py), {}, {}
    for kind in kinds:
        sign = _SIGN_OF[kind]
        if sign not in orders:
            orders[sign] = _ranked(p, px, _of_kind(p, seps, kind))
        chain = _longest_chain(p, kind, orders[sign])
        # distinct points are the ones with separators
        walls[kind] = (len(chain) + 1 if seps and sign else len(chain)), chain
    return walls


def longest_chain_witness(p: FinitePattern, x, y, kind: str) -> AlignedFamily:
    """A maximal admissible separating family realizing the supremum; empty
    for one point twice."""
    px, py = p.point(x), p.point(y)
    return AlignedFamily(kind, _walls(p, px, py, (kind,))[kind][1])


def wall_distance(p: FinitePattern, x, y, kind: str) -> int:
    """The supremum of ``longest_chain_witness``, plus one for the
    one-family kinds between distinct points."""
    return _walls(p, p.point(x), p.point(y), (kind,))[kind][0]


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
    pairs = list(itertools.combinations(crossings, 2))
    walls = [_walls(p, a, b, _GRAPH_OF) for a, b in pairs]
    checks, violations, disconnected = [], [], []
    for kind, gk in _GRAPH_OF.items():
        G = gr.build_graph(p, gk)
        attr = "plus_leaf" if _SIGN_OF[kind] == PLUS else "minus_leaf"
        for (a, b), dws in zip(pairs, walls):
            la, lb, dw = getattr(a, attr), getattr(b, attr), dws[kind][0]
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
