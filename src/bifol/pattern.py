"""Finite chord-diagram models of a plane with two transverse foliations.

A pattern is a truncation of such a plane drawn in a closed disc: every leaf
is recorded only through its endpoints on the boundary circle, so all
structural questions (does a leaf of one family cross a leaf of the other,
does a leaf separate two others, which complementary region holds a marked
point) reduce to exact cyclic-order arithmetic on boundary labels.

Each pattern derives one relation table from its boundary labels, once, on
first use: the sorted endpoint positions of every leaf, the face of every
boundary position per leaf, and a crossing bitset per leaf with a mask of the
nonsingular leaves.  Crossing is then one bit test, separation a comparison
of two faces, and a common transversal of two leaves the AND of their
crossing bitsets.

Conventions baked into the model:

* leaves of the same family never cross, and two distinct leaves may share a
  boundary endpoint only across families -- a shared endpoint encodes a
  perfect fit between the two rays;
* a crossing pair of opposite-family leaves meets exactly once, so endpoint
  configurations that would force a second crossing are validation errors;
* non-separation of two same-family leaves cannot be witnessed by a finite
  truncation and is therefore *declared* input data, checked against the two
  finitary necessary conditions (no same-family separator, no common
  transversal).
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

PLUS = "plus"
MINUS = "minus"
SIGNS = (PLUS, MINUS)


class BifolError(Exception):
    """Base class for all structured errors raised by this package."""


class InvalidPatternError(BifolError):
    """Pattern data violates a structural invariant."""


class UnknownIdError(BifolError, KeyError):
    """A leaf/point/vertex id is not present in the pattern."""


class PreconditionError(BifolError):
    """Operation called on inputs outside its stated domain."""


class DegenerateInputError(BifolError):
    """Distinct inputs that the truncation cannot tell apart."""


class Mode(str, Enum):
    """Block-splitting rule for pseudo-interval decompositions."""

    NONSEP = "nonsep"
    PRONG = "prong"


@dataclass(frozen=True)
class Leaf:
    id: str
    sign: str
    endpoints: tuple[str, ...]

    def __post_init__(self):
        if self.sign not in SIGNS:
            raise InvalidPatternError(f"leaf {self.id}: bad sign {self.sign!r}")

    @property
    def k(self) -> int:
        return len(self.endpoints)

    @property
    def is_singular(self) -> bool:
        return self.k >= 3


@dataclass(frozen=True)
class Singularity:
    plus_leaf: str
    minus_leaf: str

    def leaves(self) -> tuple[str, str]:
        return (self.plus_leaf, self.minus_leaf)


@dataclass(frozen=True)
class Point:
    """A marked point, located either at a crossing or inside a region.

    A region point is anchored in the boundary gap immediately
    counterclockwise of ``anchor``; its side assignment for every leaf is the
    complementary region whose boundary arc contains that gap, so the
    assignment is consistent by construction.
    """

    id: str
    kind: str  # "crossing" | "region"
    plus_leaf: str | None = None
    minus_leaf: str | None = None
    anchor: str | None = None

    @staticmethod
    def crossing(pid: str, plus_leaf: str, minus_leaf: str) -> "Point":
        return Point(pid, "crossing", plus_leaf=plus_leaf, minus_leaf=minus_leaf)

    @staticmethod
    def region(pid: str, anchor: str) -> "Point":
        return Point(pid, "region", anchor=anchor)

    def on_leaf(self, leaf_id: str) -> bool:
        return self.kind == "crossing" and leaf_id in (self.plus_leaf, self.minus_leaf)

    def key(self):
        if self.kind == "crossing":
            return ("crossing", self.plus_leaf, self.minus_leaf)
        return ("region", self.anchor)


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[str, ...]

    def __str__(self):
        return f"{self.rule}: {', '.join(self.subjects)}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class PseudoInterval:
    """Ordered separator set between two same-family leaves, with blocks.

    ``chain`` lists source, separators in separation order, target.  Blocks
    partition the chain; consecutive blocks split at declared nonseparated
    pairs (NONSEP mode) or at dividing prongs (PRONG mode, where the prong
    leaf ends one block and starts the next).
    """

    source: str
    target: str
    separators: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    mode: Mode

    @property
    def chain(self) -> tuple[str, ...]:
        if self.source == self.target:
            return (self.source,)
        return (self.source,) + self.separators + (self.target,)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_interval(self) -> bool:
        return self.n_blocks == 1


@dataclass(frozen=True)
class Lozenge:
    """Four leaves bounding a product-foliated rectangle.

    ``fit1`` pairs plus1 with minus1 at a shared endpoint, ``fit2`` pairs plus2
    with minus2; the two crossings plus1 x minus2 and plus2 x minus1 are the
    corners.
    """

    plus1: str
    minus1: str
    plus2: str
    minus2: str

    @property
    def corners(self) -> tuple[frozenset, frozenset]:
        return (frozenset((self.plus1, self.minus2)),
                frozenset((self.plus2, self.minus1)))

    @property
    def sides(self) -> tuple[str, str, str, str]:
        return (self.plus1, self.plus2, self.minus1, self.minus2)

    def key(self):
        return frozenset((frozenset((self.plus1, self.minus1)),
                          frozenset((self.plus2, self.minus2))))


@dataclass(frozen=True)
class LozengeReport:
    lozenges: tuple[Lozenge, ...]
    chains: tuple[tuple[int, ...], ...]  # indices into lozenges
    corners: frozenset  # frozensets {plus,minus} that are lozenge corners
    chain_quadrant_flags: tuple[bool, ...]  # per chain: quadrant spread violation


class _ById(dict):
    """Leaf-id keyed table column; a missing id is an UnknownIdError."""

    def __missing__(self, leaf_id):
        raise UnknownIdError(f"unknown leaf {leaf_id!r}")


class _Relations(NamedTuple):
    """Every leaf relation of a pattern, derived once from its boundary
    labels.  Face i of a leaf is the open boundary arc from its i-th to its
    (i+1)-th endpoint, counterclockwise (the last face wraps round); bit i of
    a bitset stands for ``leaf_ids()[i]``."""

    index: _ById      # leaf id -> bit position
    ep: _ById         # leaf id -> sorted endpoint positions
    face: _ById       # leaf id -> face of every circle position, None on its endpoints
    cross: _ById      # leaf id -> bitset of the leaves crossing it
    nonsingular: int  # bitset of the leaves with two endpoints


class FinitePattern:
    """A validated chord diagram: boundary circle, signed leaves, declarations.

    Instances are immutable after construction.  The relation table is
    derived once from the boundary labels on the first query and never
    changes after; every query is a pure function of it.
    """

    def __init__(self, boundary, leaves, singularities=(), nonseparated=(),
                 points=()):
        self.boundary: tuple[str, ...] = tuple(boundary)
        self._pos = {lab: i for i, lab in enumerate(self.boundary)}
        if len(self._pos) != len(self.boundary):
            raise InvalidPatternError("duplicate boundary labels")
        self.leaves: dict[str, Leaf] = {}
        for lf in leaves:
            if lf.id in self.leaves:
                raise InvalidPatternError(f"duplicate leaf id {lf.id}")
            self.leaves[lf.id] = lf
        self.singularities: tuple[Singularity, ...] = tuple(singularities)
        self.nonseparated: frozenset[frozenset] = frozenset(
            frozenset(p) for p in nonseparated)
        self.points: dict[str, Point] = {}
        for pt in points:
            if pt.id in self.points:
                raise InvalidPatternError(f"duplicate point id {pt.id}")
            self.points[pt.id] = pt
        self._singular_pairs = {frozenset(s.leaves()) for s in self.singularities}
        self._sing_by_leaf = {}
        for s in self.singularities:
            for lid in s.leaves():
                self._sing_by_leaf.setdefault(lid, []).append(s)

    # -- low level circle arithmetic ------------------------------------

    @property
    def n(self) -> int:
        return len(self.boundary)

    def pos(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise UnknownIdError(f"unknown boundary label {label!r}") from None

    def leaf(self, leaf_id: str) -> Leaf:
        try:
            return self.leaves[leaf_id]
        except KeyError:
            raise UnknownIdError(f"unknown leaf {leaf_id!r}") from None

    def leaf_ids(self, sign: str | None = None):
        if sign is None:
            return list(self.leaves)
        return [lid for lid, lf in self.leaves.items() if lf.sign == sign]

    def endpoint_positions(self, leaf_id: str) -> tuple[int, ...]:
        return self._table.ep[leaf_id]

    def arc_index_of_position(self, leaf_id: str, x: int) -> int | None:
        """Index of the open arc of ``leaf_id`` containing circle position x,
        or None when x is an endpoint of the leaf."""
        return self._table.face[leaf_id][x]

    def arc_index_of_gap(self, leaf_id: str, anchor_pos: int) -> int:
        """Arc of ``leaf_id`` containing the gap just ccw of ``anchor_pos``."""
        t = self._table
        face = t.face[leaf_id][anchor_pos]
        return t.ep[leaf_id].index(anchor_pos) if face is None else face

    def _spread(self, over: str, target: str) -> set[int]:
        """Arc indices of ``target`` that contain endpoints of ``over``
        (shared endpoints excluded)."""
        t = self._table
        face = t.face[target]
        out = {face[x] for x in t.ep[over]}
        out.discard(None)
        return out

    @functools.cached_property
    def _table(self) -> _Relations:
        """The relation table, derived from the boundary labels on first use
        (not in ``__init__``, so ``validate`` can report bad labels)."""
        n = self.n
        index, ep, face = _ById(), _ById(), _ById()
        nonsingular = 0
        for i, lf in enumerate(self.leaves.values()):
            index[lf.id] = i
            nonsingular |= (not lf.is_singular) << i
            e = ep[lf.id] = tuple(sorted(self.pos(x) for x in lf.endpoints))
            row = [len(e) - 1] * e[0]
            for j, (a, b) in enumerate(zip(e, e[1:] + (n,))):
                row += [None] + [j] * (b - a - 1)
            face[lf.id] = row
        cross = _ById.fromkeys(index, 0)
        by_sign = {sign: self.leaf_ids(sign) for sign in SIGNS}
        for sign, other in ((PLUS, MINUS), (MINUS, PLUS)):
            for t in by_sign[sign]:
                ft, bit = face[t], 1 << index[t]
                for a in by_sign[other]:
                    hit = {ft[x] for x in ep[a]}
                    hit.discard(None)
                    if len(hit) >= 2:
                        cross[a] |= bit
        return _Relations(index, ep, face, cross, nonsingular)

    # -- relations --------------------------------------------------------

    def intersects(self, l1: str, l2: str) -> bool:
        """True iff the two leaves cross: signs differ and some two endpoints
        of ``l2`` lie in two distinct open arcs of the circle minus ``l1``."""
        t = self._table
        return bool(t.cross[l2] >> t.index[l1] & 1)

    def common_transversal(self, a: str, b: str, nonsingular: bool = False) -> int:
        """Bitset of the leaves crossing both ``a`` and ``b`` (bit i stands
        for ``leaf_ids()[i]``), only the nonsingular ones on request; zero iff
        the two leaves have no common transversal."""
        t = self._table
        both = t.cross[a] & t.cross[b]
        return both & t.nonsingular if nonsingular else both

    def perfect_fits(self) -> list[tuple[tuple[str, str], tuple[str, str]]]:
        """Shared-endpoint ray pairs, as ((plus_id,label),(minus_id,label))."""
        by_label: dict[str, list[str]] = {}
        for lf in self.leaves.values():
            for e in lf.endpoints:
                by_label.setdefault(e, []).append(lf.id)
        fits = []
        for label, ids in sorted(by_label.items()):
            if len(ids) < 2:
                continue
            plus = sorted(i for i in ids if self.leaves[i].sign == PLUS)
            minus = sorted(i for i in ids if self.leaves[i].sign == MINUS)
            for p in plus:
                for m in minus:
                    fits.append(((p, label), (m, label)))
        return fits

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        v: list[Violation] = []
        # endpoints well formed and in cyclic order
        for lf in self.leaves.values():
            if len(set(lf.endpoints)) != len(lf.endpoints) or lf.k < 2:
                v.append(Violation("leaf endpoints not distinct", (lf.id,)))
                continue
            for e in lf.endpoints:
                if e not in self._pos:
                    v.append(Violation("endpoint label not on boundary", (lf.id, e)))
                    break
            else:
                pos = [self.pos(e) for e in lf.endpoints]
                rot = pos.index(min(pos))
                if pos[rot:] + pos[:rot] != sorted(pos):
                    v.append(Violation("endpoints not in cyclic order", (lf.id,)))
        if v:
            return ValidationReport(tuple(v))

        # singularity records
        seen_singular = set()
        for s in self.singularities:
            for lid, sign in ((s.plus_leaf, PLUS), (s.minus_leaf, MINUS)):
                if lid not in self.leaves:
                    v.append(Violation("singularity names unknown leaf", (lid,)))
                    break
                if self.leaves[lid].sign != sign:
                    v.append(Violation("singularity leaf has wrong sign", (lid,)))
            else:
                p, m = self.leaves[s.plus_leaf], self.leaves[s.minus_leaf]
                if p.k != m.k or p.k < 3:
                    v.append(Violation("singularity prong counts mismatch or < 3",
                                       s.leaves()))
                else:
                    merged = sorted(
                        [(self.pos(e), PLUS) for e in p.endpoints]
                        + [(self.pos(e), MINUS) for e in m.endpoints])
                    if any(merged[i][1] == merged[(i + 1) % len(merged)][1]
                           for i in range(len(merged))):
                        v.append(Violation("singularity endpoints do not alternate",
                                           s.leaves()))
                seen_singular.update(s.leaves())
        for lf in self.leaves.values():
            if lf.is_singular and lf.id not in seen_singular:
                v.append(Violation("singular leaf lacks singularity record", (lf.id,)))
        counts: dict[str, int] = {}
        for s in self.singularities:
            for lid in s.leaves():
                counts[lid] = counts.get(lid, 0) + 1
        for lid, c in counts.items():
            if c > 1:
                v.append(Violation("leaf in several singularity records", (lid,)))

        # pairwise endpoint / crossing structure
        ids = sorted(self.leaves)
        for l1, l2 in itertools.combinations(ids, 2):
            a, b = self.leaves[l1], self.leaves[l2]
            shared = set(a.endpoints) & set(b.endpoints)
            s12, s21 = self._spread(l2, l1), self._spread(l1, l2)
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
            if frozenset((l1, l2)) in self._singular_pairs:
                continue  # alternation already checked above
            for spread, host in ((s12, l1), (s21, l2)):
                if len(spread) >= 3:
                    v.append(Violation("forced multiple crossing", (l1, l2)))
                    break
                if len(spread) == 2:
                    k = self.leaves[host].k
                    i, j = sorted(spread)
                    if k > 2 and not (j - i == 1 or (i == 0 and j == k - 1)):
                        v.append(Violation("forced double crossing", (l1, l2)))
                        break

        # declared nonseparated pairs
        for pair in sorted(self.nonseparated, key=sorted):
            pl = sorted(pair)
            if len(pl) != 2:
                v.append(Violation("nonseparated pair not a pair", tuple(pl)))
                continue
            l1, l2 = pl
            if l1 not in self.leaves or l2 not in self.leaves:
                v.append(Violation("nonseparated pair names unknown leaf", (l1, l2)))
                continue
            if self.leaves[l1].sign != self.leaves[l2].sign:
                v.append(Violation("nonseparated pair has mixed signs", (l1, l2)))
                continue
            sign = self.leaves[l1].sign
            for m in self.leaf_ids(sign):
                if m in (l1, l2):
                    continue
                if self._separates(m, l1, l2):
                    v.append(Violation("nonseparated pair separated by same-sign leaf",
                                       (l1, l2, m)))
            common = self.common_transversal(l1, l2)
            for i, t in enumerate(self.leaves):
                if common >> i & 1:
                    v.append(Violation("nonseparated pair has common transversal",
                                       (l1, l2, t)))

        # marked points
        for pt in self.points.values():
            if pt.kind == "crossing":
                if (pt.plus_leaf not in self.leaves
                        or pt.minus_leaf not in self.leaves):
                    v.append(Violation("point names unknown leaf", (pt.id,)))
                elif (self.leaves[pt.plus_leaf].sign != PLUS
                        or self.leaves[pt.minus_leaf].sign != MINUS):
                    v.append(Violation("crossing point signs wrong", (pt.id,)))
                elif not self.intersects(pt.plus_leaf, pt.minus_leaf):
                    v.append(Violation("crossing point leaves do not intersect",
                                       (pt.id,)))
            else:
                if pt.anchor not in self._pos:
                    v.append(Violation("region point anchor not on boundary",
                                       (pt.id,)))

        # separator order must be strict on every same-sign pair; the full
        # quartic sweep is bounded to desk-size patterns, larger ones are
        # still rejected lazily by separator_chain at query time
        if not v and len(self.leaves) <= 36:
            for sign in SIGNS:
                for x, y in itertools.combinations(sorted(self.leaf_ids(sign)), 2):
                    try:
                        self.separator_chain(x, y)
                    except InvalidPatternError:
                        v.append(Violation("incomparable separators (non-planar data)",
                                           (x, y)))
        return ValidationReport(tuple(v))

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise InvalidPatternError(str(rep))
        return self

    # -- separation -------------------------------------------------------

    def _separates(self, m: str, l1: str, l2: str) -> bool:
        # unchecked core: all same sign, pairwise distinct and disjoint
        t = self._table
        face = t.face[m]
        return face[t.ep[l1][0]] != face[t.ep[l2][0]]

    def separates_leaves(self, m: str, l1: str, l2: str) -> bool:
        """Does leaf ``m`` separate ``l1`` from ``l2`` in the plane?

        All three must be pairwise distinct, same-sign, pairwise disjoint.
        """
        sm, s1, s2 = (self.leaf(x).sign for x in (m, l1, l2))
        if not (sm == s1 == s2):
            raise PreconditionError("separates_leaves requires same-sign leaves")
        if len({m, l1, l2}) != 3:
            raise PreconditionError("separates_leaves requires distinct leaves")
        return self._separates(m, l1, l2)

    def _face_of_point(self, pt: Point, leaf_id: str) -> int | None:
        """Arc index of ``leaf_id``'s face containing the point; None if the
        point lies on the leaf."""
        if pt.on_leaf(leaf_id):
            return None
        if pt.kind == "crossing":
            same = pt.plus_leaf if self.leaf(leaf_id).sign == PLUS else pt.minus_leaf
            t = self._table
            return t.face[leaf_id][t.ep[same][0]]
        return self.arc_index_of_gap(leaf_id, self.pos(pt.anchor))

    def point(self, pid_or_point) -> Point:
        if isinstance(pid_or_point, Point):
            return pid_or_point
        try:
            return self.points[pid_or_point]
        except KeyError:
            raise UnknownIdError(f"unknown point {pid_or_point!r}") from None

    def separates_point(self, leaf_id: str, x, y) -> bool:
        """Leaf-separation of two marked points, with the convention that a
        point lying on the leaf is separated from any point off the leaf."""
        px, py = self.point(x), self.point(y)
        self.leaf(leaf_id)
        if px.key() == py.key():
            return False
        on_x, on_y = px.on_leaf(leaf_id), py.on_leaf(leaf_id)
        if on_x and on_y:
            return False
        if on_x or on_y:
            return True
        return self._face_of_point(px, leaf_id) != self._face_of_point(py, leaf_id)

    # -- pseudo-intervals --------------------------------------------------

    def separator_chain(self, x: str, y: str) -> list[str]:
        """Leaves separating x from y, ordered from the x side to the y side."""
        sx, sy = self.leaf(x).sign, self.leaf(y).sign
        if sx != sy:
            raise PreconditionError("pseudo-interval endpoints must share a sign")
        if x == y:
            return []
        ids_s = self.leaf_ids(sx)
        seps = [m for m in ids_s if m not in (x, y) and self._separates(m, x, y)]
        depth = {}
        for m in seps:
            depth[m] = sum(1 for m2 in seps if m2 != m and self._separates(m2, x, m))
        if len(set(depth.values())) != len(depth):
            raise InvalidPatternError(
                f"incomparable separators between {x} and {y} (non-planar data)")
        return sorted(seps, key=lambda m: depth[m])

    def _prong_divides_chain(self, sing: Singularity, left: str, right: str) -> bool:
        try:
            return self.is_dividing_prong(sing, left, right)
        except PreconditionError:
            return False

    def pseudo_interval(self, x: str, y: str, mode: Mode = Mode.NONSEP) -> PseudoInterval:
        """Separator chain between x and y with its canonical block structure."""
        mode = Mode(mode)
        if x == y:
            return PseudoInterval(x, y, (), ((x,),), mode)
        seps = self.separator_chain(x, y)
        chain = [x] + seps + [y]
        blocks: list[list[str]] = [[chain[0]]]
        if mode is Mode.NONSEP:
            for prev, cur in zip(chain, chain[1:]):
                if frozenset((prev, cur)) in self.nonseparated:
                    blocks.append([cur])
                else:
                    blocks[-1].append(cur)
        else:
            prev_split = x
            for cur in chain[1:]:
                sings = self._sing_by_leaf.get(cur, [])
                divides = bool(sings) and self.leaf(cur).sign == PLUS and \
                    self._prong_divides_chain(sings[0], prev_split, y)
                if divides:
                    blocks[-1].append(cur)   # prong closes this block ...
                    blocks.append([cur])     # ... and opens the next one
                    prev_split = cur
                else:
                    blocks[-1].append(cur)
        return PseudoInterval(x, y, tuple(seps),
                              tuple(tuple(b) for b in blocks), mode)

    # -- quadrants and prongs ----------------------------------------------

    def _quadrants(self, plus_id: str, minus_id: str) -> list[tuple[int, int]]:
        pts = sorted(self.endpoint_positions(plus_id)
                     + self.endpoint_positions(minus_id))
        return [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]

    def _ray_crossed(self, leaf_id: str, target_id: str) -> int | None:
        """Boundary position of the single ray of ``target_id`` crossed by
        ``leaf_id``, or None when they do not cross."""
        if not self.intersects(leaf_id, target_id):
            return None
        spread = sorted(self._spread(leaf_id, target_id))
        ep = self._table.ep[target_id]
        if len(spread) != 2:
            return None  # singularity partner: crossing at the singular point
        i, j = spread
        if j - i == 1:
            return ep[j]  # the ray between faces i and j
        if i == 0 and j == len(ep) - 1:
            return ep[0]
        return None

    def quadrant_incidence(self, plus_id: str, minus_id: str,
                           leaf_id: str) -> set[int]:
        """Quadrant indices (arcs of plus+minus endpoints) met by a leaf:
        arcs holding one of its endpoints, plus both quadrants flanking any
        crossed bounding ray."""
        quads = self._quadrants(plus_id, minus_id)
        npts = len(quads)
        met = set()
        if leaf_id in (plus_id, minus_id):
            return set(range(npts))
        starts = [a for a, _ in quads]
        for x in self.endpoint_positions(leaf_id):
            i = bisect.bisect_left(starts, x)
            if i == npts or starts[i] != x:
                met.add((i - 1) % npts)  # x lies in (starts[i - 1], starts[i])
        for bound in (plus_id, minus_id):
            ray = self._ray_crossed(leaf_id, bound)
            if ray is None:
                continue
            for qi, (a, b) in enumerate(quads):
                if a == ray or b == ray:
                    met.add(qi)
        return met

    def faces_and_quadrants(self, sing: Singularity):
        """The 2k quadrants of a singularity, in cyclic order, together with
        the per-leaf incidence map."""
        if frozenset(sing.leaves()) not in self._singular_pairs:
            raise UnknownIdError("singularity not in pattern")
        quads = self._quadrants(sing.plus_leaf, sing.minus_leaf)
        incidence = {lid: self.quadrant_incidence(sing.plus_leaf, sing.minus_leaf, lid)
                     for lid in self.leaves
                     if lid not in sing.leaves()}
        return quads, incidence

    def quadrants_of_crossing(self, plus_id: str, minus_id: str):
        """Quadrant view of a regular crossing (the degenerate two-prong case
        gets its own entry point; singularity records are never built for it)."""
        if not self.intersects(plus_id, minus_id):
            raise PreconditionError("leaves do not cross")
        quads = self._quadrants(plus_id, minus_id)
        incidence = {lid: self.quadrant_incidence(plus_id, minus_id, lid)
                     for lid in self.leaves if lid not in (plus_id, minus_id)}
        return quads, incidence

    def is_dividing_prong(self, sing: Singularity, x: str, y: str) -> bool:
        """Does the singularity's plus leaf divide x from y, in the sense of
        the five-quadrant buffer criterion?"""
        lx, ly = self.leaf(x), self.leaf(y)
        if lx.sign != PLUS or ly.sign != PLUS:
            raise PreconditionError("dividing-prong test requires plus leaves")
        if x in sing.leaves() or y in sing.leaves() or x == y:
            raise PreconditionError("x, y must be distinct from the prong")
        if not self._separates(sing.plus_leaf, x, y):
            raise PreconditionError("prong leaf must separate x from y")
        quads = self._quadrants(sing.plus_leaf, sing.minus_leaf)
        nq = len(quads)
        inc_x = self.quadrant_incidence(sing.plus_leaf, sing.minus_leaf, x)
        if len(inc_x) != 1:
            return False
        q1 = next(iter(inc_x))
        forbidden = {(q1 + d) % nq for d in (-2, -1, 0, 1, 2)}
        inc_y = self.quadrant_incidence(sing.plus_leaf, sing.minus_leaf, y)
        return not (inc_y & forbidden)

    # -- partial linking ----------------------------------------------------

    def partially_linked(self, a, b) -> bool:
        """Exactly one of the two cross-family intersections between the leaf
        pairs through two crossing points is nonempty."""
        pa, pb = self.point(a), self.point(b)
        if pa.kind != "crossing" or pb.kind != "crossing":
            raise PreconditionError("partial linking is defined for crossing points")
        if pa.key() == pb.key():
            raise PreconditionError("partial linking needs two distinct points")
        first = self.intersects(pa.plus_leaf, pb.minus_leaf)
        second = self.intersects(pa.minus_leaf, pb.plus_leaf)
        return first != second

    # -- lozenges ------------------------------------------------------------

    def detect_lozenges(self) -> LozengeReport:
        fits = self.perfect_fits()
        lozenges: list[Lozenge] = []
        seen = set()
        for (p1, _), (m1, _) in fits:
            for (p2, _), (m2, _) in fits:
                if len({p1, p2, m1, m2}) != 4:
                    continue
                if not (self.intersects(p1, m2) and self.intersects(p2, m1)):
                    continue
                loz = Lozenge(p1, m1, p2, m2)
                if loz.key() in seen:
                    continue
                seen.add(loz.key())
                lozenges.append(loz)
        lozenges.sort(key=lambda L: (L.plus1, L.plus2))

        # chains: lozenges sharing a corner or a side leaf
        parent = list(range(len(lozenges)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in itertools.combinations(range(len(lozenges)), 2):
            li, lj = lozenges[i], lozenges[j]
            if (set(li.corners) & set(lj.corners)) or (set(li.sides) & set(lj.sides)):
                parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(len(lozenges)):
            groups.setdefault(find(i), []).append(i)
        chains = tuple(tuple(sorted(g)) for g in
                       sorted(groups.values(), key=lambda g: g[0]))

        corners = frozenset(c for L in lozenges for c in L.corners)

        flags = []
        for chain in chains:
            flagged = False
            chain_leaves = {lid for i in chain for lid in lozenges[i].sides}
            chain_corners = {c for i in chain for c in lozenges[i].corners}
            for s in self.singularities:
                if frozenset(s.leaves()) in chain_corners:
                    continue
                quads = self._quadrants(s.plus_leaf, s.minus_leaf)
                nq = len(quads)
                met = set()
                for lid in chain_leaves:
                    if lid in s.leaves():
                        met = set(range(nq))
                        break
                    met |= self.quadrant_incidence(s.plus_leaf, s.minus_leaf, lid)
                if met and not _is_cyclic_run(met, nq, 3):
                    flagged = True
            flags.append(flagged)
        return LozengeReport(tuple(lozenges), chains, corners, tuple(flags))


def _is_cyclic_run(indices: set[int], n: int, max_len: int) -> bool:
    """Is the index set contained in max_len cyclically consecutive slots?"""
    if len(indices) > max_len:
        return False
    for start in indices:
        run = {(start + d) % n for d in range(max_len)}
        if indices <= run:
            return True
    return False

