"""Finite chord-diagram models of a plane with two transverse foliations.

A pattern is a truncation of such a plane drawn in a closed disc: every leaf
is recorded only through its endpoints on the boundary circle, so all
structural questions (does a leaf of one family cross a leaf of the other,
does a leaf separate two others, which complementary region holds a marked
point) reduce to exact cyclic-order arithmetic on boundary labels.

Each pattern derives one relation table from its boundary labels, once, on
first use: the sorted endpoint positions of every leaf, the face planes of
every boundary gap, a crossing bitset per leaf, the leaves ending at each
boundary position and masks of the nonsingular, plus and minus leaves.  The
face planes say, for every leaf at once, which of its faces holds a gap: the
face index is written in binary across as many planes as the largest index
needs (one when no leaf is singular), each plane a bitset over the leaves.
One sweep round the circle writes them, every leaf starting on its last face
and stepping to the next at each of its endpoints, so they cost O(n + k)
bitset operations for n positions and k leaves.  Two spots off a leaf lie on
different faces of it iff its bit differs in some plane, one rule for
singular and nonsingular leaves alike: the leaves separating two leaves or
two points are the planes of an XOR folded into one bitset, and a leaf
crosses a leaf of the other sign iff two of its endpoints differ there.
Meeting two faces of a leaf of the same sign is a same-sign crossing; the
table keeps those few, so validation examines only the pairs of leaves that
can break a rule.  Crossing is then one bit test and a common transversal of
two leaves the AND of their crossing bitsets, so the leaves separating two
leaves or two points cost O(k) integer operations, and so does the depth of
each of them from a leaf or a point: one depth rule orders separator chains,
wall chains and axes.

Records (``Leaf``, ``Point``, ...) check nothing when built: ``validate``,
run where file data enters, is the one check of a finite pattern.

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
import operator
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


class UsageError(PreconditionError):
    """An argument is malformed, or names nothing the callee knows."""


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


@dataclass(frozen=True)
class LozengeReport:
    lozenges: tuple[Lozenge, ...]
    chains: tuple[tuple[int, ...], ...]  # indices into lozenges
    corners: frozenset  # frozensets {plus,minus} that are lozenge corners
    chain_quadrant_flags: tuple[bool, ...]  # per chain: quadrant spread violation


class _ById(dict):
    """A table keyed by the ids of one kind of name, the noun; a missing id
    is an UnknownIdError naming the noun and the id."""

    __slots__ = ("noun",)  # no instance dict: every relation table has two

    def __init__(self, noun: str):
        self.noun = noun

    def __missing__(self, key):
        raise UnknownIdError(f"unknown {self.noun} {key!r}")


class _Relations(NamedTuple):
    """Every leaf relation of a pattern, derived once from its boundary
    labels.  Face i of a leaf is the open boundary arc from its i-th to its
    (i+1)-th endpoint, counterclockwise (the last face wraps round); bit i of
    a bitset stands for ``leaf_ids()[i]``.

    ``gap[x]`` writes, for every leaf, the index of its face that holds the
    gap just counterclockwise of position x, in binary across width
    planes, width the bit length of the largest face index (at least one):
    with k leaves, bit b of leaf i's index is bit b k + i of the word.  A
    position off a leaf lies on the face of the gap after it, so two spots
    off m lie on different faces of m iff m's bit differs in some plane, and
    ``fold(gap[x] ^ gap[y])`` holds every leaf off both that separates them.
    A leaf disjoint from m is read at its first endpoint, a region point at
    its anchor, and a crossing point of P and M at P's first endpoint for
    the plus leaves and at M's for the minus leaves."""

    ids: tuple        # bit position -> leaf id
    index: _ById      # leaf id -> bit position
    ep: _ById         # leaf id -> sorted endpoint positions
    gap: list         # circle position -> face planes of the gap after it
    planes: int       # bit 0 of every plane: mask * planes copies a bitset
                      # into each
    cross: list       # bit position -> bitset of the leaves crossing it
    ends: list        # circle position -> bitset of the leaves ending there
    nonsingular: int  # bitset of the leaves with two endpoints
    plus: int         # bitset of the plus leaves
    minus: int        # bitset of the minus leaves
    nonsep: tuple     # two-bit mask of every declared nonseparated pair
    tangled: list     # (leaf id, bitset of the leaves of its own family
                      # holding its endpoints on two faces), only the nonzero
                      # ones: empty on a valid pattern

    def fold(self, word: int) -> int:
        """The leaves with a set bit in some plane of ``word``."""
        k = len(self.ids)
        while word >> k:
            word = word & (self.plus | self.minus) | word >> k
        return word

    def face(self, leaf_id: str, x: int) -> int:
        """The face of ``leaf_id`` holding the gap just counterclockwise of
        position x."""
        k, word = len(self.ids), self.gap[x] >> self.index[leaf_id]
        out = b = 0
        while word:
            out |= (word & 1) << b
            word >>= k
            b += 1
        return out


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePattern:
    """A validated chord diagram: boundary circle, signed leaves, declarations.

    Instances are immutable after construction.  The relation table is
    derived once from the boundary labels on the first query, and each leaf
    graph once per kind by ``graphs.build_graph``; neither changes after, and
    every query is a pure function of them.
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
        self._graphs = {}  # graph kind -> LeafGraph, filled by graphs.build_graph
        self._gamma = {}  # gamma kind -> adjacency bitsets, by graphs.gamma_rows

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

    def _spread(self, over: str, target: str) -> set[int]:
        """Arc indices of ``target`` that contain endpoints of ``over``
        (shared endpoints excluded)."""
        t = self._table
        e = t.ep[target]
        return {t.face(target, x) for x in t.ep[over] if x not in e}

    @functools.cached_property
    def _table(self) -> _Relations:
        """The relation table, derived from the boundary labels on first use
        (not in ``__init__``, so ``validate`` can report bad labels)."""
        n, k = self.n, len(self.leaves)
        everything = (1 << k) - 1
        kmax = max((len(lf.endpoints) for lf in self.leaves.values()), default=2)
        width = max(1, (kmax - 1).bit_length())

        def lift(c):  # a face index, written across the planes
            return sum((c >> b & 1) << b * k for b in range(width))

        # a leaf with d endpoints starts on face d - 1 and steps from face
        # j - 1 to face j at its j-th endpoint: steps[d] holds the first face
        # and the plane bits each endpoint flips, lifted
        planes, steps = lift((1 << width) - 1), {}
        index, ep = _ById("leaf"), _ById("leaf")
        nonsingular = plus = word = 0
        ends, flip = [0] * n, [0] * n
        for i, lf in enumerate(self.leaves.values()):
            index[lf.id] = i
            plus |= (lf.sign == PLUS) << i
            e = ep[lf.id] = tuple(sorted(map(self.pos, lf.endpoints)))
            d = len(e)
            nonsingular |= (d < 3) << i
            if d not in steps:
                steps[d] = lift(d - 1), [lift(j ^ (j - 1) % d) for j in range(d)]
            first, flips = steps[d]
            word |= first << i
            for x, f in zip(e, flips):
                ends[x] |= 1 << i
                flip[x] |= f << i
        gap = list(itertools.accumulate(flip, operator.xor, initial=word))[1:]
        nonsep = tuple(sum(1 << index[l] for l in pair)
                       for pair in self.nonseparated
                       if len(pair) == 2 and all(l in index for l in pair))
        t = _Relations(tuple(index), index, ep, gap, planes, [], ends,
                       nonsingular, plus, everything & ~plus, nonsep, [])
        # a leaf crosses a leaf m of the other sign iff two of its endpoints
        # off m lie on two faces of m, that is differ in some plane; of its
        # own sign, that is a same-sign crossing for validate to report
        for i, (lid, e) in enumerate(ep.items()):
            both = 0
            for x, y in itertools.combinations(e, 2):
                both |= t.fold(gap[x] ^ gap[y]) & ~(ends[x] | ends[y])
            own = plus if plus >> i & 1 else t.minus
            t.cross.append(both & ~own)
            if both & own:
                t.tangled.append((lid, both & own))
        return t

    # -- relations --------------------------------------------------------

    def intersects(self, l1: str, l2: str) -> bool:
        """True iff the two leaves cross: signs differ and some two endpoints
        of ``l2`` lie in two distinct open arcs of the circle minus ``l1``."""
        t = self._table
        return bool(t.cross[t.index[l2]] >> t.index[l1] & 1)

    def common_transversal(self, a: str, b: str) -> int:
        """Bitset of the leaves crossing both ``a`` and ``b`` (bit i stands
        for ``leaf_ids()[i]``); zero iff the two leaves have no common
        transversal."""
        t = self._table
        return t.cross[t.index[a]] & t.cross[t.index[b]]

    def perfect_fits(self) -> list[tuple[tuple[str, str], tuple[str, str]]]:
        """Shared-endpoint ray pairs, as ((plus_id,label),(minus_id,label)),
        in label order."""
        t, fits = self._table, []
        for label in sorted(self.boundary):
            bits = t.ends[self._pos[label]]
            if bits & (bits - 1):  # two or more leaves end here
                for p in sorted(self._ids_of(bits & t.plus)):
                    for m in sorted(self._ids_of(bits & t.minus)):
                        fits.append(((p, label), (m, label)))
        return fits

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        v: list[Violation] = []
        # signs known, endpoints well formed and in cyclic order
        for lf in self.leaves.values():
            if lf.sign not in SIGNS:
                v.append(Violation("leaf sign not plus or minus", (lf.id, lf.sign)))
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

        # pairwise endpoint / crossing structure, on the pairs that can break
        # a rule: the relation table names the same-sign crossings
        v += self._pair_violations()

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
            # skip leaves ending where l1 or l2 ends: shared endpoints
            rel = self._table
            touch = functools.reduce(operator.or_, map(rel.ends.__getitem__,
                                                       rel.ep[l1] + rel.ep[l2]))
            for m in self._ids_of(self._seps(l1, l2) & ~touch):
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

        # No separator-order sweep is needed: once no two same-sign leaves
        # cross or share an endpoint, the leaves of one family are disjoint
        # chords and trees in the disc, so the separators of two of them are
        # nested and totally ordered at every size.  separator_chain still
        # raises on non-planar data it is handed unchecked.
        return ValidationReport(tuple(v))

    def _pair_violations(self) -> list[Violation]:
        """The pairwise endpoint and crossing rules, at most one violation per
        pair, in sorted pair order.  Only three kinds of pair can break a
        rule, so only those are examined: pairs sharing an endpoint, pairs
        with a singular leaf, and same-sign pairs where one leaf has
        endpoints on both faces of the other (``_Relations.tangled``).  Two
        nonsingular leaves of opposite signs with no shared endpoint have
        endpoints on at most the two faces of each other, which no rule
        forbids."""
        pairs = set()
        for bits in self._table.ends:
            if bits & (bits - 1):  # two or more leaves end here
                pairs.update(itertools.combinations(sorted(self._ids_of(bits)), 2))
        for lid, bits in self._table.tangled:
            pairs.update(tuple(sorted((lid, m))) for m in self._ids_of(bits))
        for lf in self.leaves.values():
            if lf.is_singular:
                pairs.update(tuple(sorted((lf.id, other)))
                             for other in self.leaves if other != lf.id)
        v: list[Violation] = []
        for l1, l2 in sorted(pairs):
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
                continue  # alternation is checked with the singularity records
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
        return v

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise InvalidPatternError(str(rep))
        return self

    # -- separation -------------------------------------------------------

    def _separates(self, m: str, l1: str, l2: str) -> bool:
        # unchecked core: all same sign, pairwise distinct and disjoint
        return bool(self._seps(l1, l2) >> self._table.index[m] & 1)

    def _ids_of(self, bits: int) -> list[str]:
        """The leaf ids of a bitset, in ``leaf_ids()`` order."""
        ids = self._table.ids
        return [ids[i] for i in _bits(bits)]

    def _seps(self, x: str, y: str) -> int:
        """Bitset of the leaves of x's family, x and y excluded, that separate
        x from y: the unchecked core of ``separator_chain`` (x and y of one
        family and disjoint), read off the face planes at their first
        endpoints."""
        t = self._table
        i, j = t.index[x], t.index[y]
        family = t.plus if t.plus >> i & 1 else t.minus
        return (t.fold(t.gap[t.ep[x][0]] ^ t.gap[t.ep[y][0]]) & family
                & ~(1 << i | 1 << j))

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

    def point(self, pid_or_point) -> Point:
        if isinstance(pid_or_point, Point):
            return pid_or_point
        try:
            return self.points[pid_or_point]
        except KeyError:
            raise UnknownIdError(f"unknown point {pid_or_point!r}") from None

    def _point_seps(self, px: Point, py: Point) -> int:
        """Bitset of the leaves separating two points, with the convention of
        ``separates_point``: a leaf holding exactly one of the points
        separates them, a leaf holding both does not, and a leaf off both
        separates them iff they lie on two of its faces."""
        (on_x, gap_x), (on_y, gap_y) = self._point_bits(px), self._point_bits(py)
        return (on_x ^ on_y) | (self._table.fold(gap_x ^ gap_y) & ~(on_x | on_y))

    def _point_bits(self, pt: Point) -> tuple[int, int]:
        """The leaves through a point, and the face planes of the point: of
        the gap after its anchor, or for a crossing point of P and M, of
        P's first endpoint for the plus leaves and of M's for the minus."""
        t = self._table
        if pt.kind != "crossing":
            return 0, t.gap[self.pos(pt.anchor)]
        P, M = pt.plus_leaf, pt.minus_leaf
        at_p, at_m = t.gap[t.ep[P][0]], t.gap[t.ep[M][0]]
        return (1 << t.index[P] | 1 << t.index[M],
                at_m ^ ((at_p ^ at_m) & t.plus * t.planes))

    def separates_point(self, leaf_id: str, x, y) -> bool:
        """Leaf-separation of two marked points, with the convention of
        ``_point_seps``: a point lying on the leaf is separated from any point
        off the leaf."""
        i = self._table.index[self.leaf(leaf_id).id]
        return bool(self._point_seps(self.point(x), self.point(y)) >> i & 1)

    # -- pseudo-intervals --------------------------------------------------

    def _depths(self, src, seps: int) -> dict:
        """Depth of each separator bit from a leaf id or a Point: how many
        other separators, disjoint from it, lie between the source and it.

        m lies between the source and a leaf l disjoint from it when l's
        first endpoint e is off the source's face of m, an endpoint of m
        included: a bit of the folded face planes ``gap[e] ^ gap_x`` or of
        the leaves ending at e.  A leaf source is read at its first
        endpoint; a leaf through a point has no face of it, so it lies
        between exactly when it does not end at e."""
        t, depth = self._table, {}
        ep, ids, gap, ends, cross = t.ep, t.ids, t.gap, t.ends, t.cross
        on_x, gap_x = (self._point_bits(src) if isinstance(src, Point)
                       else (0, gap[ep[src][0]]))
        for i in _bits(seps):
            e = ep[ids[i]][0]
            off_face = t.fold(gap[e] ^ gap_x) & ~on_x | ends[e]
            depth[i] = (seps & ~cross[i] & ~(1 << i)
                        & (off_face ^ on_x)).bit_count()
        return depth

    def separator_chain(self, x: str, y: str) -> list[str]:
        """Leaves separating x from y, ordered from the x side to the y side."""
        sx, sy = self.leaf(x).sign, self.leaf(y).sign
        if sx != sy:
            raise PreconditionError("pseudo-interval endpoints must share a sign")
        if x == y:
            return []
        seps = self._seps(x, y)
        chain = [None] * seps.bit_count()
        for i, depth in self._depths(x, seps).items():
            # depth: how many separators lie between x and it, 0..k-1
            if chain[depth] is not None:
                raise InvalidPatternError(
                    f"incomparable separators between {x} and {y} (non-planar data)")
            chain[depth] = self._table.ids[i]
        return chain

    def _order_chain(self, leaves) -> list[str]:
        """Order same-family leaves that form a separation chain, from the end
        of least id.  The leaf deepest from the least-id leaf is an end, and
        the others follow it by their depth from it.  Depths count only the
        given leaves, so leaves off the chain that separate two of them
        (scalloped windows) do not shift the order."""
        t = self._table
        given = sum(1 << t.index[l] for l in leaves)
        end = min(leaves)
        for _ in range(2):  # from the least-id leaf to an end, then along
            depth = self._depths(end, given & ~(1 << t.index[end]))
            chain = [end] + [t.ids[i] for i in sorted(depth, key=depth.get)]
            end = chain[-1]
        return chain if chain[0] < chain[-1] else chain[::-1]

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
        if mode is Mode.NONSEP:
            return PseudoInterval(x, y, tuple(seps),
                                  nonsep_blocks(chain, self.nonseparated), mode)
        blocks: list[list[str]] = [[x]]
        prev_split = x
        for cur in chain[1:]:
            blocks[-1].append(cur)
            sing = next((s for s in self.singularities if cur in s.leaves()),
                        None)
            if sing and self.leaf(cur).sign == PLUS and \
                    self._prong_divides_chain(sing, prev_split, y):
                blocks.append([cur])  # the prong closes a block and opens the next
                prev_split = cur
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

    def quadrants_of_crossing(self, plus_id: str, minus_id: str):
        """The quadrants of a crossing, in cyclic order (four at a regular
        crossing, 2k at the singular crossing of a k-prong), together with
        the per-leaf incidence map."""
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
        # an invalid pattern can list one leaf pair as two fits
        fits = dict.fromkeys((p, m) for (p, _), (m, _) in self.perfect_fits())
        lozenges = [Lozenge(p1, m1, p2, m2)
                    for (p1, m1), (p2, m2) in itertools.combinations(fits, 2)
                    if p1 != p2 and m1 != m2
                    and self.intersects(p1, m2) and self.intersects(p2, m1)]
        lozenges.sort(key=lambda L: (L.plus1, L.plus2))

        # chains: lozenges joined through shared side leaves (a shared
        # corner is two shared sides); union-find over leaf ids
        parent: dict[str, str] = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for L in lozenges:
            for lid in L.sides[1:]:
                parent[find(lid)] = find(L.plus1)
        groups: dict[str, list[int]] = {}
        for i, L in enumerate(lozenges):
            groups.setdefault(find(L.plus1), []).append(i)
        chains = tuple(tuple(g) for g in groups.values())

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


def nonsep_blocks(chain, nonseparated) -> tuple[tuple[str, ...], ...]:
    """Split an ordered chain of same-family leaves into blocks, a new block
    starting at each consecutive pair declared nonseparated."""
    blocks = [[chain[0]]]
    for prev, cur in zip(chain, chain[1:]):
        if frozenset((prev, cur)) in nonseparated:
            blocks.append([cur])
        else:
            blocks[-1].append(cur)
    return tuple(tuple(b) for b in blocks)


def _is_cyclic_run(indices: set[int], n: int, max_len: int) -> bool:
    """Is the index set contained in max_len cyclically consecutive slots?"""
    if len(indices) > max_len:
        return False
    for start in indices:
        run = {(start + d) % n for d in range(max_len)}
        if indices <= run:
            return True
    return False

