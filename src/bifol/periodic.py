"""Finitely described infinite patterns and their exact automorphisms.

A periodic pattern has one integer-indexed copy of each leaf *family* per
translation block.  Every endpoint sits on a named boundary *track*; the
circle is the concatenation of the tracks, each read in its own direction,
and an endpoint's position on its track is an affine function (template
offset + block index) of the leaf's index.  Crossings, windows and
automorphism checks are all evaluated exactly from this data, so no floating
point or sampling enters anywhere.  Windows place every endpoint on an
integer: the constructor scales the offsets once by the lcm of their
denominators, so building a window sorts and hashes ints.

A periodic pattern is certified once, in its constructor, by validating the
window (0, reach): every violation involves at most three leaves, leaves
farther apart than the template span relate as at the span plus one, so by
translation invariance each violation of the infinite pattern has a copy in
that window.  Windows are faithful truncations of a certified pattern and
are not validated again.  The constructor keeps only one crossing row per
(plus family, minus family), read off that window: bit d + reach is set iff
the families cross at block distance d, and farther leaves relate as at the
reach.

The module owns every fixture generator, and ``_circle_pattern``, the one
builder of the finite patterns the program makes (windows, fixtures, random
draws) from integer circle positions, most via the ranking track walk
``_chord_pattern``.  Those are valid by construction (the tests check the
generators over a range of sizes).  ``Track`` and ``Family`` records check
nothing; the constructor checks them where file data enters.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction

from .pattern import (
    PLUS, MINUS, FinitePattern, InvalidPatternError, Leaf, Point,
    PreconditionError, Singularity, UnknownIdError, UsageError, _ById,
)

# most leaves a certificate window (0, reach()) may hold, and most leaf pairs
# an automorphism's template check may compare; the shipped patterns need at
# most 48 and 324
MAX_CERTIFICATE_LEAVES = 4096
# most leaves a window may hold: memory grows with the square of the width,
# and scalloped (-1024, 1023), 16384 leaves, builds its xplus graph in 0.5 s
# and 174 MB (one 2-vCPU VM)
MAX_WINDOW_LEAVES = 16384


class CertificateTooWideError(InvalidPatternError):
    """A periodic pattern whose certificate window would exceed
    MAX_CERTIFICATE_LEAVES leaves, or an automorphism whose template check
    would compare more leaf pairs than that."""


@dataclass(frozen=True)
class Track:
    name: str
    direction: int  # +1: positions ascend along the circle; -1: descend


@dataclass(frozen=True)
class Family:
    """Template for one leaf per block: endpoints as (track, offset)."""

    name: str
    sign: str
    endpoints: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class NonsepTemplate:
    """Declares {(fam_a, k), (fam_b, k + offset)} nonseparated for all k."""

    fam_a: str
    fam_b: str
    offset: int


@dataclass(frozen=True)
class ScallopedMarker:
    """Names the families whose lozenges realize the marked periodic chain."""

    plus_families: tuple[str, ...]
    minus_families: tuple[str, ...]


def leaf_name(family: str, k: int) -> str:
    return f"{family}{k}"


def parse_leaf_name(name: str) -> tuple[str, int]:
    i = len(name)
    while i > 0 and (name[i - 1].isdigit() or name[i - 1] == "-"):
        i -= 1
    fam, idx = name[:i], name[i:]
    try:
        if fam.isalpha():
            return fam, int(idx)
    except ValueError:  # "p-", "p1-2"
        pass
    raise UnknownIdError(f"not a periodic leaf name: {name!r}")


BOT, TOP = "bot", "top"
_CORRIDOR = (Track(BOT, 1), Track(TOP, -1))


def _circle_pattern(n, leaves, singularities=(), nonseparated=(), points=()):
    """The one builder of the program's patterns: leaves given as (id, sign,
    [positions]) on a circle with integer positions 0..n-1, labelled c0,
    c1, ...  The leaves are trusted, not checked: ``validate`` checks
    patterns that come from files."""
    labels = [f"c{i}" for i in range(n)]
    built = [Leaf(cid, sign, tuple([labels[i] for i in sorted(eps)]))
             for cid, sign, eps in leaves]
    return FinitePattern(labels, built, singularities, nonseparated, points)


def _chord_pattern(chords, tracks=_CORRIDOR, nonseparated=(), singularities=(),
                   points=(), scale=1):
    """Finite pattern from chords (id, sign, [(track, value), ...]) on the
    given tracks.  Walking the circle (the tracks in order, each in its own
    direction) ranks every occupied position 0, 1, ..., and
    ``_circle_pattern`` builds the pattern on those ranks.  A position holds
    one leaf, or two leaves of opposite signs (a perfect fit).  Values are in
    units of 1/scale; only an error message reads the scale."""
    # position -> sign bits (1 plus, 2 minus), above 3 once two leaves of
    # one sign share it
    at = {t.name: {} for t in tracks}
    for cid, sign, eps in chords:
        bit = 1 if sign == PLUS else 2
        for tr, val in eps:
            held = at[tr].get(val, 0)
            at[tr][val] = held | bit | (held & bit) << 2
    rank, n = {}, 0
    for t in tracks:
        row = rank[t.name] = {}
        for v in sorted(at[t.name], reverse=t.direction == -1):
            if at[t.name][v] > 3:
                raise PreconditionError(
                    f"track {t.name}, position {Fraction(v, scale)}: more "
                    f"than two leaves or two of one sign share the position")
            row[v] = n
            n += 1
    ranked = [(cid, sign, [rank[tr][v] for tr, v in eps])
              for cid, sign, eps in chords]
    return _circle_pattern(n, ranked, singularities, nonseparated, points)


def _intmap_mul(g, w):
    """g after w on offset tuples: `IndexMap.compose` without the checks."""
    n = len(w)
    return tuple([o + g[(r + o) % n] for r, o in enumerate(w)])


class IndexMap:
    """A bijection of the integers commuting with translation by N.

    Stored as N offsets: i maps to i + offsets[i mod N].  The induced residue
    map must be a permutation.  Composition, inverse and equality are exact.
    """

    __slots__ = ("N", "offsets")

    def __init__(self, offsets):
        self.offsets = tuple(int(o) for o in offsets)
        self.N = len(self.offsets)
        if self.N == 0:
            raise PreconditionError("empty offset vector")
        residues = sorted((r + o) % self.N for r, o in enumerate(self.offsets))
        if residues != list(range(self.N)):
            raise PreconditionError(
                f"offsets {self.offsets} do not induce a residue permutation")

    @classmethod
    def _trusted(cls, offsets: tuple) -> "IndexMap":
        """A product or inverse of valid maps, built unchecked."""
        m = object.__new__(cls)
        m.offsets, m.N = offsets, len(offsets)
        return m

    def __call__(self, i: int) -> int:
        return i + self.offsets[i % self.N]

    def compose(self, other: "IndexMap") -> "IndexMap":
        """self after other."""
        if self.N != other.N:
            raise PreconditionError("period mismatch")
        return IndexMap._trusted(_intmap_mul(self.offsets, other.offsets))

    def inverse(self) -> "IndexMap":
        inv = [None] * self.N
        for r, o in enumerate(self.offsets):
            inv[(r + o) % self.N] = -o
        return IndexMap._trusted(tuple(inv))

    @staticmethod
    def identity(N: int) -> "IndexMap":
        return IndexMap._trusted((0,) * N)

    def is_identity(self) -> bool:
        return all(o == 0 for o in self.offsets)

    def cycles(self) -> list[tuple[int, int]]:
        """(length, offset sum) of each cycle of the residue permutation; the
        length-th power translates the cycle's indices by the sum."""
        seen, out = set(), []
        for r in range(self.N):
            length = total = 0
            while r not in seen:
                seen.add(r)
                total += self.offsets[r]
                r = (r + self.offsets[r]) % self.N
                length += 1
            if length:
                out.append((length, total))
        return out

    def order_if_finite(self) -> int | None:
        """Exact: finite iff the offsets sum to zero around every residue
        cycle, and then the lcm of the cycle lengths."""
        cyc = self.cycles()
        return None if any(t for _, t in cyc) else math.lcm(*(n for n, _ in cyc))

    def __eq__(self, other):
        return isinstance(other, IndexMap) and self.offsets == other.offsets

    def __hash__(self):
        return hash(self.offsets)

    def __repr__(self):
        return f"IndexMap{self.offsets}"


class PeriodicPattern:
    """Z-periodic bifoliated pattern described by families on tracks."""

    def __init__(self, tracks, plus_families, minus_families, nonsep=(),
                 scalloped=None, automorphisms=None, band=None, name=""):
        self.tracks: tuple[Track, ...] = tuple(tracks)
        self.plus_families: tuple[Family, ...] = tuple(plus_families)
        self.minus_families: tuple[Family, ...] = tuple(minus_families)
        if len(self.plus_families) != len(self.minus_families):
            raise PreconditionError("plus and minus family counts must agree")
        self.period = len(self.plus_families)
        if self.period < 1:
            raise PreconditionError("period must be >= 1")
        self.nonsep: tuple[NonsepTemplate, ...] = tuple(nonsep)
        self.scalloped: ScallopedMarker | None = scalloped
        self.automorphisms: dict[str, "PatternAutomorphism"] = _ById("element")
        self.band = band  # optional per-residue crossing-offset sets
        self.name = name
        if any(t.direction not in (1, -1) for t in self.tracks):
            raise PreconditionError("track direction must be +1 or -1")
        fams = self.plus_families + self.minus_families
        names = [f.name for f in fams]
        if not all(nm.isalpha() for nm in names):
            raise PreconditionError("family names must be alphabetic")
        track_names = {t.name for t in self.tracks}
        if len(track_names) != len(self.tracks):
            raise PreconditionError("track names must be unique")
        # family name -> (sign, residue); names are checked unique below
        self._fam_index = {f.name: (sign, r) for sign in (PLUS, MINUS)
                           for r, f in enumerate(self.families(sign))}
        if len(set(names)) != len(names):
            raise PreconditionError("family names must be unique")
        for f in fams:
            for tname, _ in f.endpoints:
                if tname not in track_names:
                    raise PreconditionError(f"unknown track {tname!r}")
        vals = [Fraction(off) for f in fams for _, off in f.endpoints]
        self._reach = (math.ceil(max(vals) - min(vals)) + 1
                       + max((abs(t.offset) for t in self.nonsep), default=0))
        leaves = (self._reach + 1) * 2 * self.period
        if leaves > MAX_CERTIFICATE_LEAVES:
            raise CertificateTooWideError(
                f"certificate window (0, {self._reach}) would hold {leaves} "
                f"leaves, more than {MAX_CERTIFICATE_LEAVES}")
        # windows place endpoints on integers: every offset in units of
        # 1 / scale, the lcm of their denominators
        self._scale = math.lcm(*(v.denominator for v in vals))
        self._templates = [
            (sign, f.name, [(t, int(off * self._scale))
                            for t, off in f.endpoints])
            for sign in (PLUS, MINUS) for f in self.families(sign)]
        # positional arguments: the benchmark tracer unpacks (self, lo, hi)
        try:
            cert = self.materialize_window(0, self._reach)
        except PreconditionError as e:  # translates share a boundary position
            raise InvalidPatternError(f"invalid periodic pattern: {e}") from None
        cert.require_valid()
        self._cross = self._crossing_rows(cert)
        if automorphisms:
            for nm, (po, mo) in automorphisms.items():
                self.automorphisms[nm] = PatternAutomorphism(
                    self, IndexMap(po), IndexMap(mo), name=nm)

    # -- indexing ---------------------------------------------------------

    def families(self, sign: str) -> tuple[Family, ...]:
        return self.plus_families if sign == PLUS else self.minus_families

    def split_index(self, i: int) -> tuple[int, int]:
        return i % self.period, i // self.period

    def leaf_index(self, name: str) -> tuple[str, int]:
        """(sign, global index) of a leaf name like 'p3'."""
        fam, k = parse_leaf_name(name)
        if fam not in self._fam_index:
            raise UnknownIdError(f"unknown leaf {name!r}: no family {fam!r}")
        sign, r = self._fam_index[fam]
        return sign, k * self.period + r

    def leaf_of_index(self, sign: str, i: int) -> str:
        r, k = self.split_index(i)
        return leaf_name(self.families(sign)[r].name, k)

    # -- template crossings -------------------------------------------------

    def _crossing_rows(self, cert: FinitePattern) -> list:
        """``rows[a][b]`` has bit d + reach set iff plus family a at block k
        crosses minus family b at block k + d, read at k = max(0, -d)."""
        R, t = self._reach, cert._table
        plus = [[t.cross[t.index[leaf_name(f.name, k)]] for k in range(R + 1)]
                for f in self.plus_families]
        minus = [[t.index[leaf_name(f.name, k)] for k in range(R + 1)]
                 for f in self.minus_families]
        return [[sum((a[max(0, -d)] >> b[max(0, d)] & 1) << d + R
                     for d in range(-R, R + 1)) for b in minus] for a in plus]

    def template_cross(self, sign_a: str, ia: int, sign_b: str, ib: int) -> bool:
        """Do leaves (sign_a, ia) and (sign_b, ib) cross?  One bit of their
        families' crossing row, at their block distance clamped to the
        reach."""
        if sign_a == sign_b:
            return False
        if sign_a == MINUS:
            ia, ib = ib, ia
        P, R = self.period, self._reach
        d = ib // P - ia // P
        return bool(self._cross[ia % P][ib % P] >> min(2 * R, max(0, d + R)) & 1)

    def reach(self) -> int:
        """Width in blocks of a window holding a copy of every configuration
        of at most three leaves: ceil(template span) + 1, since leaves farther
        apart than the span relate as at the span plus one, and the widest
        nonseparation offset on top."""
        return self._reach

    def nonsep_pairs_in(self, lo: int, hi: int) -> list[frozenset]:
        return [frozenset((leaf_name(t.fam_a, k), leaf_name(t.fam_b, k + t.offset)))
                for t in self.nonsep for k in range(lo, hi + 1)
                if lo <= k + t.offset <= hi]

    # -- windows ------------------------------------------------------------

    def check_window(self, lo: int, hi: int) -> None:
        """Refuse an empty window, or one of more than MAX_WINDOW_LEAVES
        leaves, without building it."""
        if lo >= hi:
            raise UsageError(f"window ({lo}, {hi}) needs lo < hi")
        leaves = (hi - lo + 1) * len(self._templates)
        if leaves > MAX_WINDOW_LEAVES:
            raise UsageError(f"window ({lo}, {hi}) would hold {leaves} leaves, "
                             f"more than {MAX_WINDOW_LEAVES}")

    def materialize_window(self, lo: int, hi: int) -> FinitePattern:
        """Finite pattern holding every family copy with block index in
        [lo, hi] and the declared nonseparated pairs among them; the boundary
        circle is the track walk over their endpoints.  Endpoints sit on
        integer positions, offset * scale + k * scale, which keeps the order
        of offset + k.  The constructor has certified the pattern, so the
        window is valid and is not checked; only its size is, by
        ``check_window``."""
        self.check_window(lo, hi)
        s = self._scale
        chords = [(leaf_name(name, k), sign, [(t, v + k * s) for t, v in eps])
                  for sign, name, eps in self._templates
                  for k in range(lo, hi + 1)]
        return _chord_pattern(chords, self.tracks,
                              nonseparated=self.nonsep_pairs_in(lo, hi),
                              scale=s)


class PatternAutomorphism:
    """A template-preserving pair of index maps, plus one per sign.

    The constructor checks the templates where maps enter, after refusing a
    map whose check would compare more than MAX_CERTIFICATE_LEAVES leaf
    pairs.  By translation invariance and template locality its finite check
    certifies the infinite map, so products and inverses of checked maps are
    built unchecked.
    Orientation-reversing (translation anti-commuting) maps are not modeled.
    """

    __slots__ = ("pattern", "plus", "minus", "name")

    def __init__(self, pattern: PeriodicPattern, plus: IndexMap, minus: IndexMap,
                 name: str = ""):
        if plus.N != pattern.period or minus.N != pattern.period:
            raise PreconditionError("index map period mismatch")
        self.pattern = pattern
        self.plus = plus
        self.minus = minus
        self.name = name
        pairs = (2 * self._reach() + 1) * pattern.period
        if pairs > MAX_CERTIFICATE_LEAVES:
            raise CertificateTooWideError(
                f"automorphism {name!r}: its template check would compare "
                f"{pairs} leaf pairs, more than {MAX_CERTIFICATE_LEAVES}")
        self._check_templates()

    @classmethod
    def _trusted(cls, pattern, plus, minus, name) -> "PatternAutomorphism":
        """An automorphism valid by construction, built without the check."""
        g = object.__new__(cls)
        g.pattern, g.plus, g.minus, g.name = pattern, plus, minus, name
        return g

    def _reach(self) -> int:
        off_span = max(max(map(abs, self.plus.offsets)),
                       max(map(abs, self.minus.offsets)), 1)
        return (self.pattern.reach() + 1 + off_span) * self.pattern.period

    def _check_templates(self):
        """Plus leaf f and minus leaf j cross iff their images do, for each
        residue f and |j| <= B; the first break in (f, j) order is reported.
        The j of one residue are compared at once, as runs of row bits."""
        pp, B = self.pattern, self._reach()
        P, R = pp.period, pp.reach()
        po, mo = self.plus.offsets, self.minus.offsets
        # |j // P| <= K and images lie under 2K blocks further, so rows
        # padded with their end bits to distances -Q..Q (bit d + Q) suffice
        K = B // P
        Q, ones = 3 * K, (1 << 3 * K - R) - 1
        padded = [[row << Q - R | (row & 1) * ones
                   | (row >> 2 * R & 1) * ones << Q + R + 1 for row in rows]
                  for rows in pp._cross]
        for f in range(P):
            fi, first = f + po[f], None
            img, kf = padded[fi % P], fi // P
            for rb in range(P):
                # bit i: the pair (f, (i - K) P + rb) against its image
                c = rb + mo[rb]
                runs = (padded[f][rb] >> Q - K) ^ (img[c % P] >> Q - K + c // P - kf)
                broken = runs & (1 << 2 * K + (rb == 0)) - 1  # |j| <= B
                if broken:
                    j = ((broken & -broken).bit_length() - 1 - K) * P + rb
                    first = j if first is None else min(first, j)
            if first is not None:
                raise PreconditionError(
                    f"map does not preserve the intersection template "
                    f"(plus {f}, minus {first})")
        pairs = {(t.fam_a, t.fam_b, t.offset) for t in pp.nonsep}
        pairs |= {(b, a, -o) for a, b, o in pairs}
        for t in pp.nonsep:
            (sign, a), (_, b) = pp._fam_index[t.fam_a], pp._fam_index[t.fam_b]
            m = self.plus if sign == PLUS else self.minus
            ra, ka = pp.split_index(m(a))
            rb, kb = pp.split_index(m(b + t.offset * P))
            fa = pp.families(sign)[ra].name
            fb = pp.families(sign)[rb].name
            if (fa, fb, kb - ka) not in pairs:
                raise PreconditionError("map does not preserve nonseparation")

    # -- group algebra -------------------------------------------------------

    def act(self, leaf: str) -> str:
        sign, i = self.pattern.leaf_index(leaf)
        m = self.plus if sign == PLUS else self.minus
        return self.pattern.leaf_of_index(sign, m(i))

    def compose(self, other: "PatternAutomorphism") -> "PatternAutomorphism":
        if other.pattern is not self.pattern:
            raise PreconditionError("automorphisms of different patterns")
        return self._trusted(self.pattern, self.plus.compose(other.plus),
                             self.minus.compose(other.minus),
                             f"{self.name}*{other.name}")

    def inverse(self) -> "PatternAutomorphism":
        return self._trusted(self.pattern, self.plus.inverse(),
                             self.minus.inverse(), f"{self.name}^-1")

    def power(self, n: int) -> "PatternAutomorphism":
        g = identity_automorphism(self.pattern)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            g = base.compose(g)
        return g

    def is_identity(self) -> bool:
        return self.plus.is_identity() and self.minus.is_identity()

    def residue_order(self) -> int:
        """Least k > 0 such that g^k maps every family to itself."""
        return math.lcm(*(n for m in (self.plus, self.minus)
                          for n, _ in m.cycles()))

    def order_if_finite(self) -> int | None:
        a, b = self.plus.order_if_finite(), self.minus.order_if_finite()
        return None if a is None or b is None else math.lcm(a, b)

    def __repr__(self):
        return f"Automorphism({self.name or (self.plus, self.minus)})"


def identity_automorphism(pp: PeriodicPattern) -> PatternAutomorphism:
    ident = IndexMap.identity(pp.period)
    return PatternAutomorphism._trusted(pp, ident, ident, "id")


def scalloped_invariant(pp: PeriodicPattern, g: PatternAutomorphism) -> bool:
    """True iff g maps the marked periodic lozenge chain to itself: the marked
    plus and minus families map into themselves with one common block shift."""
    if pp.scalloped is None:
        raise PreconditionError("pattern has no scalloped marker")
    shifts = set()
    for fams, m in ((pp.scalloped.plus_families, g.plus),
                    (pp.scalloped.minus_families, g.minus)):
        marked = {pp._fam_index[f][1] for f in fams}
        for r in marked:
            r2, k2 = pp.split_index(m(r))
            if r2 not in marked:
                return False
            shifts.add(k2)
    return len(shifts) == 1


# -- affine model for the trivial-plane census --------------------------------

HYPERBOLIC_MATRIX = ((2, 1), (1, 1))
_INV_MATRIX = ((1, -1), (-1, 2))


def _times(p, q):
    """The 2x2 product p q, each as (a, b, c, d) by rows."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _power(m: int):
    """A^m as (a, b, c, d), by repeated squaring."""
    (a, b), (c, d) = HYPERBOLIC_MATRIX if m >= 0 else _INV_MATRIX
    p, base, m = (1, 0, 0, 1), (a, b, c, d), abs(m)
    while m:
        if m & 1:
            p = _times(p, base)
        base, m = _times(base, base), m >> 1
    return p


@dataclass(frozen=True)
class AffineElement:
    """(k, v): the k-th power of the fixed hyperbolic matrix followed by the
    integer translation v.  Group law (k1,v1)(k2,v2) = (k1+k2, v1 + A^k1 v2)."""

    k: int
    v: tuple[int, int]

    def mul(self, other: "AffineElement") -> "AffineElement":
        a, b, c, d = _power(self.k)
        x, y = other.v
        return AffineElement(self.k + other.k, (self.v[0] + a * x + b * y,
                                                self.v[1] + c * x + d * y))

    def inverse(self) -> "AffineElement":
        a, b, c, d = _power(-self.k)
        x, y = self.v
        return AffineElement(-self.k, (-a * x - b * y, -c * x - d * y))

    @staticmethod
    def identity() -> "AffineElement":
        return AffineElement(0, (0, 0))

    def is_identity(self) -> bool:
        return self.k == 0 and self.v == (0, 0)


# -- fixture generators -------------------------------------------------------

def _check_size(kind: str, var: str, size: int, least: int, holds: int):
    """Refuse, before any record is built, a generator size below the kind's
    least or one whose pattern would hold more than MAX_WINDOW_LEAVES leaves
    or marked points."""
    if size < least:
        raise UsageError(f"{kind}({var}) needs {var} >= {least}")
    if holds > MAX_WINDOW_LEAVES:
        raise UsageError(f"{kind}({size}) would hold {holds} leaves or marked "
                         f"points, more than {MAX_WINDOW_LEAVES}")


def trivial_pattern(n: int) -> FinitePattern:
    """Complete-bipartite grid: n 'vertical' plus and n 'horizontal' minus
    chords, every opposite pair crossing, all crossings marked."""
    _check_size("trivial", "n", n, 1, max(2 * n, n * n))  # leaves, crossing points
    # circle: v tops (0..n-1), h rights (n..2n-1), v bottoms reversed,
    # h lefts reversed
    leaves = []
    for i in range(n):
        leaves.append((f"v{i}", PLUS, (i, 3 * n - 1 - i)))
    for j in range(n):
        leaves.append((f"h{j}", MINUS, (n + j, 4 * n - 1 - j)))
    w = len(str(n - 1))  # padded, so (1, 10) and (11, 0) differ
    pts = [Point.crossing(f"x{i:0{w}}{j:0{w}}", f"v{i}", f"h{j}")
           for i in range(n) for j in range(n)]
    return _circle_pattern(4 * n, leaves, points=pts)


def trivial_periodic() -> PeriodicPattern:
    tracks = (Track("n", 1), Track("e", 1), Track("s", -1), Track("w", -1))
    plus = [Family("p", PLUS, (("n", Fraction(0)), ("s", Fraction(0))))]
    minus = [Family("m", MINUS, (("e", Fraction(0)), ("w", Fraction(0))))]
    return PeriodicPattern(tracks, plus, minus, band={"0": "all"},
                           name="trivial_periodic")


def skew_pattern(W: int) -> PeriodicPattern:
    """Band pattern: plus_i crosses minus_j iff i <= j < i + W."""
    if W < 2:
        raise UsageError("skew(W) needs W >= 2")
    plus = [Family("p", PLUS, ((BOT, Fraction(0)), (TOP, Fraction(2 * W - 1, 2))))]
    minus = [Family("m", MINUS, ((BOT, Fraction(1, 2)), (TOP, Fraction(0))))]
    return PeriodicPattern(_CORRIDOR, plus, minus,
                           band={"0": list(range(W))}, name=f"skew{W}",
                           automorphisms={"s": ([1], [1])})


def ladder_chords(n: int):
    """Corridor chords of the n-block ladder: end verticals x,y; junction
    pairs (u_k, w_k); bottom hooks r_k in each junction gap; minus leaves
    g_k (block transversals), a_k and b_k (hook transversals)."""
    _check_size("ladder", "n", n, 1, 6 * n - 3)
    S = 60
    ch = [("x", PLUS, [(BOT, 0), (TOP, 0)]),
          ("y", PLUS, [(BOT, S * n), (TOP, S * n)])]
    nonsep = []
    for k in range(1, n):
        ch.append((f"u{k}", PLUS, [(BOT, S * k - 20), (TOP, S * k - 20)]))
        ch.append((f"w{k}", PLUS, [(BOT, S * k + 20), (TOP, S * k + 20)]))
        ch.append((f"r{k}", PLUS, [(BOT, S * k - 6), (BOT, S * k + 6)]))
        ch.append((f"a{k}", MINUS, [(BOT, S * k - 28), (BOT, S * k + 1)]))
        ch.append((f"b{k}", MINUS, [(BOT, S * k + 3), (TOP, S * k + 24)]))
        nonsep.append((f"u{k}", f"w{k}"))
    for k in range(n):
        lo = -4 if k == 0 else S * k + 16
        hi = S * n + 4 if k == n - 1 else S * k + 44
        ch.append((f"g{k}", MINUS, [(BOT, lo), (TOP, hi)]))
    return ch, nonsep


def ladder_pattern(n: int) -> FinitePattern:
    ch, nonsep = ladder_chords(n)
    pts = [Point.crossing("px", "x", "g0")]
    if n >= 2:
        pts.append(Point.crossing("py", f"r{n - 1}", f"a{n - 1}"))
    else:
        pts.append(Point.crossing("py", "y", "g0"))
    return _chord_pattern(ch, nonseparated=nonsep, points=pts)


def ladder_periodic() -> PeriodicPattern:
    """Bi-infinite ladder: one nonseparated junction (u_k, w_k) per block."""
    S = 60
    plus = [Family("u", PLUS, ((BOT, Fraction(0)), (TOP, Fraction(0)))),
            Family("w", PLUS, ((BOT, Fraction(40)), (TOP, Fraction(40)))),
            Family("r", PLUS, ((BOT, Fraction(14)), (BOT, Fraction(26))))]
    minus = [Family("al", MINUS, ((BOT, Fraction(-8)), (BOT, Fraction(21)))),
             Family("be", MINUS, ((BOT, Fraction(23)), (TOP, Fraction(44)))),
             Family("ga", MINUS, ((BOT, Fraction(36)), (TOP, Fraction(64))))]

    def scale(fams):
        return [Family(f.name, f.sign,
                       tuple((t, Fraction(v, S)) for t, v in f.endpoints))
                for f in fams]

    return PeriodicPattern(_CORRIDOR, scale(plus), scale(minus),
                           nonsep=(NonsepTemplate("u", "w", 0),),
                           name="ladder_periodic",
                           automorphisms={"s": ([3, 3, 3], [3, 3, 3])})


def sinestrip_pattern(m: int) -> FinitePattern:
    """Window where the plus graph of true intervals has diameter 1 while the
    minus one has diameter >= m: a sign-swapped ladder."""
    _check_size("sinestrip", "m", m, 1, 6 * m - 3)
    ch, nonsep = ladder_chords(m)
    flipped = [(cid, MINUS if sign == PLUS else PLUS, eps)
               for cid, sign, eps in ch]
    return _chord_pattern(flipped, nonseparated=nonsep)


def prong_pattern(k: int) -> FinitePattern:
    """One k-prong singularity with one plus and one minus satellite per
    sector, wired so both leaf graphs are connected."""
    _check_size("prong", "k", k, 3, 2 * k + 2)
    n = 16 * k
    leaves = [("sp", PLUS, [16 * j for j in range(k)]),
              ("sm", MINUS, [16 * j + 8 for j in range(k)])]
    for j in range(k):
        leaves.append((f"p{j}", PLUS, [16 * j + 3, 16 * j + 13]))
        leaves.append((f"m{j}", MINUS, [(16 * j - 6) % n, 16 * j + 6]))
    sing = [Singularity("sp", "sm")]
    pts = [Point.crossing("o", "sp", "sm")]
    return _circle_pattern(n, leaves, singularities=sing, points=pts)


def lozenge_pattern() -> FinitePattern:
    """A single lozenge: two perfect fits, two crossings (the corners)."""
    ch = [("p0", PLUS, [(BOT, 2), (TOP, 0)]),
          ("p1", PLUS, [(BOT, 4), (TOP, 2)]),
          ("m0", MINUS, [(BOT, 0), (TOP, 2)]),
          ("m1", MINUS, [(BOT, 2), (TOP, 4)])]
    pts = [Point.crossing("ca", "p0", "m0"), Point.crossing("cb", "p1", "m1")]
    return _chord_pattern(ch, points=pts)


def chain_pattern(n: int) -> FinitePattern:
    """A chain of n lozenges sharing corners: crossings p_i x m_i, perfect
    fits (p_i, m_{i+1}) and (p_{i+1}, m_i)."""
    _check_size("chain", "n", n, 1, 2 * n + 2)
    ch = []
    for i in range(n + 1):
        ch.append((f"p{i}", PLUS, [(BOT, i), (TOP, i - 1)]))
        ch.append((f"m{i}", MINUS, [(BOT, i - 1), (TOP, i)]))
    pts = [Point.crossing(f"k{i}", f"p{i}", f"m{i}") for i in range(n + 1)]
    return _chord_pattern(ch, points=pts)


def _prong_div_chords(dividing: bool):
    n = 48
    leaves = [("sp", PLUS, [0, 16, 32]), ("sm", MINUS, [8, 24, 40]),
              ("x", PLUS, [2, 6])]
    leaves.append(("y", PLUS, [26, 30] if dividing else [18, 22]))
    # transversals keeping the plus graph connected
    leaves.append(("tx", MINUS, [4, 44]))
    leaves.append(("ty", MINUS, [28, 36] if dividing else [12, 20]))
    return n, leaves


def prongdiv_pattern() -> FinitePattern:
    """Three-prong dividing x from y: x fills one quadrant, y only the
    opposite one."""
    n, leaves = _prong_div_chords(True)
    return _circle_pattern(n, leaves, singularities=[Singularity("sp", "sm")])


def prongnondiv_pattern() -> FinitePattern:
    """Same skeleton but y meets a quadrant adjacent to x's: not dividing."""
    n, leaves = _prong_div_chords(False)
    return _circle_pattern(n, leaves, singularities=[Singularity("sp", "sm")])


def prongchain_pattern() -> FinitePattern:
    """Two nested three-prongs both dividing x from y, with transversals
    keeping the plus graph connected; the intersection-graph distance between
    x and y is at least the prong count."""
    raw = [("pa", PLUS, [0, 64, 128]), ("qa", MINUS, [32, 96, 160]),
           ("pb", PLUS, [80, 104, 120]), ("qb", MINUS, [100, 112, 124]),
           ("x", PLUS, [8, 24]), ("y", PLUS, [106, 110]),
           ("tx", MINUS, [16, 368]), ("tm", MINUS, [98, 156]),
           ("ty", MINUS, [102, 108])]
    # all on the ascending bot track, which ranks the positions
    chords = [(lid, sign, [(BOT, p) for p in eps]) for lid, sign, eps in raw]
    return _chord_pattern(chords, singularities=[Singularity("pa", "qa"),
                                                 Singularity("pb", "qb")])


def partlink_pattern() -> FinitePattern:
    """Two crossing points with exactly one of the cross-family intersections
    nonempty."""
    ch = [("pa", PLUS, [(BOT, 0), (TOP, 0)]),
          ("ma", MINUS, [(BOT, -1), (TOP, 1)]),
          ("pb", PLUS, [(BOT, 5), (TOP, 5)]),
          ("mb", MINUS, [(BOT, Fraction(-1, 2)), (TOP, 6)])]
    pts = [Point.crossing("a", "pa", "ma"), Point.crossing("b", "pb", "mb")]
    return _chord_pattern(ch, points=pts)


def scalloped_periodic() -> PeriodicPattern:
    """Two parallel periodic bands, each carrying the double lozenge-chain
    structure; the marker names band one.  The band swap is an automorphism
    moving the marked chain off itself.

    Band template (per block k): boundary plus V and boundary minus H cross
    at index offsets {0,1} and make perfect fits at {-1,2}; a and b are
    interior plus/minus leaves of the band.  Vertical bricks
    (V_k,V_{k+1};H_{k+2},H_k) share plus sides, horizontal bricks
    (V_k,V_{k+2};H_{k+2},H_{k+1}) share minus sides, both with the crossings
    and fits demanded of a lozenge.  Band two lives on its own pair of
    (reversed) tracks so no leaf of one band crosses the other.
    """
    tracks = (Track("bota", 1), Track("botb", -1),
              Track("topb", 1), Track("topa", -1))

    def band(vn, an, hn, bn, bt, tt):
        f = Fraction
        return ([Family(vn, PLUS, ((bt, f(-1)), (tt, f(0)))),
                 Family(an, PLUS, ((bt, f(-1, 3)), (tt, f(1, 3))))],
                [Family(hn, MINUS, ((bt, f(0)), (tt, f(-2)))),
                 Family(bn, MINUS, ((bt, f(4, 3)), (tt, f(-1, 3))))])

    plus1, minus1 = band("V", "a", "H", "b", "bota", "topa")
    plus2, minus2 = band("va", "ab", "ha", "bb", "botb", "topb")
    marker = ScallopedMarker(("V",), ("H",))
    return PeriodicPattern(tracks, plus1 + plus2, minus1 + minus2,
                           scalloped=marker, name="scalloped",
                           automorphisms={
                               "s": ([4, 4, 4, 4], [4, 4, 4, 4]),
                               "swap": ([2, 2, -2, -2], [2, 2, -2, -2]),
                           })


_GENERATORS = {
    "trivial": lambda n=3: trivial_pattern(int(n)),
    "trivial_periodic": lambda: trivial_periodic(),
    "skew": lambda W=2: skew_pattern(int(W)),
    "ladder": lambda n=2: ladder_pattern(int(n)),
    "ladder_periodic": lambda: ladder_periodic(),
    "scalloped": lambda: scalloped_periodic(),
    "prong": lambda k=3: prong_pattern(int(k)),
    "sinestrip": lambda m=4: sinestrip_pattern(int(m)),
    "lozenge": lambda: lozenge_pattern(),
    "chain": lambda n=3: chain_pattern(int(n)),
    "prongdiv": lambda: prongdiv_pattern(),
    "prongchain": lambda: prongchain_pattern(),
    "prongnondiv": lambda: prongnondiv_pattern(),
    "partlink": lambda: partlink_pattern(),
}


def generate(kind: str, *args):
    """Build a named pattern; finite kinds return valid FinitePatterns,
    periodic kinds return PeriodicPatterns.  An unknown kind, or more
    arguments than the kind takes, raise UsageError before any is built."""
    if kind not in _GENERATORS:
        raise UsageError(f"unknown kind {kind!r}; known: {sorted(_GENERATORS)}")
    takes = inspect.signature(_GENERATORS[kind]).parameters
    if len(args) > len(takes):
        raise UsageError(f"kind {kind} takes at most {len(takes)} argument(s), "
                         f"not {len(args)}")
    return _GENERATORS[kind](*args)
