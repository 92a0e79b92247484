"""Finitely described infinite patterns and their exact automorphisms.

A periodic pattern has one integer-indexed copy of each leaf *family* per
translation block.  Every endpoint sits on a named boundary *track*; the
circle is the concatenation of the tracks, each read in its own direction,
and an endpoint's position on its track is an affine function (template
offset + block index) of the leaf's index.  Crossings, windows and
automorphism checks are all evaluated exactly from this data, so no floating
point or sampling enters anywhere.

A periodic pattern is certified once, in its constructor, by validating the
window (0, reach): every violation involves at most three leaves, leaves
farther apart than the template span relate as at the span plus one, so by
translation invariance each violation of the infinite pattern has a copy in
that window.  Windows are faithful truncations of a certified pattern and
are not validated again.

The module also owns every shipped fixture generator: finite patterns are
built by the same track walk (``_chord_pattern``) that builds the windows of
periodic patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .pattern import (
    PLUS, MINUS, FinitePattern, Leaf, Point, PreconditionError,
    Singularity, UnknownIdError,
)


@dataclass(frozen=True)
class Track:
    name: str
    direction: int  # +1: positions ascend along the circle; -1: descend

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise PreconditionError("track direction must be +1 or -1")


@dataclass(frozen=True)
class Family:
    """Template for one leaf per block: endpoints as (track, offset)."""

    name: str
    sign: str
    endpoints: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        if not self.name.isalpha():
            raise PreconditionError("family names must be alphabetic")


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
    if not fam or not idx or not fam.isalpha():
        raise UnknownIdError(f"not a periodic leaf name: {name!r}")
    return fam, int(idx)


BOT, TOP = "bot", "top"
_CORRIDOR = (Track(BOT, 1), Track(TOP, -1))


def _chord_pattern(chords, tracks=_CORRIDOR, nonseparated=(), singularities=(),
                   points=()):
    """Finite pattern from chords (id, sign, [(track, value), ...]) on the
    given tracks.  Walking the circle (the tracks in order, each in its own
    direction) labels every occupied position c0, c1, ..., so each leaf's
    endpoints come out sorted.  A position holds one leaf, or two leaves of
    opposite signs (a perfect fit)."""
    at = {t.name: {} for t in tracks}
    for cid, sign, eps in chords:
        for tr, val in eps:
            at[tr].setdefault(val, []).append(sign)
    rank = {}
    for t in tracks:
        for v in sorted(at[t.name], reverse=t.direction == -1):
            signs = at[t.name][v]
            if len(signs) > 2 or (len(signs) == 2 and signs[0] == signs[1]):
                raise PreconditionError(
                    f"track {t.name}: >2 leaves or same-sign share at {v}")
            rank[(t.name, v)] = len(rank)
    leaves = [Leaf(cid, sign, tuple(f"c{i}" for i in sorted(rank[e] for e in eps)))
              for cid, sign, eps in chords]
    return FinitePattern([f"c{i}" for i in range(len(rank))], leaves,
                         singularities, nonseparated, points)


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

    def __call__(self, i: int) -> int:
        return i + self.offsets[i % self.N]

    def compose(self, other: "IndexMap") -> "IndexMap":
        """self after other."""
        if self.N != other.N:
            raise PreconditionError("period mismatch")
        return IndexMap([other.offsets[r] + self.offsets[(r + other.offsets[r]) % self.N]
                         for r in range(self.N)])

    def inverse(self) -> "IndexMap":
        inv = [None] * self.N
        for r, o in enumerate(self.offsets):
            inv[(r + o) % self.N] = -o
        return IndexMap(inv)

    @staticmethod
    def identity(N: int) -> "IndexMap":
        return IndexMap([0] * N)

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
        self.automorphisms: dict[str, "PatternAutomorphism"] = {}
        self.band = band  # optional per-residue crossing-offset sets
        self.name = name
        self._track_order = {t.name: i for i, t in enumerate(self.tracks)}
        if len(self._track_order) != len(self.tracks):
            raise PreconditionError("track names must be unique")
        self._fam_index = {PLUS: {f.name: i for i, f in enumerate(self.plus_families)},
                           MINUS: {f.name: i for i, f in enumerate(self.minus_families)}}
        names = [f.name for f in self.plus_families + self.minus_families]
        if len(set(names)) != len(names):
            raise PreconditionError("family names must be unique")
        for sign in (PLUS, MINUS):
            for f in self.families(sign):
                for tname, _ in f.endpoints:
                    if tname not in self._track_order:
                        raise PreconditionError(f"unknown track {tname!r}")
        # positional arguments: the benchmark tracer unpacks (self, lo, hi)
        self.materialize_window(0, self.reach()).require_valid()
        if automorphisms:
            for nm, (po, mo) in automorphisms.items():
                self.automorphisms[nm] = PatternAutomorphism(
                    self, IndexMap(po), IndexMap(mo), name=nm)

    # -- indexing ---------------------------------------------------------

    def families(self, sign: str) -> tuple[Family, ...]:
        return self.plus_families if sign == PLUS else self.minus_families

    def global_index(self, sign: str, fam: str, k: int) -> int:
        try:
            f = self._fam_index[sign][fam]
        except KeyError:
            raise UnknownIdError(f"unknown {sign} family {fam!r}") from None
        return k * self.period + f

    def split_index(self, i: int) -> tuple[int, int]:
        return i % self.period, i // self.period

    def sign_of_leaf(self, name: str) -> str:
        fam, _ = parse_leaf_name(name)
        for sign in (PLUS, MINUS):
            if fam in self._fam_index[sign]:
                return sign
        raise UnknownIdError(f"unknown leaf {name!r}: no family {fam!r}")

    def leaf_index(self, name: str) -> tuple[str, int]:
        """(sign, global index) of a leaf name like 'p3'."""
        fam, k = parse_leaf_name(name)
        sign = self.sign_of_leaf(name)
        return sign, self.global_index(sign, fam, k)

    def leaf_of_index(self, sign: str, i: int) -> str:
        r, k = self.split_index(i)
        return leaf_name(self.families(sign)[r].name, k)

    # -- exact template geometry -------------------------------------------

    def _angles(self, sign: str, i: int):
        """Endpoint angles of leaf (sign, global index i): tuples that sort in
        circle order.  Equal tuples are shared (perfect-fit) endpoints."""
        r, k = self.split_index(i)
        fam = self.families(sign)[r]
        out = []
        for tname, off in fam.endpoints:
            t = self._track_order[tname]
            val = off + k
            d = self.tracks[t].direction
            out.append((t, val if d == 1 else -val))
        return sorted(out)

    def template_cross(self, sign_a: str, ia: int, sign_b: str, ib: int) -> bool:
        """Do leaves (sign_a, ia) and (sign_b, ib) cross?  Exact for chords."""
        if sign_a == sign_b:
            return False
        aa, bb = self._angles(sign_a, ia), self._angles(sign_b, ib)
        if len(aa) != 2 or len(bb) != 2:
            raise PreconditionError("template crossing needs regular leaves")
        if set(aa) & set(bb):
            return False  # shared endpoint: perfect fit, not a crossing
        lo, hi = aa
        inside = sum(1 for x in bb if lo < x < hi)
        return inside == 1

    def reach(self) -> int:
        """Width in blocks of a window holding a copy of every configuration
        of at most three leaves: ceil(template span) + 1, since leaves farther
        apart than the span relate as at the span plus one, and the widest
        nonseparation offset on top."""
        vals = [off for sign in (PLUS, MINUS) for f in self.families(sign)
                for _, off in f.endpoints]
        return (math.ceil(max(vals) - min(vals)) + 1
                + max((abs(t.offset) for t in self.nonsep), default=0))

    def nonsep_pairs_in(self, lo: int, hi: int) -> list[frozenset]:
        return [frozenset((leaf_name(t.fam_a, k), leaf_name(t.fam_b, k + t.offset)))
                for t in self.nonsep for k in range(lo, hi + 1)
                if lo <= k + t.offset <= hi]

    # -- windows ------------------------------------------------------------

    def materialize_window(self, lo: int, hi: int) -> FinitePattern:
        """Finite pattern holding every family copy with block index in
        [lo, hi] and the declared nonseparated pairs among them; the boundary
        circle is the track walk over their endpoints.  The constructor has
        certified the pattern, so the window is valid and is not checked."""
        if lo >= hi:
            raise PreconditionError("window needs lo < hi")
        chords = [(leaf_name(f.name, k), sign,
                   [(tname, off + k) for tname, off in f.endpoints])
                  for sign in (PLUS, MINUS) for f in self.families(sign)
                  for k in range(lo, hi + 1)]
        return _chord_pattern(chords, self.tracks,
                              nonseparated=self.nonsep_pairs_in(lo, hi))


class PatternAutomorphism:
    """A template-preserving pair of index maps, plus one per sign.

    The constructor checks the templates where maps enter.  By translation
    invariance and template locality its finite check certifies the infinite
    map, so products and inverses of checked maps are built unchecked.

    Orientation-reversing (translation anti-commuting) maps are not modeled;
    the orientation field exists for the data format and must be +1.
    """

    __slots__ = ("pattern", "plus", "minus", "orientation", "name")

    def __init__(self, pattern: PeriodicPattern, plus: IndexMap, minus: IndexMap,
                 orientation: int = 1, name: str = ""):
        if orientation != 1:
            raise PreconditionError("only translation-commuting maps are modeled")
        if plus.N != pattern.period or minus.N != pattern.period:
            raise PreconditionError("index map period mismatch")
        self.pattern = pattern
        self.plus = plus
        self.minus = minus
        self.orientation = 1
        self.name = name
        self._check_templates()

    @classmethod
    def _trusted(cls, pattern, plus, minus, name) -> "PatternAutomorphism":
        """An automorphism valid by construction, built without the check."""
        g = object.__new__(cls)
        g.pattern, g.plus, g.minus, g.orientation, g.name = \
            pattern, plus, minus, 1, name
        return g

    def _reach(self) -> int:
        off_span = max(max(map(abs, self.plus.offsets)),
                       max(map(abs, self.minus.offsets)), 1)
        return (self.pattern.reach() + 1 + off_span) * self.pattern.period

    def _check_templates(self):
        pp, B = self.pattern, self._reach()
        for f in range(pp.period):
            for j in range(-B, B + 1):
                if pp.template_cross(PLUS, f, MINUS, j) != \
                        pp.template_cross(PLUS, self.plus(f), MINUS, self.minus(j)):
                    raise PreconditionError(
                        f"map does not preserve the intersection template "
                        f"(plus {f}, minus {j})")
        pairs = {(t.fam_a, t.fam_b, t.offset) for t in pp.nonsep}
        pairs |= {(b, a, -o) for a, b, o in pairs}
        for t in pp.nonsep:
            sign = pp.sign_of_leaf(leaf_name(t.fam_a, 0))
            m = self.plus if sign == PLUS else self.minus
            ia = pp.global_index(sign, t.fam_a, 0)
            ib = pp.global_index(sign, t.fam_b, t.offset)
            ra, ka = pp.split_index(m(ia))
            rb, kb = pp.split_index(m(ib))
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
    for sign, fams, m in ((PLUS, pp.scalloped.plus_families, g.plus),
                          (MINUS, pp.scalloped.minus_families, g.minus)):
        marked = {pp._fam_index[sign][f] for f in fams}
        for r in marked:
            r2, k2 = pp.split_index(m(r))
            if r2 not in marked:
                return False
            shifts.add(k2)
    return len(shifts) == 1


# -- affine model for the trivial-plane census --------------------------------

HYPERBOLIC_MATRIX = ((2, 1), (1, 1))
_INV_MATRIX = ((1, -1), (-1, 2))


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _mat_pow_vec(k: int, v):
    m = HYPERBOLIC_MATRIX if k >= 0 else _INV_MATRIX
    for _ in range(abs(k)):
        v = _mat_vec(m, v)
    return v


@dataclass(frozen=True)
class AffineElement:
    """(k, v): the k-th power of the fixed hyperbolic matrix followed by the
    integer translation v.  Group law (k1,v1)(k2,v2) = (k1+k2, v1 + A^k1 v2)."""

    k: int
    v: tuple[int, int]

    def mul(self, other: "AffineElement") -> "AffineElement":
        w = _mat_pow_vec(self.k, other.v)
        return AffineElement(self.k + other.k,
                             (self.v[0] + w[0], self.v[1] + w[1]))

    def inverse(self) -> "AffineElement":
        w = _mat_pow_vec(-self.k, self.v)
        return AffineElement(-self.k, (-w[0], -w[1]))

    @staticmethod
    def identity() -> "AffineElement":
        return AffineElement(0, (0, 0))

    def is_identity(self) -> bool:
        return self.k == 0 and self.v == (0, 0)


# -- fixture generators -------------------------------------------------------

def _circle_pattern(n_positions, leaves, **kw):
    """Finite pattern from leaves given as (id, sign, [positions]) on a circle
    with integer positions 0..n_positions-1."""
    labels = [f"c{i}" for i in range(n_positions)]
    built = [Leaf(cid, sign, tuple(f"c{p}" for p in sorted(eps)))
             for cid, sign, eps in leaves]
    return FinitePattern(labels, built, **kw)


def trivial_pattern(n: int) -> FinitePattern:
    """Complete-bipartite grid: n 'vertical' plus and n 'horizontal' minus
    chords, every opposite pair crossing, all crossings marked."""
    if n < 1:
        raise PreconditionError("trivial(n) needs n >= 1")
    # circle: v tops (0..n-1), h rights (n..2n-1), v bottoms reversed,
    # h lefts reversed
    labels = [f"c{i}" for i in range(4 * n)]
    leaves = []
    for i in range(n):
        leaves.append(Leaf(f"v{i}", PLUS, (f"c{i}", f"c{3 * n - 1 - i}")))
    for j in range(n):
        leaves.append(Leaf(f"h{j}", MINUS, (f"c{n + j}", f"c{4 * n - 1 - j}")))
    pts = [Point.crossing(f"x{i}{j}", f"v{i}", f"h{j}")
           for i in range(n) for j in range(n)]
    fp = FinitePattern(labels, leaves, points=pts)
    return fp.require_valid()


def trivial_periodic() -> PeriodicPattern:
    tracks = (Track("n", 1), Track("e", 1), Track("s", -1), Track("w", -1))
    plus = [Family("p", PLUS, (("n", Fraction(0)), ("s", Fraction(0))))]
    minus = [Family("m", MINUS, (("e", Fraction(0)), ("w", Fraction(0))))]
    return PeriodicPattern(tracks, plus, minus, band={"0": "all"},
                           name="trivial_periodic")


def skew_pattern(W: int) -> PeriodicPattern:
    """Band pattern: plus_i crosses minus_j iff i <= j < i + W."""
    if W < 2:
        raise PreconditionError("skew(W) needs W >= 2")
    plus = [Family("p", PLUS, ((BOT, Fraction(0)), (TOP, Fraction(2 * W - 1, 2))))]
    minus = [Family("m", MINUS, ((BOT, Fraction(1, 2)), (TOP, Fraction(0))))]
    return PeriodicPattern(_CORRIDOR, plus, minus,
                           band={"0": list(range(W))}, name=f"skew{W}",
                           automorphisms={"s": ([1], [1])})


def ladder_chords(n: int):
    """Corridor chords of the n-block ladder: end verticals x,y; junction
    pairs (u_k, w_k); bottom hooks r_k in each junction gap; minus leaves
    g_k (block transversals), a_k and b_k (hook transversals)."""
    if n < 1:
        raise PreconditionError("ladder(n) needs n >= 1")
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
    fp = _chord_pattern(ch, nonseparated=nonsep, points=pts)
    return fp.require_valid()


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
    if m < 1:
        raise PreconditionError("sinestrip(m) needs m >= 1")
    ch, nonsep = ladder_chords(m)
    flipped = [(cid, MINUS if sign == PLUS else PLUS, eps)
               for cid, sign, eps in ch]
    fp = _chord_pattern(flipped, nonseparated=nonsep)
    return fp.require_valid()


def prong_pattern(k: int) -> FinitePattern:
    """One k-prong singularity with one plus and one minus satellite per
    sector, wired so both leaf graphs are connected."""
    if k < 3:
        raise PreconditionError("prong(k) needs k >= 3")
    n = 16 * k
    leaves = [("sp", PLUS, [16 * j for j in range(k)]),
              ("sm", MINUS, [16 * j + 8 for j in range(k)])]
    for j in range(k):
        leaves.append((f"p{j}", PLUS, [16 * j + 3, 16 * j + 13]))
        leaves.append((f"m{j}", MINUS, [(16 * j - 6) % n, 16 * j + 6]))
    sing = [Singularity("sp", "sm")]
    pts = [Point.crossing("o", "sp", "sm")]
    fp = _circle_pattern(n, leaves, singularities=sing, points=pts)
    return fp.require_valid()


def lozenge_pattern() -> FinitePattern:
    """A single lozenge: two perfect fits, two crossings (the corners)."""
    ch = [("p0", PLUS, [(BOT, 2), (TOP, 0)]),
          ("p1", PLUS, [(BOT, 4), (TOP, 2)]),
          ("m0", MINUS, [(BOT, 0), (TOP, 2)]),
          ("m1", MINUS, [(BOT, 2), (TOP, 4)])]
    pts = [Point.crossing("ca", "p0", "m0"), Point.crossing("cb", "p1", "m1")]
    return _chord_pattern(ch, points=pts).require_valid()


def chain_pattern(n: int) -> FinitePattern:
    """A chain of n lozenges sharing corners: crossings p_i x m_i, perfect
    fits (p_i, m_{i+1}) and (p_{i+1}, m_i)."""
    if n < 1:
        raise PreconditionError("chain(n) needs n >= 1")
    ch = []
    for i in range(n + 1):
        ch.append((f"p{i}", PLUS, [(BOT, i), (TOP, i - 1)]))
        ch.append((f"m{i}", MINUS, [(BOT, i - 1), (TOP, i)]))
    pts = [Point.crossing(f"k{i}", f"p{i}", f"m{i}") for i in range(n + 1)]
    return _chord_pattern(ch, points=pts).require_valid()


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
    fp = _circle_pattern(n, leaves, singularities=[Singularity("sp", "sm")])
    return fp.require_valid()


def prongnondiv_pattern() -> FinitePattern:
    """Same skeleton but y meets a quadrant adjacent to x's: not dividing."""
    n, leaves = _prong_div_chords(False)
    fp = _circle_pattern(n, leaves, singularities=[Singularity("sp", "sm")])
    return fp.require_valid()


def prongchain_pattern() -> FinitePattern:
    """Two nested three-prongs both dividing x from y, with transversals
    keeping the plus graph connected; the intersection-graph distance between
    x and y is at least the prong count."""
    raw = [("pa", PLUS, [0, 64, 128]), ("qa", MINUS, [32, 96, 160]),
           ("pb", PLUS, [80, 104, 120]), ("qb", MINUS, [100, 112, 124]),
           ("x", PLUS, [8, 24]), ("y", PLUS, [106, 110]),
           ("tx", MINUS, [16, 368]), ("tm", MINUS, [98, 156]),
           ("ty", MINUS, [102, 108])]
    used = sorted({p for _, _, eps in raw for p in eps})
    rank = {p: i for i, p in enumerate(used)}
    leaves = [(lid, sign, [rank[p] for p in eps]) for lid, sign, eps in raw]
    fp = _circle_pattern(len(used), leaves,
                         singularities=[Singularity("pa", "qa"),
                                        Singularity("pb", "qb")])
    return fp.require_valid()


def partlink_pattern() -> FinitePattern:
    """Two crossing points with exactly one of the cross-family intersections
    nonempty."""
    ch = [("pa", PLUS, [(BOT, 0), (TOP, 0)]),
          ("ma", MINUS, [(BOT, -1), (TOP, 1)]),
          ("pb", PLUS, [(BOT, 5), (TOP, 5)]),
          ("mb", MINUS, [(BOT, Fraction(-1, 2)), (TOP, 6)])]
    pts = [Point.crossing("a", "pa", "ma"), Point.crossing("b", "pb", "mb")]
    return _chord_pattern(ch, points=pts).require_valid()


def scalloped_periodic(period: int = 1) -> PeriodicPattern:
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
    if period < 1:
        raise PreconditionError("scalloped(period) needs period >= 1")
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
    "scalloped": lambda period=1: scalloped_periodic(int(period)),
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
    """Build a named pattern; finite kinds return validated FinitePatterns,
    periodic kinds return PeriodicPatterns."""
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise PreconditionError(
            f"unknown kind {kind!r}; known: {sorted(_GENERATORS)}") from None
    return gen(*args)
