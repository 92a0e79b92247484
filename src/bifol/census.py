"""Word-ball censuses over exactly represented automorphism groups.

Two concrete models: the affine model for the trivial plane (A^k followed by
the translation v, for a fixed hyperbolic matrix A) and the integer-map model
for the skew plane (bijections of Z commuting with translation by the
period).  Each model's census runs on integer normal forms:

- the affine model by a sphere recurrence (`_affine_spheres`): a sphere is
  {k: set of v packed into one int} holding one element per orbit of
  inversion (classes k >= 0 only) and, where the generating set allows it,
  of v -> -v; a step is one C-level set operation per class and generator;
- the integer-map model by `word_ball`, the breadth-first search also used by
  `dynamics`, keyed by the tuple of offsets.

Ball enumeration, the fixed/free classification and the growth/genericity
reports are exact and deterministic; element objects are built only by
`enumerate_ball`.  Both enumerators stop before a radius whose projected ball
exceeds `BUDGET` elements, or BIFOL_BUDGET_MS's cap (`_check_budget`); the
affine one counts each element of the ball, not each stored orbit, once per
64-bit word of its packing width.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate

from .pattern import BifolError, PreconditionError, UsageError
from .periodic import AffineElement, IndexMap, _intmap_mul, _power

TRIVIAL_AFFINE = "trivial_affine"
SKEW_INTMAP = "skew_intmap"
MODELS = (TRIVIAL_AFFINE, SKEW_INTMAP)
_ELEMENT = {TRIVIAL_AFFINE: AffineElement, SKEW_INTMAP: IndexMap}

FIXED, FREE = "fixed", "free"

# largest |k| of an affine generator: A^k has entries of about 1.4|k| bits,
# and the census needs powers up to |k| times the radius
MAX_EXPONENT = 100

# free on normal forms, by the rules of classify_fixed_free
_FREE = {TRIVIAL_AFFINE: lambda t: t[0] == 0 and t != (0, 0, 0),
         SKEW_INTMAP: lambda t: 0 not in t}


class BudgetExceededError(BifolError):
    """Projected enumeration cost exceeds the configured budget."""


BUDGET = 2_000_000  # elements a ball may be projected to hold


def _check_budget(radius: int, projected: int) -> None:
    """Stop before ``radius`` if its ``projected`` ball exceeds BUDGET, or
    500 elements per millisecond of BIFOL_BUDGET_MS: a fixed rate, so runs
    stay deterministic across machines."""
    ms = os.environ.get("BIFOL_BUDGET_MS")
    try:
        budget = BUDGET if ms is None else max(1, int(ms)) * 500
    except ValueError:
        raise UsageError(f"BIFOL_BUDGET_MS {ms!r}: wants an integer number "
                         f"of milliseconds") from None
    if projected > budget:
        raise BudgetExceededError(f"radius {radius}: projected {projected} "
                                  f"elements exceeds budget {budget}")


@dataclass(frozen=True)
class GeneratingSet:
    model: str
    generators: dict  # name -> element; inverses are added automatically

    def __post_init__(self):
        # generators enter the census here, so the tuple products trust them
        if self.model not in MODELS:
            raise PreconditionError(f"unknown model {self.model!r}")
        if not self.generators:
            raise PreconditionError("empty generating set")
        first = next(iter(self.generators.values()))
        for nm, g in self.generators.items():
            if not isinstance(g, _ELEMENT[self.model]):
                raise PreconditionError(f"generator {nm!r}: model mismatch")
            if g.is_identity():
                raise PreconditionError(f"identity generator {nm!r}")
            if isinstance(g, AffineElement) and abs(g.k) > MAX_EXPONENT:
                raise PreconditionError(
                    f"generator {nm!r}: matrix exponent {g.k} exceeds "
                    f"{MAX_EXPONENT} in absolute value")
            if isinstance(g, IndexMap) and g.N != first.N:
                raise PreconditionError(f"generator {nm!r}: period mismatch "
                                        f"({g.N}, not {first.N})")

    def symmetrized(self) -> list:
        """(name, element) for every generator and its inverse, in name
        order, without repeats (an involution is its own inverse)."""
        out, seen = [], set()
        for nm, g in sorted(self.generators.items()):
            for name, el in ((nm, g), (nm + "^-1", g.inverse())):
                if el not in seen:
                    seen.add(el)
                    out.append((name, el))
        return out

    @property
    def size(self) -> int:
        return len(self.generators)


def classify_fixed_free(model: str, g) -> str:
    """Trivial model: free iff pure nonzero translation.  Skew model: fixed
    iff some index has offset zero (the identity counts as fixed)."""
    if not isinstance(g, _ELEMENT.get(model, ())):
        raise PreconditionError(f"model mismatch: {g!r} in model {model!r}")
    t = (g.k, *g.v) if model == TRIVIAL_AFFINE else g.offsets
    return FREE if _FREE[model](t) else FIXED


def word_ball(gens: list, ident, n: int, mul, key=None,
              tag=lambda radius, gen, parent: radius) -> dict:
    """Breadth-first search to word length n over the (name, g) pairs `gens`
    with the product mul(g, w) = g*w: {normal form: (element, label)}, keyed
    by key(element), or the element itself.  The identity is labelled
    tag(0, None, None) and each new g*w tag(radius, name of g, label of w).
    The integer-map census and `dynamics` enumerate their balls here; the
    affine census has its own sphere recurrence, `_affine_spheres`."""
    start = (ident, tag(0, None, None))
    ball = {ident if key is None else key(ident): start}
    frontier = [start]
    for radius in range(1, n + 1):
        _check_budget(radius, len(ball) + len(frontier) * len(gens))
        nxt = []
        for w, label in frontier:
            for name, g in gens:
                c = mul(g, w)
                k = c if key is None else key(c)
                if k not in ball:
                    ball[k] = entry = (c, tag(radius, name, label))
                    nxt.append(entry)
        frontier = nxt
    return ball


def _ball(S: GeneratingSet, n: int) -> dict:
    """Integer-map model: {offsets: (offsets, word length)}, from one
    operation table, a row per symmetrized generator."""
    _check_radius(n)
    gens = S.symmetrized()
    return word_ball([(nm, g.offsets) for nm, g in gens],
                     (0,) * gens[0][1].N, n, _intmap_mul)


def _check_radius(n: int) -> None:
    if n < 0:
        raise UsageError(f"radius must be >= 0, not {n}")


def _columns(k: int, W: int) -> tuple[int, int]:
    """The packs of the columns of A^k, A^k e1 and A^k e2, at width W."""
    a, b, c, d = _power(k)
    return a * W + c, b * W + d


def _affine_spheres(S: GeneratingSet, n: int):
    """Affine model: yield (W, sign, sphere) for the word lengths 0..n, where
    a sphere is {k: set of v0 * W + v1} over one element (k, v) of each orbit
    (see Orbits); `_unfold` lists the elements of the orbits.

    Words grow on the right, (k, v)(k1, v1) = (k + k1, v + A^k v1), and
    packing is linear, so each product shifts a whole class k by the one
    constant pack(A^k v1) into class k + k1.  The generating set is
    symmetric, so the neighbours of S(r) lie in S(r-1), S(r) and S(r+1):
    S(r+1) is S(r) times the generators minus S(r) and S(r-1), class by
    class.  Each class carries the packed columns of A^k, so the constant
    is x col1 + y col2 for v1 = (x, y), and the class k + k1 it reaches
    takes the columns of A^k A^k1: sums with the entries of the generator's
    A^k1 as coefficients, never a product of two wide ints.

    Orbits.  Inversion (k, v) -> (-k, -A^-k v) keeps word length (the set
    is symmetric) and maps class k onto class -k: only classes k >= 0 are
    stored, a class k != 0 counting twice, and classes -kmax..-1, the only
    others that feed classes >= 0, are rebuilt from classes 1..kmax.  When
    the set is closed under sigma: (k, v) -> (k, -v), an automorphism (-I
    commutes with A), sigma keeps word length and classes: sets hold abs(p),
    one of v, -v (p > 0 iff v > 0 lexicographically, as |v1| <= W // 2),
    so a set s counts 2|s| - [0 in s]; and sigma(x) g = sigma(x sigma(g)),
    so the products of the stored x cover the orbits.

    Width.  A word of length <= R is a product of at most R letters (k_i, v_i)
    of the symmetrized set, with translation part the sum of A^K_i v_i over
    K_i = k_1 + ... + k_(i-1), so |K_i| <= R kmax.  The max-row-sum norm of
    A^m and of A^-m is F(2|m| + 2) (Fibonacci; A^-m has the entries of A^m
    up to sign and order), nondecreasing in |m|, so |v|_inf <= M = R vmax
    ||A^(R kmax)||.  With W = 2M + 1, packing is injective on the ball:
    equal packs give v1 = v1' mod W with |v1 - v1'| <= 2M < W, then v0 = v0'.
    When the recurrence reaches a radius r past the R of the current W, W
    is set for R = min(n, 2r) and the two live spheres are repacked; so W
    stays the size the reached radius needs, whatever n is."""
    _check_radius(n)
    sym = [(g.k, g.v) for _, g in S.symmetrized()]
    sign = {(k, (-x, -y)) for k, (x, y) in sym} == set(sym)
    fold = abs if sign else int.__neg__
    gens = [(k, v, _power(k)) for k, v in sym]
    kmax = max(abs(k) for k, _ in sym)
    vmax = max(abs(x) for _, v in sym for x in v)
    W, R = 1, 0
    prev, cur, size = {}, {0: {0}}, 1
    yield W, sign, cur
    for radius in range(1, n + 1):
        wider = radius > R
        if wider:
            R = min(n, 2 * radius)
            a, b, c, d = _power(R * kmax)
            half = R * vmax * max(abs(a) + abs(b), abs(c) + abs(d))
            W, old = 2 * half + 1, W
        # elements, each counted once per 64-bit word of the width W; checked
        # before the spheres are repacked to it
        _check_budget(radius, (size + _sphere_size(sign, cur) * len(gens))
                      * -(-W.bit_length() // 64))
        if wider:
            prev, cur = ({k: {p + _unpack(p, old)[0] * (W - old) for p in s}
                          for k, s in sp.items()} for sp in (prev, cur))
            cols = {k: _columns(k, W) for k in cur}
            inv = {-j: _columns(-j, W) for j in range(1, kmax + 1)}
        cols.update(inv)
        # classes -kmax..-1 of S(r): pack(-A^-j v) over class j, or its abs
        neg = {}
        for j in range(1, kmax + 1):
            if j in cur:
                c1, c2 = inv[-j]
                neg[-j] = {fold(x * c1 + y * c2)
                           for x, y in (_unpack(p, W) for p in cur[j])}
        nxt, nxt_cols = {}, {}
        for k, vs in (*neg.items(), *cur.items()):
            p1, p2 = cols[k]
            for k1, (x, y), (e, f, g, h) in gens:
                if k + k1 < 0:
                    continue
                # a matrix letter moves the class as it is; under sign the
                # stored packs are >= 0, so only a step < 0 needs abs
                step = x * p1 + y * p2
                shift = map(step.__add__, vs) if step else vs
                if sign and step < 0:
                    shift = map(abs, shift)
                if k + k1 in nxt:
                    nxt[k + k1].update(shift)
                else:
                    nxt[k + k1] = set(shift)
                    # A^(k + k1) = A^k A^k1, column by column
                    nxt_cols[k + k1] = (e * p1 + g * p2, f * p1 + h * p2)
        for k, s in nxt.items():
            s.difference_update(cur.get(k, ()))
            s.difference_update(prev.get(k, ()))
        prev, cur = cur, {k: s for k, s in nxt.items() if s}
        cols = nxt_cols
        size += _sphere_size(sign, cur)
        yield W, sign, cur


def _sphere_size(sign: bool, sphere: dict) -> int:
    """The elements of the orbits a sphere of `_affine_spheres` stores."""
    return sum((2 * len(s) - (0 in s) if sign else len(s)) * (2 if k else 1)
               for k, s in sphere.items())


def _unpack(p: int, W: int) -> tuple[int, int]:
    """(v0, v1) from p = v0 * W + v1, |v1| <= W // 2, for odd W."""
    v1 = (p + W // 2) % W - W // 2
    return (p - v1) // W, v1


def _unfold(W: int, sign: bool, sphere: dict):
    """(k, v0, v1) for each element of the orbits a sphere of
    `_affine_spheres` stores."""
    for k, s in sphere.items():
        a, b, c, d = _power(-k)
        for p in s:
            x, y = _unpack(p, W)
            for e in (1, -1) if sign and p else (1,):
                yield k, e * x, e * y
                if k:
                    yield -k, -e * (a * x + b * y), -e * (c * x + d * y)


def enumerate_ball(S: GeneratingSet, n: int) -> dict:
    """{normal form: (element, word length)} for word lengths <= n."""
    if S.model == SKEW_INTMAP:
        return {t: (IndexMap._trusted(t), r) for t, (_, r) in _ball(S, n).items()}
    return {t: (AffineElement(t[0], t[1:]), r)
            for r, (W, sign, sphere) in enumerate(_affine_spheres(S, n))
            for t in _unfold(W, sign, sphere)}


def _counts(S: GeneratingSet, n: int, ball: dict | None = None) -> tuple[list, list]:
    """Per word length: the number of elements and of free ones, from the
    affine spheres or the integer-map ball (built here unless given)."""
    per_radius, free_r = [0] * (n + 1), [0] * (n + 1)
    if S.model == TRIVIAL_AFFINE:
        for r, (_, sign, sphere) in enumerate(_affine_spheres(S, n)):
            per_radius[r] = _sphere_size(sign, sphere)
            # class 0 past the identity: the nonzero translations
            free_r[r] = _sphere_size(sign, {0: sphere.get(0, ())}) if r else 0
        return per_radius, free_r
    free = _FREE[SKEW_INTMAP]
    for t, r in (ball or _ball(S, n)).values():
        per_radius[r] += 1
        free_r[r] += free(t)
    return per_radius, free_r


@dataclass(frozen=True)
class BallStats:
    model: str
    radii: tuple[int, ...]
    ball: tuple[int, ...]          # |B(n)|
    free: tuple[int, ...]          # |Free  & B(n)|
    fixed: tuple[int, ...]         # |Fixed & B(n)|
    doubling_ok: bool              # |B(n+1)| <= 2|S| |B(n)| at every n
    lambda_hat: tuple[float, ...]  # ln|B(n)|/n
    lambda_free: tuple[float, ...]

    def rows(self):
        return [(n, b, f, f / b if b else 0.0, lam, lamf)
                for n, b, f, lam, lamf in zip(self.radii, self.ball, self.free,
                                              self.lambda_hat, self.lambda_free)]


def ball_stats(S: GeneratingSet, nmax: int) -> BallStats:
    return _stats(S, *_counts(S, nmax))


def _stats(S: GeneratingSet, per_radius: list, free_r: list) -> BallStats:
    nmax = len(per_radius) - 1
    cum_b, cum_f = list(accumulate(per_radius)), list(accumulate(free_r))
    # sphere-step form of the doubling estimate: every word of length n+1 is
    # a generator times a word of length n, so the new elements number at
    # most 2|S| |B(n)|.  (The cumulative form fails at n=0 by the identity.)
    doubling = all(cum_b[n + 1] - cum_b[n] <= 2 * S.size * cum_b[n]
                   for n in range(nmax))
    lam = tuple(math.log(cum_b[n]) / n if n else 0.0 for n in range(nmax + 1))
    lamf = tuple(math.log(cum_f[n]) / n if n and cum_f[n] else 0.0
                 for n in range(nmax + 1))
    return BallStats(S.model, tuple(range(nmax + 1)), tuple(cum_b),
                     tuple(cum_f),
                     tuple(cum_b[i] - cum_f[i] for i in range(nmax + 1)),
                     doubling, tuple(lam), tuple(lamf))


@dataclass(frozen=True)
class GrowthReport:
    stats: BallStats
    loglog_slope_free: float | None       # free counts in the ambient ball
    loglog_slope_intrinsic: float | None  # translation subgroup, own metric
    checks: dict

    @property
    def ok(self):
        return all(self.checks.values())


def _loglog_slope(counts, lo, hi):
    if counts[lo] <= 0 or counts[hi] <= 0 or hi <= lo:
        return None
    return (math.log(counts[hi]) - math.log(counts[lo])) / \
        (math.log(hi) - math.log(lo))


def growth_report(S: GeneratingSet, nmax: int) -> GrowthReport:
    """Ball statistics plus the doubling inequality at every radius.

    For the trivial model the polynomial-growth check is evaluated on the
    translation subgroup in its own word metric (the free elements as an
    abstract group); the subgroup is exponentially distorted in the ambient
    group, so the slope of its ball intersections is also reported but not
    bounded.
    """
    st = ball_stats(S, nmax)
    checks = {"doubling": st.doubling_ok}
    slope = slope_int = None
    if S.model == TRIVIAL_AFFINE and nmax >= 4:
        lo = nmax // 2
        slope = _loglog_slope(st.free, lo, nmax)
        # intrinsic count: translations of word length <= n in <t1,t2>
        intrinsic = [2 * n * n + 2 * n for n in range(nmax + 1)]
        slope_int = _loglog_slope(intrinsic, lo, nmax)
        checks["free_polynomial_fit"] = (slope_int is not None
                                         and slope_int <= 2.5)
        checks["exponential_whole_ball"] = st.lambda_hat[nmax] >= 0.3
        checks["free_rate_below_group_rate"] = \
            st.lambda_free[nmax] < st.lambda_hat[nmax]
    return GrowthReport(st, slope, slope_int, checks)


@dataclass(frozen=True)
class GenericityReport:
    nmax: int
    R: int                  # word length of the designated shift
    K: int                  # |B(R)|
    L: int                  # (2|S|)^R
    dichotomy_ok: bool      # every g in the ball: g free or hg free
    fraction_bound_ok: bool  # |Free & B(n+R)|/|B(n+R)| >= 1/(LK)
    fractions: tuple
    lambda_gap: tuple       # |lambda_free(n) - lambda(n)| per radius
    stats: BallStats        # of the same ball

    @property
    def ok(self):
        return self.dichotomy_ok and self.fraction_bound_ok


def genericity_report(S: GeneratingSet, h: IndexMap, nmax: int) -> GenericityReport:
    """Skew-model census: verify that every ball element or its h-translate
    acts freely, and the resulting lower bound on the free fraction."""
    if S.model != SKEW_INTMAP:
        raise PreconditionError("genericity census runs on the skew model")
    if not isinstance(h, IndexMap):
        raise PreconditionError("designated shift must be an integer map")
    if any(o < h.N + 1 for o in h.offsets):
        raise PreconditionError(
            "designated shift must displace every index by more than the period")
    ball = _ball(S, nmax)
    if h.offsets not in ball:
        raise PreconditionError("designated shift outside the enumerated ball")
    R = ball[h.offsets][1]  # word length of h
    st = _stats(S, *_counts(S, nmax, ball))
    K = st.ball[R]
    L = (2 * S.size) ** R
    free = _FREE[SKEW_INTMAP]
    dichotomy = all(free(t) or free(_intmap_mul(h.offsets, t)) for t in ball)
    fractions = tuple(st.free[n] / st.ball[n] for n in range(R, nmax + 1))
    bound_ok = all(frac >= 1.0 / (L * K) for frac in fractions)
    gap = tuple(abs(st.lambda_free[n] - st.lambda_hat[n])
                for n in range(nmax + 1))
    return GenericityReport(nmax, R, K, L, dichotomy, bound_ok, fractions,
                            gap, st)


# -- shipped model builders ----------------------------------------------------


def trivial_affine_gens() -> GeneratingSet:
    """Matrix generator and the two unit translations (inverses implied)."""
    return GeneratingSet(TRIVIAL_AFFINE, {
        "A": AffineElement(1, (0, 0)),
        "t1": AffineElement(0, (1, 0)),
        "t2": AffineElement(0, (0, 1)),
    })


def skew_intmap_gens() -> GeneratingSet:
    """Period-two model: the unit shift and a local double-step at one index.
    The period is chosen so that the free-or-shifted-free dichotomy is a
    theorem for every valid element (offsets 0 and -(N+1) cannot coexist in a
    bijection when N = 2)."""
    return GeneratingSet(SKEW_INTMAP, {
        "s": IndexMap([1, 1]),
        "f": IndexMap([0, 2]),
    })


def skew_designated_shift() -> IndexMap:
    return IndexMap([3, 3])
