"""Word-ball censuses over exactly represented automorphism groups.

Two concrete models: the affine model for the trivial plane (A^k followed by
the translation v, for a fixed hyperbolic matrix A) and the integer-map model
for the skew plane (bijections of Z commuting with translation by the
period).  The census runs on integer normal forms, each its own dedup key:
the tuple (k, v0, v1), or the tuple of offsets.  Ball enumeration, the
fixed/free classification and the growth/genericity reports are exact and
deterministic; element objects are built only by `enumerate_ball`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate

from .pattern import BifolError, PreconditionError, UsageError
from .periodic import AffineElement, IndexMap, _intmap_mul, _mat_pow_vec

TRIVIAL_AFFINE = "trivial_affine"
SKEW_INTMAP = "skew_intmap"
MODELS = (TRIVIAL_AFFINE, SKEW_INTMAP)
_ELEMENT = {TRIVIAL_AFFINE: AffineElement, SKEW_INTMAP: IndexMap}

FIXED, FREE = "fixed", "free"

# free on normal forms, by the rules of classify_fixed_free
_FREE = {TRIVIAL_AFFINE: lambda t: t[0] == 0 and t != (0, 0, 0),
         SKEW_INTMAP: lambda t: 0 not in t}


class BudgetExceededError(BifolError):
    """Projected enumeration cost exceeds the configured budget."""


def _budget_elements(default: int = 2_000_000) -> int:
    # BIFOL_BUDGET_MS is interpreted via a fixed elements-per-millisecond
    # rate so runs stay deterministic across machines.
    ms = os.environ.get("BIFOL_BUDGET_MS")
    if ms is None:
        return default
    return max(1, int(ms)) * 500


def _affine_mul(row, w):
    """(k1, v1)(k, v) = (k1 + k, v1 + A^k1 v); row: k1, v1, A^k1 by columns."""
    k1, x, y, a, c, b, d = row
    k, p, q = w
    return (k1 + k, x + a * p + b * q, y + c * p + d * q)


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


def word_ball(gens: list, ident, n: int, mul, budget: int | None = None,
              key=None, tag=lambda radius, gen, parent: radius) -> dict:
    """Breadth-first search to word length n over the (name, g) pairs `gens`
    with the product mul(g, w) = g*w: {normal form: (element, label)}, keyed
    by key(element), or the element itself.  The identity is labelled
    tag(0, None, None) and each new g*w tag(radius, name of g, label of w)."""
    budget = budget if budget is not None else _budget_elements()
    start = (ident, tag(0, None, None))
    ball = {ident if key is None else key(ident): start}
    frontier = [start]
    for radius in range(1, n + 1):
        projected = len(ball) + len(frontier) * len(gens)
        if projected > budget:
            raise BudgetExceededError(
                f"radius {radius}: projected {projected} elements "
                f"exceeds budget {budget}")
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


def _ball(S: GeneratingSet, n: int, budget: int | None) -> dict:
    """{normal form t: (t, word length)}, from one operation table: a row
    per symmetrized generator, read by the model's product."""
    if n < 0:
        raise UsageError(f"radius must be >= 0, not {n}")
    gens = S.symmetrized()
    if S.model == SKEW_INTMAP:
        return word_ball([(nm, g.offsets) for nm, g in gens],
                         (0,) * gens[0][1].N, n, _intmap_mul, budget)
    return word_ball([(nm, (g.k, *g.v, *_mat_pow_vec(g.k, (1, 0)),
                            *_mat_pow_vec(g.k, (0, 1)))) for nm, g in gens],
                     (0, 0, 0), n, _affine_mul, budget)


def enumerate_ball(S: GeneratingSet, n: int, budget: int | None = None) -> dict:
    """{normal form: (element, word length)} for word lengths <= n."""
    el = IndexMap if S.model == SKEW_INTMAP else \
        (lambda t: AffineElement(t[0], t[1:]))
    return {t: (el(t), r) for t, (_, r) in _ball(S, n, budget).items()}


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


def ball_stats(S: GeneratingSet, nmax: int, budget: int | None = None) -> BallStats:
    return _stats(S, _ball(S, nmax, budget), nmax)


def _stats(S: GeneratingSet, ball: dict, nmax: int) -> BallStats:
    per_radius, free_r = [0] * (nmax + 1), [0] * (nmax + 1)
    free = _FREE[S.model]
    for t, r in ball.values():
        per_radius[r] += 1
        if free(t):
            free_r[r] += 1
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


def growth_report(S: GeneratingSet, nmax: int, budget: int | None = None) -> GrowthReport:
    """Ball statistics plus the doubling inequality at every radius.

    For the trivial model the polynomial-growth check is evaluated on the
    translation subgroup in its own word metric (the free elements as an
    abstract group); the subgroup is exponentially distorted in the ambient
    group, so the slope of its ball intersections is also reported but not
    bounded.
    """
    st = ball_stats(S, nmax, budget)
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


def genericity_report(S: GeneratingSet, h: IndexMap, nmax: int,
                      budget: int | None = None) -> GenericityReport:
    """Skew-model census: verify that every ball element or its h-translate
    acts freely, and the resulting lower bound on the free fraction."""
    if S.model != SKEW_INTMAP:
        raise PreconditionError("genericity census runs on the skew model")
    if not isinstance(h, IndexMap):
        raise PreconditionError("designated shift must be an integer map")
    if any(o < h.N + 1 for o in h.offsets):
        raise PreconditionError(
            "designated shift must displace every index by more than the period")
    ball = _ball(S, nmax, budget)
    if h.offsets not in ball:
        raise PreconditionError("designated shift outside the enumerated ball")
    R = ball[h.offsets][1]  # word length of h
    st = _stats(S, ball, nmax)
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
