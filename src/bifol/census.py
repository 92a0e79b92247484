"""Word-ball censuses over exactly represented automorphism groups.

Two concrete models: the affine model for the trivial plane (integer pairs
(matrix power, translation vector) under the fixed hyperbolic matrix) and the
integer-map model for the skew plane (bijections of Z commuting with
translation by the period).  Elements carry exact normal forms, so ball
enumeration, classification into fixed-point versus free elements, and the
growth/genericity reports are deterministic and reproducible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .pattern import BifolError, PreconditionError
from .periodic import AffineElement, IndexMap

TRIVIAL_AFFINE = "trivial_affine"
SKEW_INTMAP = "skew_intmap"
MODELS = (TRIVIAL_AFFINE, SKEW_INTMAP)

FIXED, FREE = "fixed", "free"


class BudgetExceededError(BifolError):
    """Projected enumeration cost exceeds the configured budget."""


def _budget_elements(default: int = 2_000_000) -> int:
    # BIFOL_BUDGET_MS is interpreted via a fixed elements-per-millisecond
    # rate so runs stay deterministic across machines.
    ms = os.environ.get("BIFOL_BUDGET_MS")
    if ms is None:
        return default
    return max(1, int(ms)) * 500


def _key(g):
    if isinstance(g, AffineElement):
        return ("aff", g.k, g.v)
    if isinstance(g, IndexMap):
        return ("map", g.offsets)
    raise PreconditionError(f"unsupported element {g!r}")


def _mul(a, b):
    if isinstance(a, AffineElement):
        return a.mul(b)
    return a.compose(b)


def _identity_like(g):
    if isinstance(g, AffineElement):
        return AffineElement.identity()
    return IndexMap.identity(g.N)


@dataclass(frozen=True)
class GeneratingSet:
    model: str
    generators: dict  # name -> element; inverses are added automatically

    def __post_init__(self):
        if self.model not in MODELS:
            raise PreconditionError(f"unknown model {self.model!r}")
        if not self.generators:
            raise PreconditionError("empty generating set")
        for nm, g in self.generators.items():
            if isinstance(g, (AffineElement, IndexMap)) and g.is_identity():
                raise PreconditionError(f"identity generator {nm}")

    def symmetrized(self) -> list:
        out = []
        seen = set()
        for nm, g in sorted(self.generators.items()):
            for name, el in ((nm, g), (nm + "^-1", g.inverse())):
                k = _key(el)
                if k not in seen:
                    seen.add(k)
                    out.append((name, el))
        return out

    @property
    def size(self) -> int:
        return len(self.generators)


def classify_fixed_free(model: str, g) -> str:
    """Trivial model: free iff pure nonzero translation.  Skew model: fixed
    iff some index has offset zero (the identity counts as fixed)."""
    if model == TRIVIAL_AFFINE:
        if not isinstance(g, AffineElement):
            raise PreconditionError("model mismatch: expected an affine element")
        return FREE if (g.k == 0 and g.v != (0, 0)) else FIXED
    if model == SKEW_INTMAP:
        if not isinstance(g, IndexMap):
            raise PreconditionError("model mismatch: expected an integer map")
        return FIXED if any(o == 0 for o in g.offsets) else FREE
    raise PreconditionError(f"unknown model {model!r}")


def word_ball(gens: list, ident, n: int, budget: int | None = None, key=_key,
              tag=lambda radius, gen, parent: radius) -> dict:
    """Breadth-first search to word length n over the (name, element) pairs
    `gens`, deduplicated by the exact normal form `key`: {key: (element,
    label)}.  The identity is labelled tag(0, None, None) and each new
    product g*w tag(radius, name of g, label of w)."""
    budget = budget if budget is not None else _budget_elements()
    start = (ident, tag(0, None, None))
    ball = {key(ident): start}
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
                c = _mul(g, w)
                k = key(c)
                if k not in ball:
                    ball[k] = entry = (c, tag(radius, name, label))
                    nxt.append(entry)
        frontier = nxt
    return ball


def enumerate_ball(S: GeneratingSet, n: int, budget: int | None = None) -> dict:
    """All distinct elements of word length <= n: {key: (element, length)}."""
    if n < 0:
        raise PreconditionError("radius must be >= 0")
    gens = S.symmetrized()
    return word_ball(gens, _identity_like(gens[0][1]), n, budget)


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
        out = []
        for i, n in enumerate(self.radii):
            frac = self.free[i] / self.ball[i] if self.ball[i] else 0.0
            out.append((n, self.ball[i], self.free[i], frac,
                        self.lambda_hat[i], self.lambda_free[i]))
        return out


def ball_stats(S: GeneratingSet, nmax: int, budget: int | None = None) -> BallStats:
    return _stats(S, enumerate_ball(S, nmax, budget), nmax)


def _stats(S: GeneratingSet, ball: dict, nmax: int) -> BallStats:
    per_radius = [0] * (nmax + 1)
    free_r = [0] * (nmax + 1)
    for _, (el, r) in ball.items():
        per_radius[r] += 1
        if classify_fixed_free(S.model, el) == FREE:
            free_r[r] += 1
    cum_b, cum_f, B, F = [], [], 0, 0
    for n in range(nmax + 1):
        B += per_radius[n]
        F += free_r[n]
        cum_b.append(B)
        cum_f.append(F)
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
    doubling_ok: bool
    loglog_slope_free: float | None       # free counts in the ambient ball
    loglog_slope_intrinsic: float | None  # translation subgroup, own metric
    lambda_hat_top: float
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
    return GrowthReport(st, st.doubling_ok, slope, slope_int,
                        st.lambda_hat[nmax], checks)


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
    ball = enumerate_ball(S, nmax, budget)
    # word length of h inside the ball
    hk = _key(h)
    if hk not in ball:
        raise PreconditionError("designated shift outside the enumerated ball")
    R = ball[hk][1]
    st = _stats(S, ball, nmax)
    K = st.ball[R]
    L = (2 * S.size) ** R
    dichotomy = all(classify_fixed_free(S.model, g) == FREE
                    or classify_fixed_free(S.model, h.compose(g)) == FREE
                    for g, _ in ball.values())
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


def translation_subgroup_ball(nmax: int) -> set:
    """Independent enumeration of the translations reachable in the trivial
    model: BFS that tracks only elements with zero matrix part via exact
    products, used as a cross-check oracle."""
    S = trivial_affine_gens()
    ball = enumerate_ball(S, nmax)
    return {el.v for _, (el, r) in ball.items()
            if el.k == 0 and el.v != (0, 0)}
