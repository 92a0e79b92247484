"""Axes, block decompositions, pseudo-line projections, overlap intervals,
isometry classification and finite-scale weak-proper-discontinuity scans for
automorphisms of periodic patterns.

Everything is evaluated on materialized windows with exact combinatorics;
asymptotic quantities are reported as brackets or flagged stable under
window doubling, never asserted as limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from . import graphs as gr
from .census import word_ball
from .pattern import (
    PLUS, MINUS, BifolError, FinitePattern, Mode, PreconditionError,
    nonsep_blocks,
)
from .periodic import (
    IndexMap, PatternAutomorphism, PeriodicPattern, identity_automorphism,
    scalloped_invariant,
)


class ProjectionUndefinedError(BifolError):
    """The window is too small to pin down a pseudo-line projection."""


@dataclass(frozen=True)
class PseudoLine:
    """A window realization of a bi-infinite ordered family of same-family
    leaves together with the nonseparated pairs that break it into blocks."""

    leaves: tuple[str, ...]
    nonsep: frozenset

    def blocks(self) -> tuple[tuple[str, ...], ...]:
        return nonsep_blocks(self.leaves, self.nonsep)


@dataclass(frozen=True)
class AxisData:
    element: str
    sign: str
    window: tuple[int, int]
    line: PseudoLine
    period_blocks: int  # blocks per fundamental domain of the element

    @property
    def leaves(self):
        return self.line.leaves

    @property
    def blocks(self):
        return self.line.blocks()


def axis(pp: PeriodicPattern, g: PatternAutomorphism, sign: str,
         window: tuple[int, int] = (-6, 6)) -> AxisData:
    """Window leaves that separate their own backward and forward images,
    ordered, with the block structure induced by the declared nonseparation.
    Leaves move as indices under g's map m of the sign.
    """
    m = g._map(sign)
    if _fixed_residues(m):
        raise PreconditionError(
            "element fixes a leaf; use classify_isometry instead")
    lo, hi = window
    p = pp.materialize_window(lo, hi)
    first, last = lo * pp.period, (hi + 1) * pp.period
    minv = m.inverse()
    name = partial(pp.leaf_of_index, sign)
    at = {name(i): i for i in range(first, last)  # axis leaf -> index
          if first <= m(i) < last and first <= minv(i) < last
          and p._separates(name(i), name(minv(i)), name(m(i)))}
    if not at:
        raise PreconditionError("no axis leaves inside the window")
    # orientation along the chain is fixed by the end-leaf choice; block
    # structure and period are orientation-independent
    ordered = p._order_chain(at)
    line = PseudoLine(tuple(ordered), frozenset(p.nonseparated))
    blocks = line.blocks()
    # blocks per fundamental domain: where does m send the first full block?
    block_of = {at[leaf]: k for k, b in enumerate(blocks) for leaf in b}
    t = 0
    for k, b in enumerate(blocks):
        hit = {block_of.get(m(at[leaf])) for leaf in b} - {None}
        if len(hit) == 1:
            t = abs(hit.pop() - k)
            break
    return AxisData(g.name or "g", sign, window, line, t)


def induced_blocks(p: FinitePattern, a: AxisData, x: str, y: str):
    """Canonical block decomposition of the sub-pseudo-interval between two
    axis leaves."""
    if x not in a.leaves or y not in a.leaves:
        raise PreconditionError("endpoints must lie on the axis")
    return p.pseudo_interval(x, y, Mode.NONSEP).blocks


def project_to_pseudoline(p: FinitePattern, A: PseudoLine, x: str):
    """The unique leaf (or adjacent nonseparated pair) of A meeting every
    pseudo-interval from x into A; explicit error when the window cannot
    decide."""
    if p.leaf(x).sign != p.leaf(A.leaves[0]).sign:
        raise PreconditionError("projection needs a leaf of the line's family")
    chains = {y: set(p.pseudo_interval(x, y, Mode.NONSEP).chain)
              for y in A.leaves}
    singles = [l for l in A.leaves
               if all(l in ch for ch in chains.values())]
    if len(singles) == 1:
        return (singles[0],)
    if not singles:
        pairs = [(a, b) for a, b in zip(A.leaves, A.leaves[1:])
                 if frozenset((a, b)) in A.nonsep]
        hits = [pr for pr in pairs
                if all(set(pr) & ch for ch in chains.values())]
        if len(hits) == 1:
            return hits[0]
    raise ProjectionUndefinedError(
        f"projection of {x} not determined inside the window")


@dataclass(frozen=True)
class OverlapReport:
    j1: str
    j2: str
    interval: tuple[str, ...]
    bounds: dict
    epsilon: float

    @property
    def ok(self):
        lim = 2 * self.epsilon + 2
        return all(v <= lim for v in self.bounds.values())


def overlap_interval(p: FinitePattern, A: PseudoLine, a: str, b: str,
                     h: PatternAutomorphism, eps: float) -> OverlapReport:
    """Intersection of the interval [a,b] on the line with the image of its
    h-translate, with the four endpoint distance bounds measured."""
    G = gr.build_graph(p, gr.XPLUS)
    dab = gr.distance(G, a, b)
    if not dab > 4 * eps + 5:
        raise PreconditionError(f"need d(a,b) > 4*eps+5, measured {dab}")
    hinv = h.inverse()
    da, db = gr.distance(G, a, h.act(a)), gr.distance(G, b, h.act(b))
    if not (da < eps and db < eps):
        raise PreconditionError(
            f"need d(a,ha) < eps and d(b,hb) < eps, measured {da}, {db}")
    pa = project_to_pseudoline(p, A, hinv.act(a))
    pb = project_to_pseudoline(p, A, hinv.act(b))
    main = p.pseudo_interval(a, b, Mode.NONSEP).chain
    other = set(p.pseudo_interval(pa[0], pb[0], Mode.NONSEP).chain)
    J = [leaf for leaf in main if leaf in other]
    if not J:
        raise PreconditionError("overlap interval is empty in this window")
    j1, j2 = J[0], J[-1]
    bounds = {"d(j1,a)": gr.distance(G, j1, a),
              "d(j2,b)": gr.distance(G, j2, b),
              "d(h j1,a)": gr.distance(G, h.act(j1), a),
              "d(h j2,b)": gr.distance(G, h.act(j2), b)}
    return OverlapReport(j1, j2, tuple(J), bounds, eps)


# -- isometry classification ---------------------------------------------------


@dataclass(frozen=True)
class Elliptic:
    certificate: str  # fixed_point | fixed_leaf | scalloped | bounded_orbit
    detail: str = ""
    kind: str = field(default="elliptic")


@dataclass(frozen=True)
class Loxodromic:
    tau_lower: float
    tau_upper: float
    n_used: int
    displacements: tuple
    kind: str = field(default="loxodromic")


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    kind: str = field(default="inconclusive")


def _fixed_residues(m: IndexMap):
    """The residues of the leaves m fixes: those where its offset is 0."""
    return [r for r, o in enumerate(m.offsets) if o == 0]


def classify_isometry(pp: PeriodicPattern, g: PatternAutomorphism,
                      window: int = 8, nmax: int = 8):
    """Order of certificates: fixed crossing point, fixed leaf, scalloped
    invariance, finite order (exact: the offsets sum to zero around every
    residue cycle), scalloped invariance of g^k for k the order of g's
    residue permutation, an intersection graph of diameter one stable under
    doubling, then a loxodromic translation-length bracket.  A degenerate
    bracket yields Inconclusive, never a parabolic verdict."""
    return _algebraic_verdict(pp, g) or _window_verdict(pp, g, window, nmax)


def _algebraic_verdict(pp: PeriodicPattern, g: PatternAutomorphism):
    """The certificates of ``classify_isometry`` that need no window: an
    Elliptic verdict, or None."""
    fp = _fixed_residues(g.plus)
    fm = _fixed_residues(g.minus)
    if fp and fm:
        for r in fp:
            for q in fm:
                if pp._cross[r][q]:
                    return Elliptic("fixed_point",
                                    f"plus residue {r} x minus residue {q}")
    if fp or fm:
        sign = "plus" if fp else "minus"
        return Elliptic("fixed_leaf", f"{sign} residue {(fp or fm)[0]}")
    if pp.scalloped is not None and scalloped_invariant(pp, g):
        return Elliptic("scalloped", "marked chain preserved")
    order = g.order_if_finite()
    if order is not None:
        return Elliptic("bounded_orbit", f"finite order {order}")
    # some power of g preserves the marked chain iff g^k does
    k = g.residue_order()
    if pp.scalloped is not None and k > 1 and \
            scalloped_invariant(pp, g.power(k)):
        return Elliptic("scalloped", f"marked chain preserved by power {k}")
    return None


def _complete(G: gr.LeafGraph) -> bool:
    """Diameter at most one: every vertex is adjacent to all the others."""
    return all(len(ns) == len(G.vertices) - 1 for ns in G.adj.values())


def _window_verdict(pp: PeriodicPattern, g: PatternAutomorphism,
                    window: int, nmax: int, p: FinitePattern | None = None):
    """The stages of ``classify_isometry`` read off its window p =
    (-window, window), built here unless given: diameter one, then the
    translation-length bracket, which needs nmax >= 2."""
    if nmax < 2:
        return Inconclusive(f"nmax {nmax} is below 2: a displacement bracket "
                            f"needs at least two displacements")
    if p is None:
        p = pp.materialize_window(-window, window)
    G = gr.build_graph(p, gr.XPLUS)
    if _complete(G) and _complete(gr.build_graph(
            pp.materialize_window(-2 * window, 2 * window), gr.XPLUS)):
        return Elliptic("bounded_orbit", "intersection graph has diameter 1")
    # translation-length bracket from one orbit walk of the base leaf, plus
    # index 0: when the orbit alternates between graph components
    # (parallel-band patterns), the step is the least j <= nmax that returns
    # to the base component, and displacements are read at its multiples
    lo, hi = -window * pp.period, (window + 1) * pp.period
    dist0 = gr.distances_from(G, pp.leaf_of_index(PLUS, 0))
    step = None
    disp = []
    i = j = 0
    while step is None or len(disp) * step < nmax:
        i = g.plus(i)
        j += 1
        d = dist0.get(pp.leaf_of_index(PLUS, i))
        if step is None:
            if j > nmax or not lo <= i < hi:
                return Inconclusive(
                    "orbit leaves the base component in this window")
            if d is not None:
                step = j
        if step and j % step == 0:
            if d is None:
                break
            disp.append(d)
    if len(disp) < 2:
        return Inconclusive("window too small for a displacement bracket")
    K = len(disp)
    tau_upper = min(d / ((k + 1) * step) for k, d in enumerate(disp))
    tau_lower = (disp[-1] - disp[0]) / ((K - 1) * step)
    if tau_lower <= 0:
        return Inconclusive("window too small: degenerate bracket")
    return Loxodromic(tau_lower, tau_upper, K * step, tuple(disp))


# -- WPD scans ------------------------------------------------------------------


def automorphism_ball(pp: PeriodicPattern, gens: dict, radius: int) -> dict:
    """Word ball over named generators (inverses included), with exact
    normal-form deduplication: {key: (shortest word name, element)}."""
    return {k: (nm, g) for k, (g, (_, nm)) in _word_ball(pp, gens, radius).items()}


def _word_ball(pp: PeriodicPattern, gens: dict, radius: int) -> dict:
    """The word ball as {key: (element, (word length, shortest word name))}."""
    sym = [x for nm, g in gens.items()
           for x in ((nm, g), (nm + "^-1", g.inverse()))]
    return word_ball(sym, identity_automorphism(pp), radius,
                     PatternAutomorphism.compose,
                     key=lambda g: (g.plus.offsets, g.minus.offsets),
                     tag=_word_tag)


def _word_tag(radius, gen, parent):
    if gen is None:
        return (0, "id")
    name = parent[1]
    return (radius, gen if name == "id" else f"{gen}*{name}")


@dataclass(frozen=True)
class WpdScan:
    witnesses: tuple[str, ...]
    stable: bool
    eps: float
    n: int
    block_constraint_ok: bool
    block_checked: bool = False  # a record built without it claims no check


def _wpd_witnesses(p, g, base, eps, n, candidates):
    """The candidates moving both ends of the axis segment from ``base`` by
    less than eps in the xplus graph of the window p.  The base is parsed
    once; the segment and its images move as indices."""
    G = gr.build_graph(p, gr.XPLUS)
    if base not in p.leaves:
        raise PreconditionError(f"base vertex {base!r} outside window")
    sign, b = g.pattern.leaf_index(base)
    name = partial(g.pattern.leaf_of_index, sign)
    m = g._map(sign)
    t = b
    for _ in range(n):
        if name(m(t)) not in p.leaves:
            break
        t = m(t)
    tip = name(t)
    out = []
    for nm, h in candidates:
        hb, ht = name(h._map(sign)(b)), name(h._map(sign)(t))
        if hb not in p.leaves or ht not in p.leaves:
            continue
        if gr.distance(G, base, hb) < eps and gr.distance(G, tip, ht) < eps:
            out.append(nm)
    return tuple(sorted(out))


def wpd_scan(pp: PeriodicPattern, g: PatternAutomorphism, base: str,
             eps: float, n: int, gens: dict, radius: int = 4,
             window: int = 8, axis_data: AxisData | None = None) -> WpdScan:
    """Enumerate candidate elements that move both ends of a long axis
    segment by less than eps; the stability flag reports invariance of the
    witness set under growing the candidate ball by two and doubling the
    window.  The block check runs when ``axis_data`` is given with
    ``period_blocks`` > 0 (``block_checked``; else the constraint is vacuously
    ok): it fails when a candidate other than the identity fixes leaves of
    two axis blocks ``period_blocks`` or more apart, where an element fixes a
    leaf iff its offset at the leaf's residue is 0 (``_fixed_residues``)."""
    # classify_isometry, with its window kept for the witness scan, so the
    # window and its xplus graph are built once
    verdict = _algebraic_verdict(pp, g)
    if verdict is None:
        # both windows are size-checked before either is built
        pp.check_window(-window, window)
        pp.check_window(-2 * window, 2 * window)
        p = pp.materialize_window(-window, window)
        verdict = _window_verdict(pp, g, window, 8, p)
    if not isinstance(verdict, Loxodromic):
        raise PreconditionError("scanned element must be loxodromic")
    # one ball at radius + 2; its words of length <= radius are the ball
    # at radius, with the same names, since breadth-first search is ordered
    words = sorted((nm, r, h) for h, (r, nm) in
                   _word_ball(pp, gens, radius + 2).values())
    cands = [(nm, h) for nm, r, h in words if r <= radius]
    cands2 = [(nm, h) for nm, _, h in words]
    wit = _wpd_witnesses(p, g, base, eps, n, cands)
    del p  # drop the window before its double is built
    wit2 = _wpd_witnesses(pp.materialize_window(-2 * window, 2 * window), g,
                          base, eps, n, cands2)
    ok, checked = True, axis_data is not None and axis_data.period_blocks > 0
    if checked:
        residues = [{pp.leaf_index(leaf)[1] % pp.period for leaf in b}
                    for b in axis_data.blocks]
        for nm, h in cands:
            if h.is_identity():
                continue
            fixed = set(_fixed_residues(h._map(axis_data.sign)))
            hit = [k for k, rs in enumerate(residues) if rs & fixed]
            if hit and hit[-1] - hit[0] >= axis_data.period_blocks:
                ok = False
    return WpdScan(wit, wit == wit2, eps, n, ok, checked)
