"""Seeded random valid patterns for the property and acceptance suites.

Chords are sampled on a fine integer grid of boundary positions; a candidate
is kept only when it crosses no same-family chord, so every draw yields a
valid pattern.  Occasionally a legal nonseparated pair is declared.  The
construction is a pure function of the seed.  ``periodic._chord_pattern``
ranks the grid positions.  Draws are not validated; the tests check their
validity over hundreds of seeds.
"""

from __future__ import annotations

import itertools
import random

from .pattern import PLUS, MINUS, FinitePattern, Point
from .periodic import BOT, _chord_pattern

_GRID = 10_000


def random_pattern(seed: int, max_leaves: int = 20) -> FinitePattern:
    rng = random.Random(seed)
    n_leaves = rng.randint(4, max_leaves)
    chords: list[tuple[str, str, int, int]] = []  # id, sign, pos, pos
    used: set[int] = set()

    def fresh() -> int:
        while True:
            x = rng.randrange(_GRID)
            if x not in used:
                return x

    def links(a1, a2, b1, b2) -> bool:
        lo, hi = min(a1, a2), max(a1, a2)
        return (lo < b1 < hi) != (lo < b2 < hi)

    counters = {PLUS: 0, MINUS: 0}
    for _ in range(n_leaves):
        sign = rng.choice((PLUS, MINUS))
        for _attempt in range(60):
            e1, e2 = fresh(), fresh()
            while e2 == e1:
                e2 = fresh()
            if all(not links(e1, e2, c1, c2)
                   for _, s, c1, c2 in chords if s == sign):
                pref = "P" if sign == PLUS else "M"
                chords.append((f"{pref}{counters[sign]}", sign, e1, e2))
                counters[sign] += 1
                used.update((e1, e2))
                break

    on_bot = [(cid, sign, [(BOT, e1), (BOT, e2)]) for cid, sign, e1, e2 in chords]
    pattern = _chord_pattern(on_bot)

    nonsep = []
    if rng.random() < 0.5:
        candidates = []
        for a, b in itertools.combinations(sorted(pattern.leaves), 2):
            la, lb = pattern.leaves[a], pattern.leaves[b]
            if la.sign != lb.sign:
                continue
            if pattern._seps(a, b) or pattern.common_transversal(a, b):
                continue
            candidates.append((a, b))
        if candidates:
            nonsep.append(rng.choice(candidates))

    points = []
    crossings = [(a, b) for a, b in itertools.combinations(sorted(pattern.leaves), 2)
                 if pattern.intersects(a, b)]
    for i, (a, b) in enumerate(crossings[:4]):
        plus, minus = (a, b) if pattern.leaves[a].sign == PLUS else (b, a)
        points.append(Point.crossing(f"pt{i}", plus, minus))

    return _chord_pattern(on_bot, nonseparated=nonsep, points=points)
