"""Seeded benchmark inputs, made without importing realearn.

Every coordinate and value is a dyadic rational k / 2**(GRID_BITS + m)
with |k| <= 2 * SPAN: the grid of the repository's own tests (|k| <=
2**20), scaled by 2**-m.  The same seed always gives the same inputs.

A corpus is made in two draws.  The shapes (point sets, lists of
values) come from ``Random(BASE_SEED)`` and are the same for every
seed; ``--seed`` then moves each shape by its own grid offset.  A
blurred real's interval at k is its limit +- 2**-(k+1), so every
comparison realearn makes between differences of coordinates, and every
witness, restart and interval level, is the same after a common
offset.  Every seed therefore asks realearn for exactly the same work
on different numbers, and runs with different seeds compare like with
like.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import List, Tuple

GRID_BITS = 12
SPAN = 2 ** 19
BASE_SEED = 0

IntPoint = Tuple[int, int]
RatPoint = Tuple[Fraction, Fraction]


def _orient_int(p: IntPoint, q: IntPoint, r: IntPoint) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


def general_position(rng: Random, n: int, scale_bits: int = 0) -> List[RatPoint]:
    """n grid points with pairwise distinct y and no collinear triple."""
    denom = 2 ** (GRID_BITS + scale_bits)
    while True:
        pts = [(rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN))
               for _ in range(n)]
        if len({y for _, y in pts}) != n:
            continue
        if any(_orient_int(p, q, r) == 0 for p, q, r in combinations(pts, 3)):
            continue
        return [(Fraction(x, denom), Fraction(y, denom)) for x, y in pts]


def shift_points(rng: Random, points: List[RatPoint],
                 scale_bits: int = 0) -> List[RatPoint]:
    """The points moved by one seeded grid offset (same orientations)."""
    denom = 2 ** (GRID_BITS + scale_bits)
    dx = Fraction(rng.randint(-SPAN, SPAN), denom)
    dy = Fraction(rng.randint(-SPAN, SPAN), denom)
    return [(x + dx, y + dy) for x, y in points]


def shift_values(rng: Random, values: List[Fraction]) -> List[Fraction]:
    """The values moved by one seeded grid offset (same order and gaps)."""
    d = Fraction(rng.randint(-SPAN, SPAN), 2 ** GRID_BITS)
    return [v + d for v in values]


def collinear(rng: Random, n: int) -> List[RatPoint]:
    """n distinct grid points on one line that is not horizontal."""
    denom = 2 ** GRID_BITS
    x0, y0 = rng.randint(-SPAN // 2, SPAN // 2), rng.randint(-SPAN // 2, SPAN // 2)
    dx, dy = rng.randint(-64, 64), rng.randint(1, 64)
    steps = rng.sample(range(-1000, 1001), n)
    return [(Fraction(x0 + t * dx, denom), Fraction(y0 + t * dy, denom))
            for t in steps]


def descending(rng: Random, n: int) -> List[Fraction]:
    """n + 1 distinct grid values in strictly descending order."""
    ks = sorted(rng.sample(range(-SPAN, SPAN + 1), n + 1), reverse=True)
    return [Fraction(k, 2 ** GRID_BITS) for k in ks]


def _blurred(q: Fraction) -> dict:
    return {"kind": "blurred", "value": f"{q.numerator}/{q.denominator}"}


def write_points(path, points: List[RatPoint]) -> None:
    """A point document with every coordinate blurred."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, (x, y) in enumerate(points):
            record = {"type": "point", "index": i,
                      "x": _blurred(x), "y": _blurred(y)}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_reals(path, values: List[Fraction]) -> None:
    """A real document with every value blurred."""
    with open(path, "w", encoding="utf-8") as handle:
        for value in values:
            record = {"type": "real", **_blurred(value)}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
