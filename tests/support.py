"""Shared randomized generators for the test suite and
``scripts/random_convex_experiment.py``.

Everything takes an explicit random.Random seeded by the caller, so a
failing test reproduces from its seed alone.
"""

from fractions import Fraction
from random import Random
from typing import List, Sequence, Set, Tuple

import realearn.trace
from realearn import (Assumed, KnowledgeState, LeastCandidate, Point, RealNum,
                      RealRegistry, Step)
from realearn.geometry import RationalPoint
from realearn.oracle import exact_orientation


def random_fraction(rng: Random, span: int = 8, denom_bits: int = 6) -> Fraction:
    denom = 2 ** rng.randint(0, denom_bits)
    return Fraction(rng.randint(-span * denom, span * denom), denom)


def random_table_prefix(value: Fraction, rng: Random,
                        depth: int) -> List[Tuple[Fraction, Fraction]]:
    """A valid nested-interval prefix converging to ``value``."""
    prefix: List[Tuple[Fraction, Fraction]] = []
    below = Fraction(rng.randint(0, 8), 16)
    above = Fraction(rng.randint(0, 8), 16)
    for k in range(depth):
        cap = Fraction(1, 2 ** (k + 1))
        below = min(below, cap)
        above = min(above, cap)
        prefix.append((value - below, value + above))
        below = below * rng.randint(0, 3) / 4
        above = above * rng.randint(0, 3) / 4
    return prefix


def random_real(reg: RealRegistry, rng: Random,
                value: Fraction = None) -> Tuple[RealNum, Fraction]:
    """A random real drawn from all three constructors, with its limit."""
    if value is None:
        value = random_fraction(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return reg.from_rational(value), value
    if kind == 1:
        return reg.blurred(value), value
    prefix = random_table_prefix(value, rng, rng.randint(0, 6))
    return reg.from_table(prefix, value), value


def distinct_fractions(rng: Random, count: int, span: int = 16) -> List[Fraction]:
    seen = set()
    out: List[Fraction] = []
    while len(out) < count:
        v = random_fraction(rng, span=span)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def general_position_points(rng: Random, count: int) -> List[RationalPoint]:
    """Random rational points: distinct y, no collinear triple."""
    while True:
        pts = [RationalPoint(Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 12),
                             Fraction(rng.randint(-2 ** 20, 2 ** 20), 2 ** 12))
               for _ in range(count)]
        if len({p.y for p in pts}) != count:
            continue
        if any(exact_orientation(pts[i], pts[j], pts[k]) == 0
               for i in range(count)
               for j in range(i + 1, count)
               for k in range(j + 1, count)):
            continue
        return pts


def register_points(pts: Sequence[RationalPoint], blurred: bool = False
                    ) -> Tuple[RealRegistry, List[Point]]:
    """Register every y coordinate, then every x coordinate, and return
    the registry with the points.  The convex construction does not
    depend on this order; it learns over the points' own y list."""
    reg = RealRegistry()
    ctor = reg.blurred if blurred else reg.from_rational
    ys = [ctor(p.y) for p in pts]
    xs = [ctor(p.x) for p in pts]
    return reg, [Point(i, xs[i], ys[i]) for i in range(len(pts))]


def count_trace_builds(monkeypatch) -> Tuple[List[str], List[int]]:
    """From now on, record the phase of every ``TraceEvent`` built and
    the size of every knowledge-state snapshot read."""
    phases: List[str] = []
    snapshots: List[int] = []
    init = realearn.trace.TraceEvent.__init__
    snapshot = KnowledgeState.snapshot.fget

    def counted_init(event, seq, phase, payload):
        phases.append(phase)
        init(event, seq, phase, payload)

    def counted_snapshot(state):
        snapshots.append(state.size)
        return snapshot(state)

    monkeypatch.setattr(realearn.trace.TraceEvent, "__init__", counted_init)
    monkeypatch.setattr(KnowledgeState, "snapshot", property(counted_snapshot))
    return phases, snapshots


def evidence_graph(cand: LeastCandidate) -> Tuple[Set[Tuple[int, int, int]],
                                                  Set[Tuple[int, int]]]:
    """Edge view of a candidate's evidence.

    Returns ``(solid, dotted)``: solid edges ``(a, b, w)`` are strict
    facts ``op_at(r_a, r_b, w)``; dotted edges ``(i, j)`` are open
    assumptions ``r_i <= r_j``.
    """
    solid: Set[Tuple[int, int, int]] = set()
    dotted: Set[Tuple[int, int]] = set()
    for ev in cand.evidences.values():
        while isinstance(ev, Step):
            solid.add((ev.subject, ev.rest.subject, ev.witness))
            ev = ev.rest
        if isinstance(ev, Assumed):
            dotted.add((ev.i, ev.j))
    return solid, dotted
