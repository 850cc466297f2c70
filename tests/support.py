"""Shared randomized generators and a trace recorder for the test suite
and the scripts ``random_convex_experiment.py``, ``precision_report.py``
and ``replay_worked_example.py``.

Everything takes an explicit random.Random seeded by the caller, so a
failing test reproduces from its seed alone.
"""

import io
import sys
from fractions import Fraction
from functools import partial
from random import Random
from typing import List, Sequence, Set, Tuple

from realearn import (Assumed, KnowledgeState, LeastCandidate, Point, RealNum,
                      RealRegistry, Step)
from realearn.geometry import RationalPoint
from realearn.oracle import exact_orientation
from realearn.reals import Measured, _over_lcm
from realearn.trace import TraceEvent, TraceFile


# the interpreter of a child process: with -O when the suite runs under
# python -O, so a child strips the asserts and debug checks it strips
PYTHON = [sys.executable, *["-O"] * sys.flags.optimize]


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


def one_interval_table(reg: RealRegistry, q: Fraction) -> RealNum:
    """The table of ``q`` whose one interval, at index 0, is
    ``[q - 1/2, q + 1/2]``.  It is not affine, as a rational, the
    constant ``(n, 0, d)``, is, so differences and orientations of such
    coordinates take the generic ``sub`` and ``det2`` path."""
    half = Fraction(1, 2)
    return reg.from_table([(q - half, q + half)], q)


def register_points(pts: Sequence[RationalPoint], blurred: bool = False,
                    table: bool = False) -> Tuple[RealRegistry, List[Point]]:
    """Register every y coordinate, then every x coordinate, and return
    the registry with the points: rational, blurred, or with ``table``
    :func:`one_interval_table` coordinates.  The convex construction
    does not depend on this order; it learns over the points' own y
    list."""
    reg = RealRegistry()
    if table:
        ctor = partial(one_interval_table, reg)
    else:
        ctor = reg.blurred if blurred else reg.from_rational
    ys = [ctor(p.y) for p in pts]
    xs = [ctor(p.x) for p in pts]
    return reg, [Point(i, xs[i], ys[i]) for i in range(len(pts))]


def det2_terms(a: Measured, b: Measured, c: Measured,
               d: Measured) -> Tuple[int, ...]:
    """The reference terms of the ``det2`` node ``a * b - c * d`` of four
    affine reals, each given as ``(c, w, l, e)`` with ``e`` its magnitude
    exponent, so the products are read at ``k + s_ab`` and ``k + s_cd``:
    the integers that ``realearn.reals._det2_at`` reads and
    ``realearn.reals._det2_bound`` gives when it searches.  The product
    denominators are ``P << 2k`` and ``Q << 2k``, whose gcd is
    ``gcd(P, Q) << 2k``, so the join's scale factors ``sp`` and ``sq``
    and ``dd = lcm(P, Q)`` come from ``_over_lcm(P, Q)`` once, and the
    denominator at k is ``dd << 2k``.  The terms are
    ``(ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd)``."""
    (ca, wa, la, ea), (cb, wb, lb, eb) = a, b
    (cc, wc, lc, ec), (cd, wd, ld, ed) = c, d
    s_ab, s_cd = ea + eb + 3, ec + ed + 3
    sp, sq, dd = _over_lcm(la * lb << 2 * s_ab, lc * ld << 2 * s_cd)
    return (ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd)


class StringTrace(TraceFile):
    """A log that writes its trace as the CLI's ``--trace`` does, but to
    an ``io.StringIO``: pass it to a run, then read :attr:`text`, the
    text a trace file would hold, or :attr:`events`, each line parsed
    with ``TraceEvent.from_json``.  A run cut by an exception leaves
    what it recorded before it."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = io.StringIO()
        super().__init__(self._buffer)

    @property
    def text(self) -> str:
        return self._buffer.getvalue()

    @property
    def events(self) -> List[TraceEvent]:
        return [TraceEvent.from_json(line) for line in self.text.splitlines()]


def count_trace_builds(monkeypatch) -> Tuple[List[str], List[int]]:
    """From now on, record the phase of every ``TraceEvent`` built and
    the size of every knowledge state whose snapshot text is rendered
    for the first time.  Trace lines are written from
    ``snapshot_json``, which a state renders once and then reuses."""
    phases: List[str] = []
    renders: List[int] = []
    init = TraceEvent.__init__
    snapshot_json = KnowledgeState.snapshot_json.fget

    def counted_init(event, seq, phase, payload):
        phases.append(phase)
        init(event, seq, phase, payload)

    def counted_snapshot_json(state):
        if state._snapshot_json is None:
            renders.append(state.size)
        return snapshot_json(state)

    monkeypatch.setattr(TraceEvent, "__init__", counted_init)
    monkeypatch.setattr(KnowledgeState, "snapshot_json",
                        property(counted_snapshot_json))
    return phases, renders


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
