"""Shared randomized generators and a trace recorder for the test suite
and the scripts ``random_convex_experiment.py``, ``precision_report.py``
and ``replay_worked_example.py``, and the generated input documents
that the CLI tests run.

Everything takes an explicit random.Random seeded by the caller, so a
failing test reproduces from its seed alone.  The generated documents
draw from fixed seeds, so their bytes, and the digests pinned on their
runs, never change.
"""

import io
import json
import math
import sys
from fractions import Fraction
from functools import partial
from random import Random
from typing import List, Sequence, Set, Tuple

from realearn import (Assumed, KnowledgeState, LeastCandidate, Point, RealNum,
                      RealRegistry, Step)
from realearn.geometry import RationalPoint
from realearn.inputs import RealSpec, build_points
from realearn.oracle import exact_orientation
from realearn.reals import Affine, _affine_magnitude, _over_lcm
from realearn.trace import TraceEvent, TraceFile


# the interpreter of a child process: with -O when the suite runs under
# python -O, so a child strips the asserts and debug checks it strips
PYTHON = [sys.executable, *["-O"] * sys.flags.optimize]


def jsonl(records) -> str:
    """A document's text: each record as ``json.dumps`` writes it, one
    per line."""
    return "".join(json.dumps(record) + "\n" for record in records)


def document_points(records) -> List[Point]:
    """The points of a document's point ``records``, in index order,
    built as the CLI builds them."""
    return build_points([(record["index"], RealSpec.from_obj(record["x"]),
                          RealSpec.from_obj(record["y"]))
                         for record in records])


def descending_reals(n: int) -> List[dict]:
    """The n + 1 blurred reals n/7, (n - 1)/7, ..., 0, which an oracle
    audited ``least`` run learns with n restarts."""
    return [{"type": "real", "kind": "blurred", "value": f"{n - i}/7"}
            for i in range(n + 1)]


def blurred_grid_points(count: int, span: int,
                        denominator: int) -> List[dict]:
    """``count`` points of blurred coordinates k / ``denominator`` with
    |k| <= ``span``, drawn x then y from ``Random(60)``: deep8 is
    (8, 2^20, 2^72), shallow16 (16, 2^12, 2^12) and wide16 (16, 2^19,
    2^12)."""
    rng = Random(60)
    return [{"type": "point", "index": i,
             **{axis: {"kind": "blurred",
                       "value": f"{rng.randint(-span, span)}/{denominator}"}
                for axis in "xy"}}
            for i in range(count)]


def random_blurred_points(count: int) -> List[dict]:
    """``count`` points of blurred coordinates k / 2^20 with
    |k| <= 2^20 and distinct ys, drawn from ``Random(7)``: the ys
    first, then the xs."""
    rng = Random(7)
    ys = rng.sample(range(-2 ** 20, 2 ** 20 + 1), count)
    xs = [rng.randint(-2 ** 20, 2 ** 20) for _ in range(count)]
    return [{"type": "point", "index": i,
             "x": {"kind": "blurred", "value": f"{x}/{2 ** 20}"},
             "y": {"kind": "blurred", "value": f"{y}/{2 ** 20}"}}
            for i, (x, y) in enumerate(zip(xs, ys))]


def table_grid_points() -> List[dict]:
    """table8: 8 points on the 2^-12 grid, |k| <= 2^12, drawn x then y
    from ``Random(60)``, each coordinate a table of two intervals, of
    widths 2^-0 and 2^-1, around its tail."""
    rng = Random(60)

    def grid(u):
        return f"{u}/{2 ** 12}"

    def table(v):
        return {"kind": "table",
                "prefix": [[grid(v - 2 ** 11), grid(v + 2 ** 11)],
                           [grid(v - 2 ** 10), grid(v + 2 ** 10)]],
                "tail": grid(v)}

    return [{"type": "point", "index": i,
             **{axis: table(rng.randint(-2 ** 12, 2 ** 12)) for axis in "xy"}}
            for i in range(8)]


def mixed_grid_points(mirror: bool = False) -> List[dict]:
    """mixed8: 8 points on the 2^-72 grid, |k| <= 2^20, drawn x then y
    from ``Random(60)``, with blurred xs and ys that are blurred at odd
    indices, one-interval tables at 2 and 6, and rationals at 0 and 4.
    mirror8 (``mirror``) swaps the axes of every point."""
    rng = Random(60)

    def grid(v):
        return f"{v}/{2 ** 72}"

    def mixed(i, v):
        if i % 2:
            return {"kind": "blurred", "value": grid(v)}
        if i % 4:
            return {"kind": "table", "prefix": [[grid(v - 2 ** 70),
                                                 grid(v + 2 ** 70)]],
                    "tail": grid(v)}
        return grid(v)

    records = []
    for i in range(8):
        x = {"kind": "blurred", "value": grid(rng.randint(-2 ** 20, 2 ** 20))}
        y = mixed(i, rng.randint(-2 ** 20, 2 ** 20))
        if mirror:
            x, y = y, x
        records.append({"type": "point", "index": i, "x": x, "y": y})
    return records


def angle_points(n: int) -> List[dict]:
    """n blurred points on the 2^-12 grid: 0, then points on the unit
    circle at angles 0.05 + 3i/n, so each scanned point replaces ray C
    and re-witnesses every certified point."""

    def coordinate(f, i):
        value = round(f(0.05 + 3.0 * i / n) * 4096) if i else 0
        return {"kind": "blurred", "value": f"{value}/4096"}

    return [{"type": "point", "index": i, "x": coordinate(math.cos, i),
             "y": coordinate(math.sin, i)}
            for i in range(n)]


def blurred_diagonal_points() -> List[dict]:
    """(0, 0), (1, 1), (2, 2) and (5, -1) as blurred points: the first
    three have collinear limits."""
    return [{"type": "point", "index": i,
             "x": {"kind": "blurred", "value": str(x)},
             "y": {"kind": "blurred", "value": str(y)}}
            for i, (x, y) in enumerate([(0, 0), (1, 1), (2, 2), (5, -1)])]


def table_diagonal_points() -> List[dict]:
    """The five collinear points (i, i), with rational xs, and ys that
    are one-interval tables at odd i and rationals at even i."""

    def table(v):
        return {"kind": "table", "prefix": [[f"{2 * v - 1}/2",
                                             f"{2 * v + 1}/2"]],
                "tail": f"{v}/1"}

    return [{"type": "point", "index": i, "x": f"{i}/1",
             "y": table(i) if i % 2 else f"{i}/1"}
            for i in range(5)]


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


def det2_terms(a: Affine, b: Affine, c: Affine,
               d: Affine) -> Tuple[int, ...]:
    """The reference terms of the ``det2`` node ``a * b - c * d`` of four
    affine reals, each given as ``(c, w, l)``, whose magnitude exponents
    ``e`` put the products at ``k + s_ab`` and ``k + s_cd`` for
    ``s_ab = e_a + e_b + 3`` and ``s_cd = e_c + e_d + 3``:
    the integers that ``realearn.reals._det2_at`` reads and
    ``realearn.reals._det2_bound`` gives when it searches.  The product
    denominators are ``P << 2k`` and ``Q << 2k``, whose gcd is
    ``gcd(P, Q) << 2k``, so the join's scale factors ``sp`` and ``sq``
    and ``dd = lcm(P, Q)`` come from ``_over_lcm(P, Q)`` once, and the
    denominator at k is ``dd << 2k``.  The terms are
    ``(ca, wa, cb, wb, s_ab, sp, cc, wc, cd, wd, s_cd, sq, dd)``."""
    (ca, wa, la), (cb, wb, lb) = a, b
    (cc, wc, lc), (cd, wd, ld) = c, d
    ea, eb, ec, ed = map(_affine_magnitude, (a, b, c, d))
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
