"""Output checks made apart from realearn.

Each checker returns None for a correct answer and a one-line reason
otherwise.  None of them imports realearn: the orientation sign, the
argmin and the separation of blurred limits are recomputed here from
the exact rational inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

RatPoint = Tuple[Fraction, Fraction]
Entry = Tuple[int, int, int]


def orientation(p: RatPoint, q: RatPoint, r: RatPoint) -> Fraction:
    """Twice the signed area of p, q, r; positive when r is left of p -> q."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


def bounding_error(points: Sequence[RatPoint], a: int, b: int,
                   c: int) -> Optional[str]:
    """Every other point strictly left of a->b and strictly right of a->c."""
    if len({a, b, c}) != 3 or not all(0 <= i < len(points) for i in (a, b, c)):
        return f"apex and rays ({a}, {b}, {c}) are not three point indices"
    pa, pb, pc = points[a], points[b], points[c]
    if orientation(pa, pb, pc) <= 0:
        return f"ray point {c} is not left of {a}->{b}"
    for d, pd in enumerate(points):
        if d in (a, b, c):
            continue
        if orientation(pa, pb, pd) <= 0:
            return f"point {d} is not left of {a}->{b}"
        if orientation(pa, pc, pd) >= 0:
            return f"point {d} is not right of {a}->{c}"
    return None


def convex_error(points: Sequence[RatPoint], a: int, b: int, c: int,
                 restarts: int, certificate, rederived) -> Optional[str]:
    """A convex_angle result against the exact bounding condition."""
    reason = bounding_error(points, a, b, c)
    if reason is not None:
        return reason
    if rederived != certificate:
        return "verify_bounding re-derived a different certificate"
    if not 0 <= restarts < 2 ** (len(points) - 1):
        return f"restarts {restarts} outside [0, 2^{len(points) - 1})"
    return None


def least_error(values: Sequence[Fraction], candidate: int, restarts: int,
                entries: Iterable[Entry]) -> Optional[str]:
    """An oracle-audited least run on strictly descending blurred reals."""
    argmin = min(range(len(values)), key=values.__getitem__)
    if candidate != argmin:
        return f"candidate {candidate} is not the argmin {argmin}"
    n = len(values) - 1
    if restarts != n:
        return f"restarts {restarts} != n = {n}"
    entries = list(entries)
    if len(entries) != restarts:
        return f"{len(entries)} learned entries after {restarts} restarts"
    for i, j, w in entries:
        half = Fraction(1, 2 ** (w + 1))
        if not values[j] + half < values[i] - half:
            return f"entry ({i}, {j}, {w}) does not separate the limits"
    return None


def _fields(stdout: str) -> Dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _entries(state: str) -> List[Entry]:
    return [(e["i"], e["j"], e["witness"]) for e in json.loads(state)]


def cli_convex_error(points: Sequence[RatPoint], code: int, stdout: str,
                     result: dict) -> Optional[str]:
    """`realearn convex --result` on a general-position document."""
    if code != 0:
        return f"convex exited {code}"
    try:
        fields = _fields(stdout)
        a = int(fields["apex"])
        b, c = map(int, fields["rays"].split())
        restarts = int(fields["restarts"])
        state = _entries(fields["state"])
    except (KeyError, ValueError) as exc:
        return f"convex stdout unreadable: {exc!r}"
    if (result.get("a"), result.get("b"), result.get("c")) != (a, b, c):
        return "result file disagrees with stdout"
    if len(state) != restarts:
        return f"{len(state)} learned entries after {restarts} restarts"
    if not 0 <= restarts < 2 ** (len(points) - 1):
        return f"restarts {restarts} outside [0, 2^{len(points) - 1})"
    return bounding_error(points, a, b, c)


def cli_check_error(code: int, stdout: str, abc: Tuple[int, int, int],
                    n_points: int) -> Optional[str]:
    """`realearn check` on the result written by the convex step."""
    a, b, c = abc
    want = f"ok: apex {a}, rays {b} {c}, {n_points - 3} bounded points re-verified"
    if code != 0:
        return f"check exited {code}"
    if stdout.strip() != want:
        return f"check printed {stdout.strip()!r}, expected {want!r}"
    return None


def cli_least_error(values: Sequence[Fraction], code: int,
                    stdout: str) -> Optional[str]:
    """`realearn least --auditor oracle` on a descending document."""
    if code != 0:
        return f"least exited {code}"
    try:
        fields = _fields(stdout)
        candidate = int(fields["candidate"])
        restarts = int(fields["restarts"])
        state = _entries(fields["state"])
    except (KeyError, ValueError) as exc:
        return f"least stdout unreadable: {exc!r}"
    return least_error(values, candidate, restarts, state)


def cli_degenerate_error(code: int, stderr: str) -> Optional[str]:
    """`realearn convex` on collinear points must report exit 3."""
    if code != 3:
        return f"degenerate convex exited {code}, expected 3"
    if not stderr.startswith("degenerate input:"):
        return f"degenerate convex said {stderr.strip()!r}"
    return None


def cli_tree_error(stdout: str, restarts: int) -> Optional[str]:
    """`realearn tree` on a convex trace that exited 0."""
    fields = {k.strip(): v for k, v in _fields(stdout).items()}
    for verdict in ("progress", "unique", "bound"):
        if fields.get(verdict) != "ok":
            return f"tree verdict {verdict}: {fields.get(verdict)!r}"
    if fields.get("restarts") != str(restarts):
        return f"tree restarts {fields.get('restarts')!r} != {restarts}"
    return None
