"""Line-oriented input documents for the command-line tools.

A document is a sequence of JSON records, one per line.  Real records
come in three kinds::

    {"type": "real", "kind": "rational", "value": "3/2"}
    {"type": "real", "kind": "blurred", "value": "-1/3"}
    {"type": "real", "kind": "table",
     "prefix": [["0/1", "1/1"], ["1/4", "3/4"]], "tail": "1/2"}

Point records pair two real specs with a dense index::

    {"type": "point", "index": 0,
     "x": {"kind": "rational", "value": "0/1"},
     "y": {"kind": "blurred", "value": "2/1"}}

All rationals are plain integers or strings of the form
``[+-]?digits`` or ``[+-]?digits/digits``; float literals and every
other string (decimals, exponents, spaces) are rejected, so a value's
size is bounded by the size of its text.  An integer, a JSON number
or either part of a rational string, may have at most as many digits
as Python converts from text, 4300 unless ``PYTHONINTMAXSTRDIGITS``
says otherwise; a longer one is an :class:`InputError` in every file
read here and in the ``check`` result file.  Every constructor has a
known rational limit, the value of a rational or blurred real and the
tail of a table, which the oracle tools rely on; a :class:`RealSpec`
keeps it in one field, ``limit``, whatever its kind.

Trace files are read back by :func:`~realearn.trace.read_trace`, next
to their writer.  The functions that build points and challenges import
:mod:`~realearn.geometry` and :mod:`~realearn.least` when they run, so
reading a document loads neither.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, List, Tuple

from ._record import _Record
from .errors import InputError
from .reals import InvalidNesting, RealNum, RealRegistry
from .trace import numbered_lines

if TYPE_CHECKING:
    from .geometry import Point, RationalPoint
    from .least import Challenge


def _records(path, what: str) -> Iterator[Tuple[int, dict]]:
    """The numbered lines of a JSON Lines file, each parsed as a JSON
    object; anything else raises :class:`InputError` naming ``what``."""
    for lineno, line in numbered_lines(path):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, an integer over the digit limit, or nesting
            # too deep for the parser
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise InputError(f"{path}:{lineno}: {what} must be an object")
        yield lineno, record


REAL_KINDS = ("rational", "blurred", "table")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"rationals must be exact, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise InputError(f"cannot parse rational {value!r}") from exc
        except ValueError as exc:
            # the text matched, so int() refused its digits: echo them cut
            raise InputError(
                f"cannot parse rational '{value[:20]}...{value[-20:]}' "
                f"({len(value)} characters): {exc}") from None
    raise InputError(f"cannot parse rational {value!r}: "
                     "expected an integer or num/den")


class RealSpec(_Record):
    """One parsed real record: its ``kind``, the exact ``limit`` it
    converges to (a rational or blurred real's value, a table's tail)
    and, for a table, its ``prefix`` of intervals."""

    __slots__ = ("_kind", "_limit", "_prefix")

    def __init__(self, kind: str, limit: Fraction,
                 prefix: Tuple[Tuple[Fraction, Fraction], ...] = ()) -> None:
        self._kind = kind
        self._limit = limit
        self._prefix = prefix

    def build(self, registry: RealRegistry) -> RealNum:
        """Register the real: a blurred real by its value, and a table
        or a rational, which is the table with no prefix, by its prefix
        and limit."""
        if self.kind == "blurred":
            return registry.blurred(self.limit)
        return registry.from_table(self.prefix, self.limit)

    @staticmethod
    def from_obj(obj) -> "RealSpec":
        if isinstance(obj, str) or (isinstance(obj, int)
                                    and not isinstance(obj, bool)):
            # bare "num/den" shorthand for an exact rational
            return RealSpec("rational", parse_fraction(obj))
        if not isinstance(obj, dict):
            raise InputError(f"real spec must be an object, got {obj!r}")
        kind = obj.get("kind")
        if kind not in REAL_KINDS:
            raise InputError(f"unknown real kind {kind!r}")
        parsed = []
        if kind == "table":
            prefix = obj.get("prefix", [])
            if not isinstance(prefix, list):
                raise InputError("table prefix must be a list of pairs")
            for entry in prefix:
                if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                    raise InputError(f"bad table interval {entry!r}")
                parsed.append((parse_fraction(entry[0]), parse_fraction(entry[1])))
        key = "tail" if kind == "table" else "value"
        if key not in obj:
            raise InputError(f"{kind} spec needs a {key}")
        return RealSpec(kind, parse_fraction(obj[key]), tuple(parsed))


class PointSpec(_Record):
    """One parsed point record."""

    __slots__ = ("_index", "_x", "_y")


class InputDocument(_Record):
    """A parsed document: its ``reals`` and its ``points``, in file
    order."""

    __slots__ = ("_reals", "_points")
    __hash__ = None


def load_document(path) -> InputDocument:
    reals: List[RealSpec] = []
    points: List[PointSpec] = []
    for lineno, record in _records(path, "record"):
        kind = record.get("type")
        try:
            if kind == "real":
                reals.append(RealSpec.from_obj(record))
            elif kind == "point":
                index = record.get("index")
                if not isinstance(index, int) or isinstance(index, bool):
                    raise InputError(f"point index must be an integer")
                points.append(PointSpec(
                    index=index,
                    x=RealSpec.from_obj(record.get("x")),
                    y=RealSpec.from_obj(record.get("y")),
                ))
            else:
                raise InputError(f"unknown record type {kind!r}")
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    points.sort(key=lambda spec: spec.index)
    for position, spec in enumerate(points):
        if spec.index != position:
            raise InputError(
                f"{path}: point indices must be dense from 0, "
                f"missing or duplicate index near {spec.index}")
    return InputDocument(reals=reals, points=points)


def _registered(specs: List[RealSpec]) -> RealRegistry:
    """A registry holding ``specs`` at indices 0.., in order.  A badly
    nested table is an :class:`InputError`: tables are checked in full
    when registered, so an :class:`InvalidNesting` raised later comes
    from computed intervals and is not one."""
    registry = RealRegistry()
    try:
        for spec in specs:
            spec.build(registry)
    except InvalidNesting as exc:
        raise InputError(str(exc)) from exc
    return registry


def build_reals(document: InputDocument) -> RealRegistry:
    """The document's reals r_0 .. r_n, registered in order."""
    return _registered(document.reals)


def build_points(document: InputDocument) -> List[Point]:
    """The document's points, with all y coordinates registered in
    point order, then all x coordinates.  The order is a convention
    only; :func:`~realearn.convex.convex_angle` learns over the points'
    own y list, wherever the reals sit in the registry.
    """
    from .geometry import Point

    count = len(document.points)
    registry = _registered([spec.y for spec in document.points]
                           + [spec.x for spec in document.points])
    return [Point(index=spec.index, x=registry[count + i], y=registry[i])
            for i, spec in enumerate(document.points)]


def real_limits(document: InputDocument) -> List[Fraction]:
    return [spec.limit for spec in document.reals]


def rational_points(document: InputDocument) -> List[RationalPoint]:
    from .geometry import RationalPoint

    return [RationalPoint(spec.x.limit, spec.y.limit)
            for spec in document.points]


def load_script(path) -> List[Challenge]:
    """A challenge script: one ``{"j":, "precision":, "force"?:}`` per line."""
    from .least import Challenge

    challenges: List[Challenge] = []
    for lineno, record in _records(path, "challenge"):
        j = record.get("j")
        precision = record.get("precision")
        force = record.get("force", False)
        if not isinstance(j, int) or not isinstance(precision, int) \
                or isinstance(j, bool) or isinstance(precision, bool):
            raise InputError(
                f"{path}:{lineno}: challenge needs integer j and precision")
        if precision < 0:
            raise InputError(
                f"{path}:{lineno}: challenge precision must be >= 0")
        if not isinstance(force, bool):
            raise InputError(f"{path}:{lineno}: force must be a boolean")
        challenges.append(Challenge(j=j, precision=precision, force=force))
    return challenges
