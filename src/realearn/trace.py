"""Trace events for interactive runs.

Every learning or geometry run can record what it did in a log.  A
trace is text: one JSON object per line, keys sorted, no spaces,
integers and ``num/den`` fraction strings only.  Two runs of the same
input therefore produce byte identical trace files, and
:func:`read_trace` reads one back as an iterator of
:class:`TraceEvent` records, parsing a line when its event is asked
for, so a reader that walks the events holds one at a time, not the
trace.

A :class:`TraceFile`, the CLI's ``--trace`` sink, writes each line when
it is recorded.  A :class:`TraceLog`, the library default, keeps what
each line is written from and writes it when the trace is read: an
event keeps its payload, a least-element pass its strict steps, and a
line that records a knowledge state the state, whose snapshot text is
serialised once.  Both write the same bytes, as every block is sealed
when it is recorded.  :attr:`TraceLog.events` parses the lines, so a
trace read in the process is the trace read from its file.
:class:`NullLog` keeps nothing, for a run whose trace is never read.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, List, Tuple

from ._record import _Record
from .errors import InputError

# json.dumps with these arguments, without building an encoder per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class TraceEvent(_Record):
    """One recorded step: its position ``seq`` in the run, its ``phase``
    and a ``payload`` dict of JSON values."""

    __slots__ = ("_seq", "_phase", "_payload")
    __hash__ = None

    def to_json(self) -> str:
        return _event_line(self._seq, self._phase, self._payload)[:-1]

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        """Parse one serialized event; ValueError names what is wrong."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError("trace event must be a JSON object")
        for key in ("seq", "phase"):
            if key not in record:
                raise ValueError(f"trace event has no {key!r}")
        seq = record.pop("seq")
        phase = record.pop("phase")
        return TraceEvent(seq=seq, phase=phase, payload=record)


class TraceLog:
    """Append-only trace: a list of ``(seq, text, args)`` blocks in
    sequence order, where ``text(seq, *args)`` returns the block's
    lines, numbered from ``seq``, each ended by a newline.  A block
    keeps its arguments, not a closure or its text, so recording one
    builds no function and serialises nothing."""

    __slots__ = ("_blocks", "_next")

    def __init__(self) -> None:
        self._blocks: List[Tuple[int, Callable[..., str], tuple]] = []
        self._next = 0

    def emit(self, phase: str, **payload: Any) -> None:
        self._blocks.append((self._next, _event_line, (phase, payload)))
        self._next += 1

    def defer(self, count: int, text: Callable[..., str], *args: Any) -> None:
        """Reserve the next ``count`` sequence numbers for the lines
        that ``text(seq, *args)`` writes when the trace is read."""
        self._blocks.append((self._next, text, args))
        self._next += count

    def lines(self) -> Iterator[str]:
        """The serialised trace in sequence order, one block's lines at
        a time."""
        for seq, text, args in self._blocks:
            yield text(seq, *args)

    @property
    def events(self) -> List[TraceEvent]:
        """The events parsed from :meth:`lines`: a new list of new
        events on every read."""
        return [TraceEvent.from_json(line)
                for line in "".join(self.lines()).splitlines()]


class TraceFile:
    """A log that writes each block's lines to ``handle`` at once."""

    __slots__ = ("_write", "_next", "flush")

    def __init__(self, handle) -> None:
        self._write = handle.write
        self._next = 0
        self.flush = handle.flush

    def emit(self, phase: str, **payload: Any) -> None:
        self._write(_event_line(self._next, phase, payload))
        self._next += 1

    def defer(self, count: int, text: Callable[..., str], *args: Any) -> None:
        self._write(text(self._next, *args))
        self._next += count


class NullLog:
    """A log that drops what it is given: a run recording into it keeps
    nothing alive for a trace that nobody reads."""

    __slots__ = ()

    def emit(self, phase: str, **payload: Any) -> None:
        pass

    def defer(self, count: int, text: Callable[..., str], *args: Any) -> None:
        pass

    def flush(self) -> None:
        pass


def _event_line(seq: int, phase: str, payload: dict) -> str:
    return _dumps({"seq": seq, "phase": phase, **payload}) + "\n"


def emit_with_state(log: TraceLog, phase: str, state,
                    **payload: Any) -> None:
    """Record ``phase`` with ``payload`` and the sealed knowledge state's
    snapshot under ``"state"``, written from ``state.snapshot_json``,
    which each state serialises once."""
    log.defer(1, _state_line, phase, state, payload)


def _state_line(seq: int, phase: str, state, payload: dict) -> str:
    # the keys sorted before "state", the state, then those after it
    record = {"seq": seq, "phase": phase, **payload}
    head = _dumps({k: v for k, v in record.items() if k < "state"})
    tail = _dumps({k: v for k, v in record.items() if k > "state"})
    rest = "," + tail[1:] if len(tail) > 2 else "}"
    return f'{head[:-1]},"state":{state.snapshot_json}{rest}\n'


def numbered_lines(path) -> Iterator[Tuple[int, str]]:
    """The stripped non-blank lines of a UTF-8 text file, numbered from
    1; a file that is not UTF-8 raises :class:`InputError`.  The
    document readers of :mod:`~realearn.inputs` read through it too."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_trace(path) -> Iterator[TraceEvent]:
    """The events of a trace file, parsed one line at a time as they
    are asked for; a malformed line raises :class:`InputError` naming
    the file and the line number, and a file that is not UTF-8 raises
    one naming the file."""
    for lineno, line in numbered_lines(path):
        try:
            event = TraceEvent.from_json(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        yield event
