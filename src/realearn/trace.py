"""Trace events for interactive runs.

Every learning or geometry run can record what it did in a log.  A
trace is text: one JSON object per line, keys sorted, no spaces,
integers and ``num/den`` fraction strings only.  Two runs of the same
input therefore produce byte identical trace files, and
:func:`read_trace` reads one back as an iterator of
:class:`TraceEvent` records, parsing a line when its event is asked
for, so a reader that walks the events holds one at a time, not the
trace.

A run records into a log one way: ``defer(text, *args)``, a block
whose lines ``text(seq, *args)`` writes, numbered from ``seq``, each
ended by one newline.  Every sink numbers the next block by counting
the newlines of the ones before.  :func:`_event_line` writes one event
from a tuple of keys and their values, and :func:`_state_line` one that
also records a knowledge state, from the state's snapshot text, which
each state serialises once.  A least-element pass writes its ``decide``
lines with :func:`~realearn.least._decide_text`.

A :class:`TraceFile`, the CLI's ``--trace`` sink, writes each block's
lines when it is recorded.  A :class:`TraceLog`, the library default,
keeps each block's writer and arguments and writes the lines when the
trace is read.  Both logs write the same bytes, as every argument is
sealed when it is recorded.  :attr:`TraceLog.events` parses the lines,
so a trace read in the process is the trace read from its file.
:class:`NullLog` keeps nothing, for a run whose trace is never read.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Iterator, List, Tuple

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
        payload = self._payload
        return _event_line(self._seq, self._phase, payload.keys(),
                           *payload.values())[:-1]

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
    """Append-only trace: a list of ``(text, args)`` blocks in sequence
    order, where ``text(seq, *args)`` returns the block's lines,
    numbered from ``seq``.  A block keeps its arguments, not a closure
    or its text, so recording one builds no function and serialises
    nothing.  An oracle restart of :func:`~realearn.least.learn_least`
    records seven blocks: the pass's ``decide`` lines, ``candidate``,
    ``challenge``, ``falsified``, ``blame``, ``extend`` and
    ``restart``."""

    __slots__ = ("_blocks",)

    def __init__(self) -> None:
        self._blocks: List[Tuple[Callable[..., str], tuple]] = []

    def defer(self, text: Callable[..., str], *args: Any) -> None:
        """Record the lines that ``text(seq, *args)`` writes when the
        trace is read."""
        self._blocks.append((text, args))

    def lines(self) -> Iterator[str]:
        """The serialised trace in sequence order, one block's lines at
        a time."""
        seq = 0
        for text, args in self._blocks:
            block = text(seq, *args)
            seq += block.count("\n")
            yield block

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

    def defer(self, text: Callable[..., str], *args: Any) -> None:
        block = text(self._next, *args)
        self._write(block)
        self._next += block.count("\n")


class NullLog:
    """A log that drops what it is given: a run recording into it keeps
    nothing alive for a trace that nobody reads."""

    __slots__ = ()

    def defer(self, text: Callable[..., str], *args: Any) -> None:
        pass

    def flush(self) -> None:
        pass


def _event_line(seq: int, phase: str, keys: Iterable[str],
                *values: Any) -> str:
    """The line of event ``phase`` at ``seq`` whose payload maps each
    of ``keys`` to its value.  ``_dumps`` escapes a newline inside a
    string, so the line ends in its only newline."""
    return _dumps(dict(zip(keys, values), seq=seq, phase=phase)) + "\n"


def _state_line(seq: int, phase: str, state, keys: Iterable[str],
                *values: Any) -> str:
    """:func:`_event_line` with the sealed knowledge state's snapshot
    under ``"state"``, written from ``state.snapshot_json``."""
    # the keys sorted before "state", the state, then those after it
    record = dict(zip(keys, values), seq=seq, phase=phase)
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
