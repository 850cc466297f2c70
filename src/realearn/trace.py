"""Structured trace events for interactive runs.

Every learning or geometry run can record what it did as a sequence of
:class:`TraceEvent` records.  Serialized traces are line oriented: one
JSON object per line, keys sorted, integers and ``num/den`` fraction
strings only.  Two runs of the same input therefore produce byte
identical trace files.  :func:`write_trace` writes one and
:func:`read_trace` reads one back.

A run records the events it can build cheaply as it goes and defers
the rest: the ``decide`` events of a least-element pass and every
event that carries a knowledge-state snapshot are built from what the
run keeps anyway, and only when :attr:`TraceLog.events` is first read.
A run whose trace is never read never builds them.  A deferred block
also says how to serialise itself, and :func:`write_trace` writes a
log from that text without building its events: a pass's ``decide``
lines come straight from its strict steps, and a knowledge state's
snapshot is serialised once for every event that records it.
:class:`NullLog` keeps nothing, for a run whose trace is never read.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, List, Tuple, Union

from ._record import _Record
from .errors import InputError

# json.dumps with these arguments, without building an encoder per call
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class TraceEvent(_Record):
    """One recorded step: its position ``seq`` in the run, its ``phase``
    and a ``payload`` dict of JSON values.

    A payload may share lists with other events, such as a knowledge
    state's snapshot, so payloads must not be mutated.
    """

    __slots__ = ("_seq", "_phase", "_payload")
    __hash__ = None

    def __init__(self, seq: int, phase: str, payload: dict) -> None:
        self._seq = seq
        self._phase = phase
        self._payload = payload

    def to_json(self) -> str:
        record = {"seq": self.seq, "phase": self.phase}
        record.update(self.payload)
        return _dumps(record)

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
    """Append-only event recorder with an auto-incrementing sequence.

    :meth:`emit` records one event now.  :meth:`defer` reserves the
    next ``count`` sequence numbers for events that ``build(seq,
    *args)`` returns, numbered from ``seq``, when :attr:`events` is
    first read; a later :meth:`emit` continues the sequence after them.
    Reading :attr:`events` builds every deferred block in order,
    dropping each one as soon as it is built, and returns the same list
    on every read, the list that later events are appended to.
    :meth:`lines` serialises the log, and writes a block that is not
    built yet from its ``text(seq, *args)``.
    """

    __slots__ = ("_events", "_pending", "_tail", "_next")

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        # events and deferred (seq, count, build, text, args) blocks
        # recorded after the first block not yet built, in order
        self._pending: List[Union[TraceEvent, tuple]] = []
        self._tail = self._events
        self._next = 0

    def emit(self, phase: str, **payload: Any) -> TraceEvent:
        event = TraceEvent(self._next, phase, payload)
        self._next += 1
        self._tail.append(event)
        return event

    def defer(self, count: int, build: Callable[..., List[TraceEvent]],
              text: Callable[..., str], *args: Any) -> None:
        """``text(seq, *args)`` returns the lines of ``build(seq,
        *args)``'s events as :meth:`TraceEvent.to_json` writes them, each
        ended by a newline.  A block keeps its arguments, not a closure,
        so deferring one builds no function."""
        self._pending.append((self._next, count, build, text, args))
        self._next += count
        self._tail = self._pending

    @property
    def events(self) -> List[TraceEvent]:
        pending = self._pending
        if pending:
            events = self._events
            pending.reverse()
            while pending:
                part = pending.pop()
                if part.__class__ is TraceEvent:
                    events.append(part)
                    continue
                seq, count, build, _, args = part
                events.extend(build(seq, *args))
                assert len(events) == seq + count, \
                    "deferred block built the wrong number of events"
            self._tail = events
        return self._events

    def lines(self) -> Iterator[str]:
        """The serialised trace in sequence order, as one or more whole
        lines at a time.  A deferred block is written from its text, not
        built; the log is left as it was."""
        for event in self._events:
            yield event.to_json() + "\n"
        for part in self._pending:
            if part.__class__ is TraceEvent:
                yield part.to_json() + "\n"
            else:
                seq, _, _, text, args = part
                yield text(seq, *args)


class NullLog:
    """A log that drops what it is given: a run recording into it keeps
    nothing alive for a trace that nobody reads, and has no trace to
    read."""

    __slots__ = ()

    def emit(self, phase: str, **payload: Any) -> None:
        pass

    def defer(self, count: int, build: Callable[..., List[TraceEvent]],
              text: Callable[..., str], *args: Any) -> None:
        pass


def emit_with_state(log: TraceLog, phase: str, state,
                    **payload: Any) -> None:
    """Record ``phase`` with ``payload`` and then the knowledge state's
    ``state.snapshot`` under ``"state"``.  The event is built, or its
    line written, when the trace is read; a state is sealed, so its
    snapshot is the same then.  The line takes the snapshot's text from
    ``state.snapshot_json``, which each state serialises once."""
    log.defer(1, _state_event, _state_line, phase, state, payload)


def _state_event(seq: int, phase: str, state, payload: dict
                 ) -> List[TraceEvent]:
    return [TraceEvent(seq, phase, {**payload, "state": state.snapshot})]


def _state_line(seq: int, phase: str, state, payload: dict) -> str:
    # the keys sorted before "state", the state, then those after it
    record = {"seq": seq, "phase": phase, **payload}
    head = _dumps({k: v for k, v in record.items() if k < "state"})
    tail = _dumps({k: v for k, v in record.items() if k > "state"})
    rest = "," + tail[1:] if len(tail) > 2 else "}"
    return f'{head[:-1]},"state":{state.snapshot_json}{rest}\n'


def write_trace(path, log: TraceLog) -> None:
    """Write the log's events, one JSON object per line, from
    :meth:`TraceLog.lines`."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(log.lines())


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


def read_trace(path) -> List[TraceEvent]:
    """Read a trace file; a malformed line raises :class:`InputError`
    naming the file and the line number, and a file that is not UTF-8
    raises one naming the file."""
    events: List[TraceEvent] = []
    for lineno, line in numbered_lines(path):
        try:
            events.append(TraceEvent.from_json(line))
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return events
