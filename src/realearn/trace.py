"""Structured trace events for interactive runs.

Every learning or geometry run can record what it did as a sequence of
:class:`TraceEvent` records.  Serialized traces are line oriented: one
JSON object per line, keys sorted, integers and ``num/den`` fraction
strings only.  Two runs of the same input therefore produce byte
identical trace files.  :func:`~realearn.inputs.read_trace` reads
one back.

A run records the events it can build cheaply as it goes and defers
the rest: the ``decide`` events of a least-element pass and every
event that carries a knowledge-state snapshot are built from what the
run keeps anyway, and only when :attr:`TraceLog.events` is first read.
A run whose trace is never read never builds them.
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Sequence, Union

from ._record import _Record


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
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

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
    next ``count`` sequence numbers for events that ``build(seq)``
    returns, numbered from ``seq``, when :attr:`events` is first read;
    a later :meth:`emit` continues the sequence after them.  Reading
    :attr:`events` builds every deferred block in order, dropping each
    one as soon as it is built, and returns the same list on every
    read, the list that later events are appended to.
    """

    __slots__ = ("_events", "_pending", "_tail", "_next")

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        # events and deferred (seq, count, build) blocks recorded after
        # the first block not yet built, in order
        self._pending: List[Union[TraceEvent, tuple]] = []
        self._tail = self._events
        self._next = 0

    def emit(self, phase: str, **payload: Any) -> TraceEvent:
        event = TraceEvent(self._next, phase, payload)
        self._next += 1
        self._tail.append(event)
        return event

    def defer(self, count: int,
              build: Callable[[int], List[TraceEvent]]) -> None:
        self._pending.append((self._next, count, build))
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
                seq, count, build = part
                events.extend(build(seq))
                assert len(events) == seq + count, \
                    "deferred block built the wrong number of events"
            self._tail = events
        return self._events


def emit_with_state(log: TraceLog, phase: str, state,
                    **payload: Any) -> None:
    """Record ``phase`` with ``payload`` and then the knowledge state's
    ``state.snapshot`` under ``"state"``.  The event is built when the
    trace is read; a state is sealed, so its snapshot is the same then."""
    def build(seq: int) -> List[TraceEvent]:
        payload["state"] = state.snapshot
        return [TraceEvent(seq, phase, payload)]

    log.defer(1, build)


def write_trace(path, events: Sequence[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json())
            handle.write("\n")
