"""Structured trace events for interactive runs.

Every learning or geometry run can record what it did as a sequence of
:class:`TraceEvent` records.  Serialized traces are line oriented: one
JSON object per line, keys sorted, integers and ``num/den`` fraction
strings only.  Two runs of the same input therefore produce byte
identical trace files.  :func:`~realearn.inputs.read_trace` reads
one back.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, List, Sequence


class TraceEvent:
    """One recorded step: its position ``seq`` in the run, its ``phase``
    and a ``payload`` dict of JSON values.

    A ``__slots__`` class rather than a frozen dataclass, because a
    learner run records one event per decision and this builds in
    about a third of the time.  The fields are read-only properties;
    events compare equal when all three fields do, and defining
    ``__eq__`` leaves them unhashable, as the dataclass with its dict
    payload was.  A payload may share lists with other events, such as a
    knowledge state's snapshot, so payloads must not be mutated.
    """

    __slots__ = ("_seq", "_phase", "_payload")

    def __init__(self, seq: int, phase: str, payload: dict) -> None:
        self._seq = seq
        self._phase = phase
        self._payload = payload

    seq = property(attrgetter("_seq"))
    phase = property(attrgetter("_phase"))
    payload = property(attrgetter("_payload"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceEvent:
            return NotImplemented
        return (self.seq == other.seq and self.phase == other.phase
                and self.payload == other.payload)

    def __repr__(self) -> str:
        return (f"TraceEvent(seq={self.seq!r}, phase={self.phase!r}, "
                f"payload={self.payload!r})")

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
    """Append-only event recorder with an auto-incrementing sequence."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, phase: str, **payload: Any) -> TraceEvent:
        events = self.events
        event = TraceEvent(len(events), phase, payload)
        events.append(event)
        return event


def write_trace(path, events: Sequence[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event.to_json())
            handle.write("\n")
