import json

import pytest

from realearn import RealRegistry, TraceLog, empty_state, extend
from realearn.inputs import InputError, read_trace
from realearn.trace import TraceEvent, write_trace


def test_emit_assigns_sequence_numbers():
    log = TraceLog()
    log.emit("decide", pair=[0, 1], decision="assume")
    log.emit("candidate", candidate=0)
    assert [e.seq for e in log.events] == [0, 1]
    assert log.events[0].phase == "decide"


def test_event_json_roundtrip():
    event = TraceEvent(7, "extend", {"pair": [0, 3], "witness": 33})
    assert event == TraceEvent(seq=7, phase="extend",
                               payload={"pair": [0, 3], "witness": 33})
    assert event != TraceEvent(8, "extend", event.payload)
    assert repr(event) == ("TraceEvent(seq=7, phase='extend', "
                           "payload={'pair': [0, 3], 'witness': 33})")
    with pytest.raises(AttributeError):
        event.seq = 8
    # the payload is a dict, so events are unhashable
    with pytest.raises(TypeError):
        hash(event)
    blob = event.to_json()
    assert TraceEvent.from_json(blob) == event
    # serialization is canonical: sorted keys, no whitespace
    assert blob == json.dumps(json.loads(blob), sort_keys=True,
                              separators=(",", ":"))


def test_write_then_read_trace(tmp_path):
    log = TraceLog()
    log.emit("candidate", candidate=0, state=[])
    log.emit("accept", candidate=0, restarts=0, state=[])
    path = tmp_path / "run.trace"
    write_trace(path, log.events)
    assert read_trace(path) == log.events
    # one JSON object per line, byte-stable across writes
    first = path.read_bytes()
    write_trace(path, log.events)
    assert path.read_bytes() == first
    assert len(first.splitlines()) == 2


def test_state_snapshot_is_sorted():
    reg = RealRegistry()
    for q in (0, -1, -2, -3):
        reg.blurred(q)
    state = extend(empty_state(reg), 0, 3, 2)
    state = extend(state, 0, 1, 1)
    snap = state.snapshot
    assert snap == [{"i": 0, "j": 1, "witness": 1},
                    {"i": 0, "j": 3, "witness": 2}]


@pytest.mark.parametrize("bad,message", [
    ("{not json", "invalid JSON"),
    ("[0, 1]", "trace event must be a JSON object"),
    ('{"phase": "candidate"}', "trace event has no 'seq'"),
    ('{"seq": 1}', "trace event has no 'phase'"),
])
def test_read_trace_names_file_and_line_of_a_bad_event(tmp_path, bad, message):
    path = tmp_path / "bad.trace"
    path.write_text('{"phase":"candidate","seq":0}\n\n' + bad + "\n")
    with pytest.raises(InputError) as exc:
        read_trace(path)
    assert str(exc.value).startswith(f"{path}:3: {message}")
