"""Every ``BENCH_<topic>.json`` at the repository root is a JSON object
that names its topic, what was measured and the host it ran on."""

import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_files_name_topic_what_and_host():
    paths = sorted(REPO.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record, dict), path.name
        assert record.get("topic") == path.stem[len("BENCH_"):], path.name
        for key in ("what", "host"):
            assert isinstance(record.get(key), str) and record[key], (
                path.name, key)
