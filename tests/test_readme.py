"""The README's code runs and prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def readme_block(heading):
    """The first ``python`` block under the README's ``heading``."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_use_block_prints_its_comments():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", readme_block("## Library use")],
                          capture_output=True, text=True, env=env, cwd=REPO)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the smallest separating precision, then the candidate 0
    assert proc.stdout.splitlines() == ["2", "0"]
