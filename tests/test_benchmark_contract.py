"""The traced benchmark job rebinds library names after import; a renamed
name must fail here rather than in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_job_runs_a_bracket(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/traced_job.py", str(spans), "0", "--", "qbracket", "Q4", "-N", "12"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1/1152*P^2 + 1/2880*Q"
    report = json.loads(spans.read_text())
    assert report["calls"]["qseries.q_bracket"] == 1
