"""The traced benchmark job rebinds library names after import; a renamed
name must fail here rather than in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(tmp_path, *cli_args):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/traced_job.py", str(spans), "0", "--", *cli_args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(spans.read_text())


def test_traced_job_runs_a_bracket(tmp_path):
    out, report = _traced(tmp_path, "qbracket", "Q4", "-N", "12")
    assert out.splitlines()[-1] == "1/1152*P^2 + 1/2880*Q"
    # Q4 = h_0 + Q2^2 h_2 (no harmonic weight 2): each nonzero slot is
    # bracketed to its Sturm prefix, the form is expanded once to -N, and
    # nothing is bracketed to -N or recognized
    assert report["calls"]["harmonic.decompose"] == 1
    assert report["calls"]["qseries.q_bracket"] == 2
    assert report["calls"]["quasimodular.expand"] == 1
    assert "quasimodular.recognize" not in report["calls"]
    # both prefixes are summed to Sturm order 1, over the partitions () and
    # (1): production visits prefixes only, never the partitions to -N
    assert report["counters"]["partitions.visited"] == 4
    # a table brackets its two even rows, () and (4), each to its Sturm
    # prefix through quasimodular's own reference to q_bracket, and solves
    # them without recognize; the oracle-only linalg names are rebound too
    out, report = _traced(tmp_path, "tables", "--max-weight", "4", "-N", "14", "--format", "latex")
    assert out.splitlines()[-2] == r"(4) & \frac{27}{4} Q_2^2 + \frac{27}{2} Q_4 & \frac{9}{320} Q \\"
    assert report["calls"]["qseries.q_bracket"] == 2
    assert "quasimodular.recognize" not in report["calls"]


def test_traced_job_runs_the_harmonic_jobs(tmp_path):
    out, report = _traced(tmp_path, "basis", "8", "--format", "json")
    rows = json.loads(out)
    assert [row["lambda"] for row in rows] == [[8], [5, 3], [4, 4]]
    # one call per partition of 8 with parts >= 3
    assert report["calls"]["harmonic.basis_element"] == 3
    # each element reads the projection of weight 8: _t_inverse(6) has
    # floor(6/2) + 1 coefficients
    assert report["counters"]["harmonic.t_inverse.max_dim"] == 4
    out, report = _traced(tmp_path, "decompose", "Q2^3*Q4 + 3/5*Q3^2*Q2", "--format", "json")
    assert json.loads(out)["depth"] == 5
    assert report["calls"]["harmonic.decompose"] == 1
    # slot 0 of the weight-10 component reads _t_inverse(8), the largest
    assert report["counters"]["harmonic.t_inverse.max_dim"] == 5
    # the slots are certified by the closed form, not the operator laplacian
    assert "operators.laplacian" not in report["calls"]
