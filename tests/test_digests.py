"""Recorded outputs.

Each job in perfbench/digests.json, run through `cli.main`, prints exactly
the bytes whose SHA-256 is recorded there; that file is only read.

tests/data/cli_digests.json holds requests the benchmark never runs:
refusals, declared weights, `recognize`, and the largest tables.  Each
value is the SHA-256 of the request's exit code, stdout and stderr.  To
record the values of every key again, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_digests.py
"""

import hashlib
import json
import shlex
import sys
from pathlib import Path

from shsym.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "perfbench" / "digests.json"
CLI_DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"


def test_every_benchmark_job_prints_its_recorded_bytes(capsys):
    digests = json.loads(DIGESTS.read_text())
    assert digests
    for key, want in digests.items():
        code = main(shlex.split(key))
        out = capsys.readouterr().out
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == want, key


def _outcome_digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def test_every_cli_request_prints_its_recorded_bytes(capsys):
    digests = json.loads(CLI_DIGESTS.read_text())
    assert digests
    for key, want in digests.items():
        code = main(shlex.split(key))
        captured = capsys.readouterr()
        assert _outcome_digest(code, captured.out, captured.err) == want, key


def _record() -> None:
    import contextlib
    import io

    digests = json.loads(CLI_DIGESTS.read_text())
    for key in digests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(key))
        digests[key] = _outcome_digest(code, out.getvalue(), err.getvalue())
        print(f"{code}  {digests[key][:16]}  {key[:80]}")
    CLI_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
