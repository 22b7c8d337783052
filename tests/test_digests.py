"""The benchmark's recorded outputs: each job in perfbench/digests.json,
run through `cli.main`, prints exactly the bytes whose SHA-256 is recorded
there.  The file is only read."""

import hashlib
import json
import shlex
from pathlib import Path

from shsym.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def test_every_benchmark_job_prints_its_recorded_bytes(capsys):
    digests = json.loads(DIGESTS.read_text())
    assert digests
    for key, want in digests.items():
        code = main(shlex.split(key))
        out = capsys.readouterr().out
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == want, key
