"""Record the SHA-256 of every job's stdout at the benchmark's default seed.

Usage, from the root of a checkout: python3 perfbench/record_digests.py

Writes perfbench/digests.json, keyed by the job's CLI arguments.  The
benchmark then requires byte-identical output from any job whose arguments
are recorded, on top of its semantic output checks.  A job whose output
fails those checks is not recorded, and the script exits 1.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    checker = run.Checker()
    checker.digests = {}  # check the semantics only, against nothing recorded
    digests = {}
    for workload in run.WORKLOADS:
        for i, job in enumerate(run.build_jobs(workload, run.DEFAULT_SEED)):
            result = run.run_job(job, f"record-{workload}-{i}", run.JOB_BUDGET_S)
            error = result.error or checker(job, result.stdout)
            if error:
                print(f"not recorded: {job.key}: {error}", file=sys.stderr)
                return 1
            digests[job.key] = hashlib.sha256(result.stdout).hexdigest()
            print(f"{digests[job.key][:16]}  {job.key[:100]}")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
