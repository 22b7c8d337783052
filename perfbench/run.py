"""Benchmark of the shsym command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a real `shsym` CLI call in a fresh interpreter, because each CLI
call pays for cold caches.  The load is a closed loop: one client starts the
next job only after the previous one exited.  A pass is the workload's job
list, generated from the seed; a run repeats passes while the next one still
fits in `--seconds` (at least one) and reports medians over passes.

Workloads (see BENCHMARK.json for why each was chosen):

- tables         `shsym tables --max-weight 10 --format latex`, fixed input.
- qbracket-deep  two `shsym qbracket EXPR -N 36 --format json` jobs, one of
                 even weight (6 or 8) and one of odd weight (7 or 9); each
                 EXPR has two Q1-free monomials, over disjoint sets of one
                 and two generators, so every seed costs about the same.
- harmonic       `shsym basis 17` and `basis 18` (JSON), plus one
                 `shsym decompose` of a random four-term element at each of
                 the weights 16, 17 and 18.

With `--trace 0` the run reports the end-to-end metrics: `wall_s` (median
pass time from launching its first job to the exit of its last),
`peak_rss_mb` (median over passes of the largest job peak RSS) and
`setup_s` (median time of a trivial `shsym eval 1 "()"` request).  Jobs that
exit non-zero, fail their output check or time out are counted in `failed`
and make `correct` false.  Their share of the jobs attempted,
`ops_failed_ratio`, is on the info line of every run and is a per-layer
metric of traced runs; it is 0 on a correct run, so it cannot be an
end-to-end metric, whose bounds are shares of the parent's median.

With `--trace 1` the run alternates an untraced pass with a traced pass, in
which each job runs under perfbench/traced_job.py, and reports the per-layer
metrics: self times of spans around each module's public calls, call and
cache counters, and the tracing overhead (traced minus untraced wall time).
The layer times (`*.s`) are self times, so together with `cli.overhead_s`
(job wall time outside library calls) they add up to the traced wall time.

The last line of standard output is the result JSON; the info line before
it holds the environment, a host speed probe, the workload's input
properties and the failure count.  Failed jobs are listed on standard error.
The full report, spans included, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_TABLES = ROOT / "tests" / "data" / "tables_weight10.tex"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 1
WORKLOADS = ("tables", "qbracket-deep", "harmonic")
SETUP_SAMPLES = 12
JOB_BUDGET_S = 75.0
# Keeps a run, hung jobs included, inside the 180 s a run may take.
RUN_BUDGET_S = 165.0
DEFAULT_ORDER = 30

CLI = "import sys; from shsym.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Job:
    """One CLI call; `kind` selects the output check."""

    kind: str
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return shlex.join(self.args)


@dataclass
class JobResult:
    job: Job
    wall_s: float
    rss_mb: float
    error: str | None = None
    trace: dict | None = None
    stdout: bytes = b""


@dataclass
class PassResult:
    wall_s: float
    results: list[JobResult]

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)


# -- inputs ------------------------------------------------------------------


def partitions(n: int, min_part: int, max_part: int | None = None):
    """Partitions of n with parts in [min_part, max_part], largest part first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, min_part - 1, -1):
        for rest in partitions(n - first, min_part, first):
            yield (first,) + rest


def monomial_text(parts: tuple[int, ...]) -> str:
    out = []
    for k in sorted(set(parts)):
        e = parts.count(k)
        out.append(f"Q{k}" if e == 1 else f"Q{k}^{e}")
    return "*".join(out)


def random_expr(rng: random.Random, monomials) -> str:
    text = ""
    for parts in monomials:
        c = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 6))
        term = f"{abs(c)}*{monomial_text(parts)}"
        if text:
            text += (" - " if c < 0 else " + ") + term
        else:
            text = ("-" if c < 0 else "") + term
    return text


def qbracket_expr(rng: random.Random, weight: int) -> str:
    """Two monomials of the weight over disjoint sets of one and two generators.

    The kernel's cost grows with the distinct generators of a job (each is
    evaluated on every partition) and with the generators of each monomial
    (one factor per partition); fixing both at three keeps every seed's
    cost about the same.
    """
    monos = list(partitions(weight, 2))
    pairs = [
        (a, b)
        for a in monos
        for b in monos
        if len(set(a)) == 1 and len(set(b)) == 2 and not set(a) & set(b)
    ]
    return random_expr(rng, rng.choice(pairs))


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The job list of one pass.  `tiny` shrinks every size for the self-test."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "tables":
        args = ("tables", "--max-weight", "10", "--format", "latex")
        # At N=14 weight 10 is still recognized, with the same output.
        return [Job("tables", args + (("-N", "14") if tiny else ()))]
    if workload == "qbracket-deep":
        order = "14" if tiny else "36"
        weights = [rng.choice((6, 8)), rng.choice((7, 9))]
        jobs = [
            Job("qbracket", ("qbracket", qbracket_expr(rng, w), "-N", order, "--format", "json"))
            for w in weights
        ]
    elif workload == "harmonic":
        top = 8 if tiny else 18
        jobs = [Job("basis", ("basis", str(n), "--format", "json")) for n in (top - 1, top)]
        for w in (top - 2, top - 1, top):
            expr = random_expr(rng, rng.sample(list(partitions(w, 2)), 4))
            jobs.append(Job("decompose", ("decompose", expr, "--format", "json")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def _order_of(args: tuple[str, ...]) -> int:
    return int(args[args.index("-N") + 1]) if "-N" in args else DEFAULT_ORDER


def input_properties(jobs: list[Job]) -> dict:
    """Exact counts of the input properties the layers depend on.

    Bracketed terms are the terms of every polynomial a job averages (each
    row's h_lambda for `tables`, the expression for `qbracket`); a term
    repeats when its monomial already occurred in the same job.  Partitions
    visited is what direct summation needs: every distinct monomial of a job
    summed over all partitions of size <= N.
    """
    from shsym.harmonic import basis_element
    from shsym.partitions import count_partitions, enumerate_min_part
    from shsym.ssym import parse_poly

    terms = distinct = with_q2 = visited = max_dim = 0
    for job in jobs:
        polys = []
        if job.kind == "tables":
            top = int(job.args[job.args.index("--max-weight") + 1])
            polys = [basis_element(lam) for n in range(top + 1) for lam in enumerate_min_part(n, 3)]
        elif job.kind == "qbracket":
            polys = [parse_poly(job.args[1])]
        elif job.kind == "decompose":
            weight = parse_poly(job.args[1]).weight()
            max_dim = max(max_dim, len(enumerate_min_part(weight - 2, 2)))
        monos = [m for p in polys for m, _ in p.pr().terms()]
        seen = set(monos)
        terms += len(monos)
        distinct += len(seen)
        with_q2 += sum(1 for m in seen if m.exponent2(2))
        order = _order_of(job.args)
        visited += len(seen) * sum(count_partitions(n) for n in range(order + 1))
    return {
        "jobs": len(jobs),
        "bracketed_terms": terms,
        "distinct_monomials": distinct,
        "repeated_terms": terms - distinct,
        "repeat_share": (terms - distinct) / terms if terms else 0.0,
        "monomials_with_q2": with_q2,
        "q2_share": with_q2 / distinct if distinct else 0.0,
        "partitions_visited": visited,
        "t_inverse_max_dim": max_dim,
    }


# -- output checks -------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _poly_from_json(rows) -> "SSPoly":
    from shsym.ssym import Monomial, SSPoly

    terms = {}
    for row in rows:
        mono = Monomial.from_exponents({int(k): e for k, e in row["monomial"].items()})
        _require(mono not in terms, "repeated monomial")
        terms[mono] = Fraction(row["coeff"])
    return SSPoly(terms)


def _leading_scale(n: int) -> Fraction:
    # n! (3/2)_n with the falling factorial (3/2)(1/2)(-1/2)...
    out = Fraction(factorial(n))
    for i in range(n):
        out *= Fraction(3, 2) - i
    return out


def check_setup(job: Job, out: bytes) -> None:
    _require(out == b"1\n", "trivial evaluation did not print 1")


def check_tables(job: Job, out: bytes) -> None:
    _require(out == GOLDEN_TABLES.read_bytes(), "output differs from tests/data/tables_weight10.tex")


def check_basis(job: Job, out: bytes) -> None:
    from shsym.harmonic import is_harmonic
    from shsym.ssym import Monomial

    n = int(job.args[1])
    rows = json.loads(out)
    _require([tuple(r["lambda"]) for r in rows] == list(partitions(n, 3)), "wrong index set")
    scale = _leading_scale(n)
    for row in rows:
        lam = tuple(row["lambda"])
        h = _poly_from_json(row["h"])
        _require(h.weight() == n and h.in_lambda_star(), f"row {lam} is not a weight-{n} element")
        _require(is_harmonic(h), f"row {lam} is not harmonic")
        lead = Monomial((k, 2 * lam.count(k)) for k in set(lam))
        _require(h.coeff(lead) == scale, f"row {lam} has the wrong leading coefficient")


def check_decompose(job: Job, out: bytes) -> None:
    from shsym.harmonic import is_harmonic
    from shsym.ssym import SSPoly, parse_poly

    payload = json.loads(out)
    slots = [_poly_from_json(c) for c in payload["components"]]
    _require(payload["harmonic"] == [True] * len(slots), "a slot is not flagged harmonic")
    _require(all(is_harmonic(h) for h in slots), "a slot is not harmonic")
    acc, q2_power = SSPoly.zero(), SSPoly.one()
    for h in slots:
        acc = acc + q2_power * h
        q2_power = q2_power * SSPoly.gen(2)
    _require(acc == parse_poly(job.args[1]), "slots do not reconstruct the input")


def check_qbracket(job: Job, out: bytes) -> None:
    from shsym.quasimodular import QMForm, expand
    from shsym.ssym import parse_poly

    weight = parse_poly(job.args[1]).weight()
    order = _order_of(job.args)
    payload = json.loads(out)
    series = [Fraction(c) for c in payload["series"]["coefficients"]]
    _require(payload["series"]["order"] == order and len(series) == order + 1, "wrong series order")
    form = {(t["P"], t["Q"], t["R"]): Fraction(t["coeff"]) for t in payload["q_bracket"]}
    if weight % 2:
        _require(not any(series) and not form, "odd weight must give the zero series")
        return
    _require(form and all(2 * a + 4 * b + 6 * c == weight for a, b, c in form), "form of wrong weight")
    _require(list(expand(QMForm(form), order).coeffs) == series, "form does not expand to the series")


CHECKS = {
    "setup": check_setup,
    "tables": check_tables,
    "basis": check_basis,
    "decompose": check_decompose,
    "qbracket": check_qbracket,
}


class Checker:
    """Runs the output checks; a verdict is reused for identical output."""

    def __init__(self):
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.verdicts: dict[tuple, str | None] = {}

    def __call__(self, job: Job, out: bytes) -> str | None:
        sha = hashlib.sha256(out).hexdigest()
        memo = (job.kind, job.args, sha)
        if memo not in self.verdicts:
            self.verdicts[memo] = self._verdict(job, out, sha)
        return self.verdicts[memo]

    def _verdict(self, job: Job, out: bytes, sha: str) -> str | None:
        expected = self.digests.get(job.key)
        if expected is not None and expected != sha:
            return "stdout differs from the digest recorded for these arguments"
        try:
            CHECKS[job.kind](job, out)
        except Exception as exc:  # a failed check is counted, never raised
            return f"check failed: {type(exc).__name__}: {exc}"
        return None


# -- running jobs ----------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_job(job: Job, job_id: str, budget: float, traced: bool = False) -> JobResult:
    """Run one job in a fresh process; measure wall time and peak RSS.

    The parent sleeps on a pidfd until the child exits or the time budget
    ends, then reaps it with wait4, which gives the child's own peak RSS.
    """
    jobs_dir = OUT_DIR / "jobs"
    jobs_dir.mkdir(parents=True, exist_ok=True)
    out_path = jobs_dir / f"{job_id}.out"
    err_path = jobs_dir / f"{job_id}.err"
    spans_path = jobs_dir / f"{job_id}.spans.json"
    if traced:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH_DIR / "traced_job.py"), str(spans_path), job_id, "--", *job.args]
    else:
        argv = [sys.executable, "-c", CLI, *job.args]
    if budget <= 0:
        return JobResult(job, 0.0, 0.0, "not started: run time budget spent")
    exited = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([pidfd], [], [], max(0.0, start + budget - time.perf_counter()))
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = JobResult(job, wall, usage.ru_maxrss / 1024, stdout=out_path.read_bytes())
    if not exited:
        result.error = f"timed out after {budget:.2f} s"
    elif proc.returncode != 0:
        lines = err_path.read_text(errors="replace").strip().splitlines()
        result.error = f"exit {proc.returncode}: {lines[-1] if lines else ''}"
    if traced and result.error is None:
        try:
            result.trace = json.loads(spans_path.read_text())
        except (OSError, ValueError) as exc:
            result.error = f"no trace written: {exc}"
    return result


class Runner:
    """Runs passes of one workload and keeps every job result of the run."""

    def __init__(self, jobs: list[Job], seconds: float, job_budget: float = JOB_BUDGET_S):
        self.jobs = jobs
        self.seconds = seconds
        self.job_budget = job_budget
        self.checker = Checker()
        self.started = time.perf_counter()
        self.results: list[JobResult] = []

    def budget(self) -> float:
        return min(self.job_budget, self.started + RUN_BUDGET_S - time.perf_counter())

    def job(self, job: Job, traced: bool = False) -> JobResult:
        try:
            result = run_job(job, f"job{len(self.results) + 1:04d}", self.budget(), traced)
        except OSError as exc:
            result = JobResult(job, 0.0, 0.0, f"could not run: {exc}")
        self.results.append(result)
        return result

    def check(self, results: list[JobResult]) -> None:
        for r in results:
            if r.error is None:
                r.error = self.checker(r.job, r.stdout)
            r.stdout = b""

    def run_pass(self, traced: bool = False) -> PassResult:
        start = time.perf_counter()
        results = [self.job(job, traced) for job in self.jobs]
        # Checks run after the pass, so they are not part of its wall time.
        passed = PassResult(time.perf_counter() - start, results)
        self.check(results)
        return passed

    def setup_sample(self, count: int) -> list[float]:
        trivial = Job("setup", ("eval", "1", "()"))
        results = [self.job(trivial) for _ in range(count)]
        self.check(results)
        return [r.wall_s for r in results]

    def repeat(self, step) -> list:
        """Call step() once, then again while another call still fits."""
        begin = time.perf_counter()
        out = [step()]
        while True:
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(out) > self.seconds or self.budget() < self.job_budget:
                return out
            out.append(step())

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.error is not None)


# -- metrics ---------------------------------------------------------------------

SPAN_METRICS = (
    "qseries.q_bracket",
    "qseries.inverse",
    "operators.d_op_n",
    "operators.delta_lambda",
    "operators.laplacian",
    "operators.kelvin",
    "harmonic.basis_element",
    "harmonic.decompose",
    "linalg.invert",
    "linalg.solve",
    "quasimodular.recognize",
    "quasimodular.expand",
    "ssym.parse",
    "ssym.format",
)
CALL_METRICS = (
    "qseries.q_bracket",
    "operators.d_op_n",
    "harmonic.basis_element",
    "quasimodular.recognize",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(results: list[JobResult]) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    self_s = dict.fromkeys(SPAN_METRICS, 0.0)
    calls = dict.fromkeys(CALL_METRICS, 0)
    leaf = {"ssym.eval_qk": 0.0, "partitions.enumerate": 0.0}
    counters = {"partitions.visited": 0, "linalg.solve.rows": 0, "harmonic.t_inverse.max_dim": 0}
    eval_hits = eval_calls = eval_entries = enum_hits = enum_calls = 0
    overhead = 0.0
    for r in results:
        t = r.trace
        if t is None:
            continue
        for span in t["spans"]:
            self_s[span["name"]] += span["self_s"]
        for name in CALL_METRICS:
            calls[name] += t["calls"].get(name, 0)
        for name in leaf:
            leaf[name] += t["leaf_s"].get(name, 0.0)
        for name in counters:
            value = t["counters"].get(name, 0)
            counters[name] = max(counters[name], value) if name.endswith("max_dim") else counters[name] + value
        caches = t["caches"]
        ev = caches["ssym.eval_qk"]
        eval_hits += ev["hits"]
        eval_calls += ev["hits"] + ev["misses"]
        eval_entries = max(eval_entries, ev["currsize"])
        for name in ("partitions.enumerate_partitions", "partitions.enumerate_min_part"):
            enum_hits += caches[name]["hits"]
            enum_calls += caches[name]["hits"] + caches[name]["misses"]
        overhead += r.wall_s - t["library_s"]
    out = {f"{name}.s": v for name, v in self_s.items()}
    out.update({f"{name}.calls": v for name, v in calls.items()})
    out.update(
        {
            "partitions.enumerate.s": leaf["partitions.enumerate"],
            "partitions.enumerate.hit_ratio": _ratio(enum_hits, enum_calls),
            "ssym.eval_qk.s": leaf["ssym.eval_qk"],
            "ssym.eval_qk.calls": eval_calls,
            "ssym.eval_qk.hit_ratio": _ratio(eval_hits, eval_calls),
            "ssym.eval_qk.cache_entries": eval_entries,
            "cli.overhead_s": overhead,
        }
    )
    out.update(counters)
    return out


def _median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "shsym").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def host_probe_s() -> float:
    """Median time of a fixed stdlib computation that does not use shsym.

    Taken before and after the passes of each run, it shows how fast the
    host ran at the time, so a shift between runs of the same code can be
    told apart from a change of the program.
    """

    def once() -> float:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 12000):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(9))


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One run; returns (result line, report)."""
    jobs = build_jobs(workload, seed, tiny)
    runner = Runner(jobs, seconds, job_budget=20.0 if tiny else JOB_BUDGET_S)
    report = {
        "workload": workload,
        "env": environment(seed),
        "inputs": input_properties(jobs),
        "jobs": [j.key for j in jobs],
        "host_probe_s": [host_probe_s()],
    }
    if not trace:
        runner.setup_sample(1)  # warms the bytecode cache
        # Half the trivial requests run before the passes and half after,
        # so that a slow phase of a shared machine does not set the median.
        setup = runner.setup_sample(SETUP_SAMPLES // 2)
        passes = runner.repeat(runner.run_pass)
        setup += runner.setup_sample(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        metrics = {
            "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": _metric(statistics.median(p.peak_rss_mb for p in passes), "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }
        report["pass_wall_s"] = [p.wall_s for p in passes]
        report["setup_samples_s"] = setup
    else:

        def pair():
            plain = runner.run_pass()
            traced = runner.run_pass(traced=True)
            row = layer_metrics(traced.results)
            row["trace.untraced_wall_s"] = plain.wall_s
            row["trace.traced_wall_s"] = traced.wall_s
            row["trace.overhead_s"] = traced.wall_s - plain.wall_s
            return row, traced

        pairs = runner.repeat(pair)
        layers = _median_dict([row for row, _ in pairs])
        metrics = {name: _metric(value, _unit(name)) for name, value in layers.items()}
        report["spans"] = [s for _, p in pairs for r in p.results if r.trace for s in r.trace["spans"]]
    report["host_probe_s"].append(host_probe_s())
    ops_failed = _ratio(runner.failed, len(runner.results))
    if trace:
        metrics["ops_failed_ratio"] = _metric(ops_failed, "ratio")
    report["attempted"] = len(runner.results)
    report["failed"] = runner.failed
    report["ops_failed_ratio"] = ops_failed
    report["failures"] = [f"{r.job.key}: {r.error}" for r in runner.results if r.error][:20]
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.results),
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, report


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "shsym" / "cli.py", GOLDEN_TABLES) if not p.is_file()]
    if missing:
        print(f"error: run from a shsym checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**report, "result": result}, indent=1))
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    keys = ("workload", "env", "host_probe_s", "inputs", "attempted", "failed", "ops_failed_ratio")
    info = {k: report[k] for k in keys}
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
