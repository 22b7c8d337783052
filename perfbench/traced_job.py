"""Run one shsym CLI job with timing spans around each layer's public calls.

Usage: python3 perfbench/traced_job.py SPANS_OUT JOB_ID -- CLI_ARGS...

The library under src/ is not modified: after import, the module-level
names of the traced functions are rebound to timing wrappers in every
loaded shsym module that refers to them.  Spans (name, start, end, parent,
job id, self time) are kept in memory and written to SPANS_OUT as JSON when
the job ends, together with call counters and cache statistics.

Hot leaf functions are not wrapped call by call.  `eval_qk` and the
partition enumerators get a fresh `functools.lru_cache` around a timed
copy of the undecorated function, so only cache misses pay for a timer
and the call and hit counts come from `cache_info()`.  The time a leaf
takes is charged to the enclosing span as child time, so every span's
self time excludes it.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[dict] = []
        # Each frame is [span id, accumulated child time]; frame 0 is the
        # root, whose child time is the total time spent inside the library.
        self.stack: list[list] = [[None, 0.0]]
        self.calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            frame = [len(self.spans), 0.0]
            parent = self.stack[-1][0]
            self.spans.append(None)  # reserve the id; filled on exit
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.stack[-1][1] += end - start
                self.spans[frame[0]] = {
                    "id": frame[0],
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "job": self.job_id,
                    "self_s": end - start - frame[1],
                }

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap fn so that its time is summed per name, without a span."""

        def timed(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                self.stack[-1][1] += elapsed
                self.leaf_s[name] = self.leaf_s.get(name, 0.0) + elapsed

        return timed

    def report(self) -> dict:
        return {
            "job": self.job_id,
            "spans": self.spans,
            "calls": self.calls,
            "leaf_s": self.leaf_s,
            "counters": self.counters,
            "library_s": self.stack[0][1],
        }


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Rebind the traced shsym functions; returns the caches to report."""
    import shsym.cli  # noqa: F401  (loads every module the CLI uses)
    from shsym import harmonic, linalg, operators, partitions, qseries, quasimodular, ssym

    modules = [m for n, m in list(sys.modules.items()) if n == "shsym" or n.startswith("shsym.")]

    def spanned(mod, attr, name):
        orig = getattr(mod, attr)
        _rebind(modules, orig, tracer.span(name, orig))

    def recached(mod, attr, name):
        # A fresh unbounded cache around a timed copy of the raw function,
        # matching the lru_cache(maxsize=None) it replaces.
        orig = getattr(mod, attr)
        cached = functools.lru_cache(maxsize=None)(tracer.leaf(name, orig.__wrapped__))
        _rebind(modules, orig, cached)
        return cached

    eval_cache = recached(ssym, "eval_qk", "ssym.eval_qk")
    enum_cache = recached(partitions, "enumerate_partitions", "partitions.enumerate")
    min_part_cache = recached(partitions, "enumerate_min_part", "partitions.enumerate")

    # Every call of the kernel's enumerator is iterated in full, so the
    # partitions it returns are the partitions the bracket sum visits.
    def visiting(n):
        parts = enum_cache(n)
        tracer.count("partitions.visited", len(parts))
        return parts

    _rebind(modules, enum_cache, visiting)

    orig_t_inverse = harmonic._t_inverse

    def t_inverse(n):
        result = orig_t_inverse(n)
        top = tracer.counters.get("harmonic.t_inverse.max_dim", 0)
        tracer.counters["harmonic.t_inverse.max_dim"] = max(top, len(result))
        return result

    _rebind(modules, orig_t_inverse, t_inverse)

    orig_solve = linalg.solve
    solve_span = tracer.span("linalg.solve", orig_solve)

    def solve(matrix, *args, **kwargs):
        tracer.count("linalg.solve.rows", len(matrix))
        return solve_span(matrix, *args, **kwargs)

    _rebind(modules, orig_solve, solve)

    spanned(qseries, "q_bracket", "qseries.q_bracket")
    qseries.QSeries.inverse = tracer.span("qseries.inverse", qseries.QSeries.inverse)
    for attr in ("d_op_n", "delta_lambda", "laplacian", "kelvin"):
        spanned(operators, attr, f"operators.{attr}")
    spanned(harmonic, "basis_element", "harmonic.basis_element")
    spanned(harmonic, "decompose", "harmonic.decompose")
    spanned(linalg, "invert", "linalg.invert")
    spanned(quasimodular, "recognize", "quasimodular.recognize")
    spanned(quasimodular, "expand", "quasimodular.expand")
    spanned(ssym, "parse_poly", "ssym.parse")
    spanned(ssym, "format_poly", "ssym.format")
    spanned(ssym, "format_poly_latex", "ssym.format")

    return {
        "ssym.eval_qk": eval_cache,
        "partitions.enumerate_partitions": enum_cache,
        "partitions.enumerate_min_part": min_part_cache,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_job.py SPANS_OUT JOB_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(job_id)
    caches = install(tracer)
    from shsym.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        report = tracer.report()
        report["caches"] = {name: cache.cache_info()._asdict() for name, cache in caches.items()}
        with open(out_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
