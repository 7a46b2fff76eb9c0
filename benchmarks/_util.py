"""Shared helpers for the benchmark suite.

Each bench regenerates one experiment from DESIGN.md's per-experiment
index (E1..E13) and emits its table both to stdout and to
``benchmarks/results/<name>.txt`` so the numbers survive pytest's output
capture; EXPERIMENTS.md records the reference run.  Since the exec
subsystem landed, :func:`emit` also writes a timestamped, machine-
readable ``BENCH_<name>.json`` sidecar (optionally carrying structured
``data``) so the perf trajectory can be tracked by tooling, not eyeballs.

Benches use ``benchmark.pedantic(fn, rounds=1, iterations=1)``: the
subject is a whole simulation, so wall-clock per run is the meaningful
timing and repetition is wasteful.  Grid-shaped benches fan their cells
out over the exec pool; ``REPRO_BENCH_JOBS`` overrides the worker count
(default: cpu count).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.exec.bench_io import write_bench_json

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_jobs(default: Optional[int] = None) -> int:
    """Worker count for bench grids: $REPRO_BENCH_JOBS or cpu count."""
    env = os.environ.get("REPRO_BENCH_JOBS")
    if env:
        return max(1, int(env))
    if default is not None:
        return default
    return os.cpu_count() or 1


def emit(name: str, text: str, data: Optional[Dict[str, object]] = None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    Writes ``<name>.txt`` (the human-readable table, unchanged) and a
    ``BENCH_<name>.json`` sidecar holding the table plus any structured
    ``data`` the bench provides (grids, fits, timings).
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    print()
    print(text)
    path = os.path.join(RESULTS_DIR, "{}.txt".format(name))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    payload: Dict[str, object] = {"table": text}
    if data:
        payload.update(data)
    write_bench_json(name, payload, results_dir=RESULTS_DIR)


def run_once(benchmark, fn: Callable[[], object]):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def lean_params(**overrides):
    from repro.core.config import CongosParams

    return CongosParams.preset("lean", **overrides)
