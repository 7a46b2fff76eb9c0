"""Microbenchmarks, profiling and n-scaling benches (E17/E17b).

The perf subsystem has three layers:

* :mod:`repro.perf.cases` — a registry of stable-keyed :class:`PerfCase`
  microbenchmarks, each isolating one hot path of the round engine
  (message construction, routing, observer dispatch, epidemic target
  selection, audit absorption, block arithmetic, plus one end-to-end
  steady run);
* :mod:`repro.perf.bench` — warmup/repeat timing with optional
  cProfile-backed hotspot attribution, producing machine-readable
  payloads;
* :mod:`repro.perf.scaling` — the E17 / E18 scaling benches (the steady
  cell's wall-clock vs ``n`` on each execution path, as ratios against
  the object-inproc row of the same invocation) and the E17b
  chaos-scaling soak (ROADMAP item 2: the fault matrix at larger ``n``).

They ride the ``perf`` CLI subcommand (``python -m
repro.harness.cli perf ...``; E18 is ``net bench``).  The optimization contract the benches
police is documented in DESIGN.md §8: default runs must stay
bit-identical — same rng stream consumption, same event order — which
the golden-digest tests (``tests/test_golden_digests.py``) enforce.
"""

from repro.perf.bench import BenchResult, profile_case, run_case, run_suite, suite_payload
from repro.perf.cases import PerfCase, all_cases, case_keys, get_case, register_case
from repro.perf.scaling import (
    CHAOS_SCALING,
    E17B_BENCH_NAME,
    E17_BENCH_NAME,
    ENGINE_SCALING,
    SHARDED_SCALING,
    chaos_scaling_payload,
    path_scaling_payload,
)

__all__ = [
    "BenchResult",
    "PerfCase",
    "E17_BENCH_NAME",
    "E17B_BENCH_NAME",
    "ENGINE_SCALING",
    "SHARDED_SCALING",
    "all_cases",
    "case_keys",
    "CHAOS_SCALING",
    "chaos_scaling_payload",
    "get_case",
    "profile_case",
    "register_case",
    "run_case",
    "run_suite",
    "path_scaling_payload",
    "suite_payload",
]
