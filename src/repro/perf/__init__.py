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
* :mod:`repro.perf.scaling` — the E17 engine-scaling bench (wall-clock
  vs ``n`` against the pinned pre-optimization baseline) and the E17b
  chaos-scaling soak (ROADMAP item 2: the fault matrix at larger ``n``).

Everything rides the ``perf`` CLI subcommand (``python -m
repro.harness.cli perf ...``).  The optimization contract the benches
police is documented in DESIGN.md §8: default runs must stay
bit-identical — same rng stream consumption, same event order — which
the golden-digest tests (``tests/test_golden_digests.py``) enforce.
"""

from repro.perf.bench import BenchResult, profile_case, run_case, run_suite, suite_payload
from repro.perf.cases import PerfCase, all_cases, case_keys, get_case, register_case
from repro.perf.scaling import (
    E17B_BENCH_NAME,
    E17_BENCH_NAME,
    PRE_PR_BASELINE,
    CHAOS_SCALING,
    chaos_scaling_payload,
    engine_scaling_payload,
    run_engine_scaling,
    scaling_spec,
)

__all__ = [
    "BenchResult",
    "PerfCase",
    "E17_BENCH_NAME",
    "E17B_BENCH_NAME",
    "PRE_PR_BASELINE",
    "all_cases",
    "case_keys",
    "CHAOS_SCALING",
    "chaos_scaling_payload",
    "engine_scaling_payload",
    "get_case",
    "profile_case",
    "register_case",
    "run_case",
    "run_engine_scaling",
    "run_suite",
    "scaling_spec",
    "suite_payload",
]
