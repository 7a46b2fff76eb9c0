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
