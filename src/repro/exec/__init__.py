"""Parallel experiment execution engine.

The exec subsystem turns a scenario into *data* and runs it anywhere:

* :mod:`repro.exec.tasks` — :class:`RunSpec`, a picklable description of
  one run (registered builder name + kwargs + params overrides + seed)
  with a stable content-hash key;
* :mod:`repro.exec.results` — :class:`RunRecord`, the slim picklable
  metrics extract that crosses process boundaries (engines never do);
* :mod:`repro.exec.pool` — a ``ProcessPoolExecutor`` runner with
  configurable jobs, per-task timeouts and retry-on-worker-crash;
* :mod:`repro.exec.cache` — an on-disk JSON result cache keyed by
  RunSpec hash, so interrupted sweeps resume instead of recomputing;
* :mod:`repro.exec.progress` — wall-clock / tasks-per-second reporting;
* :mod:`repro.exec.bench_io` — machine-readable ``BENCH_<name>.json``
  artifacts alongside the human-readable tables.
"""
