"""repro.load — open-workload streaming: arrivals, admission, SLOs.

Everything before this package was closed-workload: a fixed rumor set
injected in a window and judged once.  ``repro.load`` turns the
reproduction into a load-testable service model:

* :mod:`repro.load.arrivals` — deterministic, seed-scoped arrival
  processes (Poisson / bursty / diurnal) with hotspot destination-set
  skew (Zipf over pid blocks) and configurable deadline mixes;
* :mod:`repro.load.admission` — queue-based load leveling: a bounded
  injection queue in front of the engine's per-round injection budget,
  with aging and wait-cap shedding;
* :mod:`repro.load.workload` — :class:`OpenWorkload`, the injection
  adversary that drives the stream through the queue into the engine;
* :mod:`repro.load.slo` — service-level summaries (delivery-latency
  p50/p99/p999, shed/fallback rates, throughput) built on
  :class:`repro.obs.registry.Histogram`;
* :mod:`repro.load.soak` — the E20 saturation-knee harness behind the
  ``load-soak`` CLI subcommand.

Arrival streams draw only from their own derived rng and the round
number — never from engine state — so a given ``(seed, scenario name)``
produces the identical stream at any ``--jobs`` setting and on both
the inproc and sharded backends.
"""
