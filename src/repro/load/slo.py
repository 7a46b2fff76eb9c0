"""Service-level summaries for open-workload runs.

A closed-workload run is judged once, pass/fail (QoD).  A *service* is
judged continuously: what latency did the p99 client see, how much
offered traffic was turned away, how often did the deadline-exact
fallback fire.  This module derives those numbers from a finished
:class:`~repro.harness.runner.RunResult` whose workload is an
:class:`~repro.load.workload.OpenWorkload`, reusing the exact-quantile
:class:`repro.obs.registry.Histogram` machinery:

* ``delivery_latency`` — injection-to-delivery rounds of admissible
  pairs (p50/p99/p999), the protocol's own service time;
* ``e2e_latency`` — *arrival*-to-delivery rounds (queueing wait plus
  delivery), what an open-system client actually experiences;
* ``fallback_rate`` — the share of served admissible pairs that needed
  Lemma 4's deadline shoot;
* shed/admit/queue accounting inherited from the workload, plus the
  shed-leak verdict from :func:`repro.audit.confidentiality.shed_rumor_leaks`.

Everything returned is JSON-safe and deterministic (no wall-clock), so
the summary rides :class:`repro.exec.results.RunRecord` through the
result cache and sweep artifacts unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.audit.confidentiality import shed_rumor_leaks
from repro.load.workload import hist_summary
from repro.obs.registry import Histogram

__all__ = ["slo_summary"]


def slo_summary(result) -> Optional[Dict[str, object]]:
    """The ``load`` section of an open run's summary (or ``None``).

    ``None`` when the run's workload is not an open workload — closed
    scenarios keep their summaries (and golden digests) byte-identical.
    """
    workload = result.workload
    summarize = getattr(workload, "load_summary", None)
    if summarize is None:
        return None
    out: Dict[str, object] = summarize()

    delivery_hist = Histogram()
    e2e_hist = Histogram()
    waits = getattr(workload, "waits", {})
    for outcome in result.qod.outcomes:
        if not outcome.admissible or outcome.latency is None:
            continue
        delivery_hist.observe(outcome.latency)
        wait = waits.get(outcome.rid)
        if wait is not None:
            e2e_hist.observe(outcome.latency + wait)
    out["delivery_latency"] = hist_summary(delivery_hist)
    out["e2e_latency"] = hist_summary(e2e_hist)

    paths = result.qod.path_counts(admissible_only=True)
    served = sum(paths.values())
    out["fallback_rate"] = (
        round(paths.get("shoot", 0) / served, 6) if served else 0.0
    )
    out["qod_satisfied"] = result.qod.satisfied

    rounds = result.scenario.rounds
    out["throughput"] = {
        "rounds": rounds,
        "offered_per_round": round(out["offered"] / rounds, 6),
        "admitted_per_round": round(out["admitted"] / rounds, 6),
    }

    leaks = shed_rumor_leaks(result)
    out["shed_leaks"] = len(leaks)
    out["shed_leak_free"] = not leaks
    return out
