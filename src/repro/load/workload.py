"""The open-workload injection adversary.

:class:`OpenWorkload` composes the pieces: every round it pulls the
offered batch from its :class:`~repro.load.arrivals.ArrivalStream`,
pushes it through the :class:`~repro.load.admission.AdmissionQueue`,
and injects the admitted arrivals within the per-round budget.  All
randomness lives in the stream; admission is deterministic bookkeeping —
so the offered stream is identical at any ``--jobs`` setting and on
both backends, and admission outcomes match wherever the underlying
fault schedule does.

It is injection-only (no ``mid_round`` override), which keeps it legal
on the sharded backend, and it exposes:

* ``load_summary()`` — offered/admitted/shed accounting with queue-depth
  and wait quantiles through :class:`repro.obs.registry.Histogram`;
* ``waits`` — per-rumor queueing delay, which the SLO layer adds to the
  protocol's delivery latency for arrival-to-delivery percentiles;
* ``shed_records`` — the shed arrivals (with their payload bytes), the
  ground truth for the shed-leak audit: a rumor that was never admitted
  must never surface anywhere in the run;
* ``bind_telemetry()`` — optional ``repro.obs`` wiring: counters for
  offered/admitted/shed, a queue-depth gauge, wait/depth histograms and
  leak-safe per-shed events (source and timing only — never payloads or
  destination sets).
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional

from repro.adversary.injection import InjectionWorkload
from repro.gossip.rumor import RumorId
from repro.load.admission import AdmissionPolicy, AdmissionQueue
from repro.load.arrivals import ArrivalSpec, ArrivalStream
from repro.obs.registry import Histogram
from repro.sim.engine import AdversaryView
from repro.sim.events import RoundDecision

__all__ = ["OpenWorkload", "ShedArrival", "SHED_REASONS", "hist_summary"]

SHED_REASONS = ("queue_full", "aged_out")


class ShedArrival(NamedTuple):
    """One arrival admission control turned away."""

    shed_round: int
    arrival_round: int
    reason: str
    src: int
    data: bytes


class OpenWorkload(InjectionWorkload):
    """Open arrival stream behind a budgeted admission queue."""

    def __init__(
        self,
        n: int,
        rng: random.Random,
        spec: ArrivalSpec,
        policy: AdmissionPolicy,
        budget: int,
        start_round: int = 0,
        stop_round: Optional[int] = None,
        seq_start: int = 0,
    ):
        super().__init__(rng, spec.payload_size, seq_start)
        if budget < 1:
            raise ValueError("per-round injection budget must be >= 1")
        self.n = n
        self.spec = spec
        self.policy = policy
        self.budget = budget
        self.stream = ArrivalStream(spec, n, rng, start_round, stop_round)
        self.queue = AdmissionQueue(policy.queue_cap)
        self.offered = 0
        self.admitted = 0
        self.shed_counts: Dict[str, int] = {r: 0 for r in SHED_REASONS}
        self.shed_records: List[ShedArrival] = []
        self.wait_hist = Histogram()  # queueing delay of admitted arrivals
        self.depth_hist = Histogram()  # queue depth at end of each round
        self.waits: Dict[RumorId, int] = {}
        self._telemetry = None

    # -- observability ---------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Mirror admission accounting into a live telemetry object."""
        if telemetry is not None and telemetry.enabled:
            self._telemetry = telemetry

    def _shed(self, round_no: int, entry_round: int, src: int, data: bytes, reason: str) -> None:
        self.shed_counts[reason] += 1
        self.shed_records.append(
            ShedArrival(round_no, entry_round, reason, src, data)
        )
        telemetry = self._telemetry
        if telemetry is not None:
            # Leak-safe: source pid and timing only — never the payload
            # bytes or the destination set of a rumor we refused to carry.
            telemetry.metrics.counter("load.shed", reason=reason).inc()
            telemetry.emit(
                "load_shed",
                round_no,
                src=src,
                reason=reason,
                waited=round_no - entry_round,
            )

    # -- adversary hook --------------------------------------------------

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        round_no = view.round
        batch = self.stream.arrivals(round_no)
        for arrival in batch:
            self.offered += 1
            if not self.queue.offer(round_no, arrival):
                self._shed(
                    round_no, round_no, arrival.src, arrival.data, "queue_full"
                )
        for queued in self.queue.expire(round_no, self.policy.max_wait):
            self._shed(
                round_no,
                queued.enqueued_round,
                queued.arrival.src,
                queued.arrival.data,
                "aged_out",
            )
        used_sources: set = set()
        for queued in self.queue.take(
            round_no, self.budget, view.is_alive, used_sources
        ):
            arrival = queued.arrival
            rumor = self.make_rumor(
                arrival.src,
                round_no,
                arrival.deadline,
                arrival.dest,
                arrival.data,
            )
            decision.injections.append((arrival.src, rumor))
            wait = queued.waited(round_no)
            self.admitted += 1
            self.wait_hist.observe(wait)
            self.waits[rumor.rid] = wait
        depth = len(self.queue)
        self.depth_hist.observe(depth)
        telemetry = self._telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            if batch:
                metrics.counter("load.offered").inc(len(batch))
            if decision.injections:
                metrics.counter("load.admitted").inc(len(decision.injections))
            metrics.gauge("load.queue_depth").set(depth)
            metrics.histogram("load.queue_depth_rounds").observe(depth)
        return decision

    # -- summaries -------------------------------------------------------

    @property
    def shed_total(self) -> int:
        return sum(self.shed_counts.values())

    def load_summary(self) -> Dict[str, object]:
        """JSON-safe admission accounting (the ``load`` summary core).

        The SLO layer (:mod:`repro.load.slo`) extends this with delivery
        and arrival-to-delivery latency quantiles, which need the QoD
        report and therefore live outside the adversary.
        """
        offered = self.offered
        return {
            "process": self.spec.process,
            "rate": self.spec.rate,
            "budget": self.budget,
            "queue_cap": self.policy.queue_cap,
            "max_wait": self.policy.max_wait,
            "offered": offered,
            "admitted": self.admitted,
            "shed": dict(self.shed_counts),
            "shed_total": self.shed_total,
            "shed_rate": (
                round(self.shed_total / offered, 6) if offered else 0.0
            ),
            "queue_final_depth": len(self.queue),
            "queue_depth": hist_summary(self.depth_hist),
            "wait_rounds": hist_summary(self.wait_hist),
        }


def hist_summary(hist: Histogram) -> Dict[str, object]:
    """The six keys every ``load`` section reports of a histogram."""
    full = hist.as_dict()
    return {
        key: full[key] for key in ("count", "mean", "max", "p50", "p99", "p999")
    }
