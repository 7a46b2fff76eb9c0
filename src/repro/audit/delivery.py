"""Quality-of-Delivery auditing (Definition 1, Lemma 4, Lemma 15).

A rumor injected at ``p`` in round ``t`` with deadline ``d`` is
*admissible* for a destination ``q`` iff both ``p`` and ``q`` are
continuously alive over ``[t, t+d]``.  QoD demands that every admissible
(rumor, destination) pair is delivered by round ``t + d`` — with
probability 1, not merely w.h.p.

Deliveries must be recorded the moment they happen (a destination may be
crashed *after* the deadline, wiping its volatile state), so this auditor
doubles as the node-level delivery callback; the harness wires
``auditor.record_delivery`` into :func:`repro.core.congos.congos_factory`
(and the baselines do the same).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.gossip.rumor import Rumor, RumorId
from repro.sim.engine import Engine, SimObserver
from repro.sim.events import EventLog

__all__ = ["DeliveryOutcomeRecord", "QoDReport", "DeliveryAuditor"]


@dataclass(frozen=True)
class DeliveryOutcomeRecord:
    """One (rumor, destination) delivery verdict."""

    rid: RumorId
    pid: int
    admissible: bool
    delivered: bool
    on_time: bool
    correct_data: bool
    latency: Optional[int]  # rounds from injection, when delivered
    path: Optional[str]

    @property
    def missed(self) -> bool:
        """Admissible, yet not delivered correct data by the deadline."""
        return self.admissible and not (
            self.delivered and self.on_time and self.correct_data
        )


@dataclass
class QoDReport:
    """Aggregate Quality-of-Delivery verdict for a run."""

    outcomes: List[DeliveryOutcomeRecord] = field(default_factory=list)

    @property
    def admissible_pairs(self) -> int:
        return sum(1 for o in self.outcomes if o.admissible)

    @property
    def missed(self) -> List[DeliveryOutcomeRecord]:
        """Admissible pairs violating QoD: late, missing or corrupted."""
        return [o for o in self.outcomes if o.missed]

    @property
    def satisfied(self) -> bool:
        return not self.missed

    def path_counts(self, admissible_only: bool = False) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if admissible_only and not outcome.admissible:
                continue
            if outcome.path is not None:
                counts[outcome.path] = counts.get(outcome.path, 0) + 1
        return counts

    def latencies(self) -> List[int]:
        return [
            o.latency
            for o in self.outcomes
            if o.admissible and o.latency is not None
        ]

    def bonus_deliveries(self) -> int:
        """Inadmissible pairs delivered anyway (allowed, just not owed)."""
        return sum(1 for o in self.outcomes if not o.admissible and o.delivered)

    def summary(self) -> Dict[str, object]:
        latencies = self.latencies()
        return {
            "pairs": len(self.outcomes),
            "admissible": self.admissible_pairs,
            "missed": len(self.missed),
            "satisfied": self.satisfied,
            "bonus_deliveries": self.bonus_deliveries(),
            "mean_latency": (
                round(sum(latencies) / len(latencies), 2) if latencies else None
            ),
            "max_latency": max(latencies) if latencies else None,
            "paths": self.path_counts(),
        }


class DeliveryAuditor(SimObserver):
    """Records injections (as observer) and deliveries (as callback)."""

    def __init__(self) -> None:
        self.rumors: Dict[RumorId, Rumor] = {}
        self.injection_rounds: Dict[RumorId, int] = {}
        self.injection_pids: Dict[RumorId, int] = {}
        self.injection_order: List[RumorId] = []
        # (rid, pid) -> (round delivered, data, path)
        self.deliveries: Dict[Tuple[RumorId, int], Tuple[int, bytes, str]] = {}

    def injected_rid(self, index: int) -> RumorId:
        """The rid of the ``index``-th injection observed (in order)."""
        return self.injection_order[index]

    # -- observer hook --------------------------------------------------

    def on_inject(self, round_no: int, pid: int, rumor: object) -> None:
        if not isinstance(rumor, Rumor):
            return
        self.rumors[rumor.rid] = rumor
        self.injection_rounds[rumor.rid] = round_no
        self.injection_pids[rumor.rid] = pid
        self.injection_order.append(rumor.rid)

    # -- delivery callback (wire into the node factory) -----------------

    def record_delivery(
        self, pid: int, round_no: int, rid: RumorId, data: bytes, path: str
    ) -> None:
        key = (rid, pid)
        if key not in self.deliveries:
            self.deliveries[key] = (round_no, data, path)

    # -- verdicts --------------------------------------------------------

    def admissible_destinations(
        self, rid: RumorId, event_log: EventLog
    ) -> Set[int]:
        """Destinations for which the rumor is admissible (possibly empty)."""
        rumor = self.rumors[rid]
        start = self.injection_rounds[rid]
        end = start + rumor.deadline
        source = self.injection_pids[rid]
        if not event_log.continuously_alive(source, start, end):
            return set()
        return {
            q
            for q in rumor.dest
            if event_log.continuously_alive(q, start, end)
        }

    def deadline_round(self, rid: RumorId) -> int:
        """The last round in which ``rid`` may still be delivered."""
        return self.injection_rounds[rid] + self.rumors[rid].deadline

    def judge(
        self, rid: RumorId, event_log: EventLog
    ) -> List[DeliveryOutcomeRecord]:
        """The QoD verdict for every destination of one rumor, by pid.

        The one place a verdict is decided: :meth:`report` collects these
        at the end of a run, the fail-fast monitor in the round the
        deadline elapses.
        """
        rumor = self.rumors[rid]
        injected_at = self.injection_rounds[rid]
        deadline_round = injected_at + rumor.deadline
        admissible = self.admissible_destinations(rid, event_log)
        outcomes = []
        for pid in sorted(rumor.dest):
            entry = self.deliveries.get((rid, pid))
            delivered = entry is not None
            outcomes.append(
                DeliveryOutcomeRecord(
                    rid=rid,
                    pid=pid,
                    admissible=pid in admissible,
                    delivered=delivered,
                    on_time=delivered and entry[0] <= deadline_round,
                    correct_data=delivered and entry[1] == rumor.data,
                    latency=(entry[0] - injected_at) if delivered else None,
                    path=entry[2] if delivered else None,
                )
            )
        return outcomes

    def miss_detail(self, outcome: DeliveryOutcomeRecord) -> str:
        """Why a :attr:`~DeliveryOutcomeRecord.missed` pair failed QoD."""
        deadline_round = self.deadline_round(outcome.rid)
        if not outcome.delivered:
            return "admissible destination missed deadline {}".format(
                deadline_round
            )
        if not outcome.on_time:
            return "delivered late (round {} > deadline {})".format(
                self.injection_rounds[outcome.rid] + outcome.latency,
                deadline_round,
            )
        return "delivered corrupted data"

    def report(
        self, engine: Engine, until_round: Optional[int] = None
    ) -> QoDReport:
        """Judge every rumor whose deadline has passed.

        ``until_round`` defaults to the last fully executed round; rumors
        with deadlines beyond it are not judged (still in flight).
        """
        horizon = until_round if until_round is not None else engine.round - 1
        report = QoDReport()
        for rid in self.rumors:
            if self.deadline_round(rid) <= horizon:
                report.outcomes.extend(self.judge(rid, engine.event_log))
        return report
