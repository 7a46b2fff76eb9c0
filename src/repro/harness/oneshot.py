"""Single-instance confidential gossip (Section 7: "we believe the same
techniques apply to other gossip variants (e.g., single-instance gossip)").

:func:`confidential_broadcast` is the one-call API: run a fresh CONGOS
deployment for exactly one rumor and return who learned what, when, and
whether anything leaked.  It is the library's "hello world" entry point
and also a genuinely useful primitive — a one-shot confidential multicast
with crash tolerance and an auditable transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.adversary.base import Adversary
from repro.adversary.injection import ScriptedWorkload
from repro.core.config import CongosParams
from repro.gossip.rumor import RumorId
from repro.harness.runner import Scenario, run_congos_scenario

__all__ = ["BroadcastResult", "confidential_broadcast"]


@dataclass
class BroadcastResult:
    """Outcome of a one-shot confidential broadcast."""

    rid: RumorId
    delivered: Dict[int, int]  # destination -> delivery round
    paths: Dict[int, str]  # destination -> delivery path
    missed: list  # admissible destinations that were not served (must be [])
    on_time: bool
    leak_free: bool
    min_reconstructing_coalition: Optional[int]
    total_messages: int
    max_messages_per_round: int
    rounds_executed: int

    @property
    def ok(self) -> bool:
        return self.on_time and self.leak_free and not self.missed


def confidential_broadcast(
    n: int,
    source: int,
    data: bytes,
    dest: Iterable[int],
    deadline: int = 128,
    seed: int = 0,
    params: Optional[CongosParams] = None,
    faults: Optional[Adversary] = None,
    warmup: Optional[int] = None,
) -> BroadcastResult:
    """Deliver ``data`` from ``source`` to exactly ``dest``, confidentially.

    Builds an ``n``-process CONGOS deployment, waits ``warmup`` rounds
    (default: one deadline, so the pipeline's uptime requirements are
    met), injects the rumor, runs until its deadline passes, and audits.

    ``faults`` optionally supplies a crash/restart adversary to broadcast
    through; destinations that do not stay continuously alive are excused
    per the admissibility rule, and show up neither in ``delivered`` nor
    in ``missed``.
    """
    destinations = frozenset(dest)
    if not 0 <= source < n:
        raise ValueError("source out of range")
    if not destinations <= frozenset(range(n)):
        raise ValueError("destinations out of range")
    resolved_warmup = warmup if warmup is not None else deadline
    inject_at = max(1, resolved_warmup)
    script = [(inject_at, source, deadline, destinations, data)]
    # The script carries its own payload, so the workload never draws
    # from the rng it is handed.
    result = run_congos_scenario(
        Scenario(
            name="oneshot",
            n=n,
            rounds=inject_at + deadline + 2,
            seed=seed,
            params=params if params is not None else CongosParams(),
            workload_factory=lambda rng: ScriptedWorkload(script, rng),
            fault_factory=(
                None if faults is None else lambda rng, partitions, _n: faults
            ),
        )
    )
    delivery = result.delivery
    rid = delivery.injected_rid(0)
    delivered = {}
    paths = {}
    for q in sorted(destinations):
        entry = delivery.deliveries.get((rid, q))
        if entry is not None:
            delivered[q] = entry[0]
            paths[q] = entry[2]
    missed = [o.pid for o in result.qod.missed]
    return BroadcastResult(
        rid=rid,
        delivered=delivered,
        paths=paths,
        missed=missed,
        on_time=result.qod.satisfied,
        leak_free=result.confidentiality.is_clean(),
        min_reconstructing_coalition=result.confidentiality.min_coalition_size(
            rid, n
        ),
        total_messages=result.stats.total,
        max_messages_per_round=result.stats.max_per_round(),
        rounds_executed=result.engine.rounds_executed,
    )
