"""Strongly confidential gossip: collaboration restricted to ``rho.D``.

This is the class of protocols Theorem 1 bounds from below: no message
causally dependent on a rumor may reach a process outside the rumor's
destination set, so only destination-set members (plus the source) may
relay it.  The implementation gossips each rumor epidemically *inside*
``D + {source}`` and, crucially, exploits the only merging the definition
allows: a single message from ``p`` to ``q`` batches every rumor whose
destination set contains both ``p`` and ``q``.

The Theorem-1 workload makes such overlaps vanishingly rare, so measured
total messages track ``sum |D| = Theta(n x)`` — the lower bound's shape —
while CONGOS (weak confidentiality, all-process collaboration) beats it on
peak per-round traffic for the same deliveries.

QoD is kept probability-1 the same way CONGOS keeps it: the source
direct-sends at the deadline if it has not seen its rumor saturate (here:
a deterministic flush at expiry, since there is no confirmation channel).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.confidential_gossip import DeliverCallback
from repro.gossip.epidemic import choose_push_targets, default_fanout
from repro.gossip.rumor import Rumor, RumorId
from repro.sim.messages import Message, ServiceTags
from repro.sim.process import NodeBehavior
from repro.sim.rng import SeedSequence

__all__ = ["StronglyConfidentialNode", "strongly_confidential_factory"]


class StronglyConfidentialNode(NodeBehavior):
    """Epidemic relay confined to each rumor's destination set."""

    def __init__(
        self,
        pid: int,
        n: int,
        seeds: SeedSequence,
        fanout_scale: float = 1.0,
        deliver_callback: Optional[DeliverCallback] = None,
    ):
        super().__init__(pid, n)
        self.rng = seeds.rng(pid)
        self.fanout_scale = fanout_scale
        self.deliver_callback = deliver_callback
        # rid -> (rumor, expiry round, am_i_source)
        self._carrying: Dict[RumorId, Tuple[Rumor, int, bool]] = {}
        self._delivered: Dict[RumorId, bytes] = {}

    # ------------------------------------------------------------------

    def on_inject(self, round_no: int, rumor: Rumor) -> None:
        self._carrying[rumor.rid] = (rumor, round_no + rumor.deadline, True)
        if self.pid in rumor.dest:
            self._deliver(round_no, rumor, "local")

    def send_phase(self, round_no: int) -> List[Message]:
        self._drop_expired(round_no)
        if not self._carrying:
            return []
        # Pick targets per rumor, then merge by target: one message carries
        # every rumor allowed to travel on that (src, dst) link.
        per_target: Dict[int, List[Rumor]] = {}
        for rumor, expiry, am_source in self._carrying.values():
            allowed = [q for q in rumor.dest if q != self.pid]
            if not allowed:
                continue
            if am_source and expiry == round_no:
                # Deterministic deadline flush (probability-1 QoD).
                targets = allowed
            else:
                fanout = default_fanout(len(allowed) + 1, self.fanout_scale)
                targets = choose_push_targets(
                    self.rng, allowed, self.pid, max(1, fanout)
                )
            for target in targets:
                per_target.setdefault(target, []).append(rumor)
        messages: List[Message] = []
        for target in sorted(per_target):
            rumors = per_target[target]
            for rumor in rumors:
                if target not in rumor.dest:
                    raise AssertionError(
                        "strong confidentiality would be violated"
                    )
            messages.append(
                Message(
                    src=self.pid,
                    dst=target,
                    service=ServiceTags.BASELINE,
                    payload=tuple(rumors),
                    size=len(rumors),
                    channel="sc-gossip",
                )
            )
        return messages

    def receive_phase(self, round_no: int, inbox: List[Message]) -> None:
        for message in inbox:
            for rumor in message.payload:
                if rumor.rid in self._delivered:
                    continue
                expiry = rumor.injected_at + rumor.deadline
                if round_no <= expiry and rumor.rid not in self._carrying:
                    self._carrying[rumor.rid] = (rumor, expiry, False)
                self._deliver(round_no, rumor, "gossip")

    # ------------------------------------------------------------------

    def _deliver(self, round_no: int, rumor: Rumor, path: str) -> None:
        if self.pid not in rumor.dest or rumor.rid in self._delivered:
            return
        self._delivered[rumor.rid] = rumor.data
        if self.deliver_callback is not None:
            self.deliver_callback(self.pid, round_no, rumor.rid, rumor.data, path)

    def _drop_expired(self, round_no: int) -> None:
        dead = [
            rid for rid, (_, expiry, _) in self._carrying.items() if expiry < round_no
        ]
        for rid in dead:
            del self._carrying[rid]


def strongly_confidential_factory(
    n: int,
    seed: int = 0,
    fanout_scale: float = 1.0,
    deliver_callback: Optional[DeliverCallback] = None,
) -> Callable[[int], StronglyConfidentialNode]:
    return partial(
        StronglyConfidentialNode,
        n=n,
        seeds=SeedSequence(seed).child("sc-gossip"),
        fanout_scale=fanout_scale,
        deliver_callback=deliver_callback,
    )
