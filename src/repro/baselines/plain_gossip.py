"""Plain (non-confidential) continuous gossip.

The efficiency reference point of the paper's introduction: everyone
relays everything, deliveries are fast and cheap per rumor — and "all
confidentiality is lost: every device in the system may learn every piece
of information".  Running the confidentiality auditor over this baseline
is expected to report plaintext violations; that is the point.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.confidential_gossip import DeliverCallback
from repro.gossip.continuous import ContinuousGossip
from repro.gossip.rumor import GossipItem, Rumor, RumorId
from repro.sim.messages import Message, ServiceTags
from repro.sim.process import NodeBehavior
from repro.sim.rng import SeedSequence

__all__ = ["PlainGossipNode", "plain_gossip_factory"]


class PlainGossipNode(NodeBehavior):
    """One unfiltered continuous-gossip instance carrying whole rumors."""

    def __init__(
        self,
        pid: int,
        n: int,
        seeds: SeedSequence,
        fanout_scale: float = 2.0,
        reliable: bool = True,
        deliver_callback: Optional[DeliverCallback] = None,
    ):
        super().__init__(pid, n)
        self.seeds = seeds
        self.fanout_scale = fanout_scale
        self.reliable = reliable
        self.deliver_callback = deliver_callback
        self._delivered: Dict[RumorId, bytes] = {}
        self._gossip: ContinuousGossip

    def on_start(self, round_no: int) -> None:
        self._gossip = ContinuousGossip(
            pid=self.pid,
            n=self.n,
            channel="plain",
            scope=range(self.n),
            rng=self.seeds.child(self.pid, round_no).rng("plain"),
            deliver=self._on_item,
            service=ServiceTags.BASELINE,
            fanout_scale=self.fanout_scale,
            reliable=self.reliable,
        )

    def on_inject(self, round_no: int, rumor: Rumor) -> None:
        if self.pid in rumor.dest:
            self._deliver(round_no, rumor, "local")
        self._gossip.inject(
            round_no,
            rumor,
            deadline=rumor.deadline,
            dest=range(self.n),  # everyone relays: no confidentiality
            uid=("plain", rumor.rid),
        )

    def send_phase(self, round_no: int) -> List[Message]:
        return self._gossip.send_phase(round_no)

    def receive_phase(self, round_no: int, inbox: List[Message]) -> None:
        for message in inbox:
            self._gossip.on_message(round_no, message)
        self._gossip.end_round(round_no)

    def _on_item(self, round_no: int, item: GossipItem) -> None:
        rumor = item.payload
        if isinstance(rumor, Rumor):
            self._deliver(round_no, rumor, "gossip")

    def _deliver(self, round_no: int, rumor: Rumor, path: str) -> None:
        # Only destinations report a delivery to the user; but every relay
        # has *seen* the plaintext — which the auditor duly records.
        if self.pid not in rumor.dest or rumor.rid in self._delivered:
            return
        self._delivered[rumor.rid] = rumor.data
        if self.deliver_callback is not None:
            self.deliver_callback(self.pid, round_no, rumor.rid, rumor.data, path)


def plain_gossip_factory(
    n: int,
    seed: int = 0,
    fanout_scale: float = 2.0,
    reliable: bool = True,
    deliver_callback: Optional[DeliverCallback] = None,
) -> Callable[[int], PlainGossipNode]:
    return partial(
        PlainGossipNode,
        n=n,
        seeds=SeedSequence(seed).child("plain-gossip"),
        fanout_scale=fanout_scale,
        reliable=reliable,
        deliver_callback=deliver_callback,
    )
