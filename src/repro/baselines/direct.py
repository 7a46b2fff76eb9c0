"""Direct-send baseline: the trivial strongly confidential protocol.

The source sends each rumor straight to every destination in the
injection round.  No process outside ``D`` ever sees anything (strong
confidentiality), QoD holds with probability 1 (the network is reliable
and both endpoints being continuously alive includes the injection round),
and the cost is exactly ``|D|`` messages per rumor — which, under the
Theorem-1 workload, is the ``Omega(n x)`` total the lower bound says no
strongly confidential protocol can beat by more than constant-factor
merging.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.core.confidential_gossip import DeliverCallback
from repro.gossip.rumor import Rumor, RumorId
from repro.sim.messages import Message, ServiceTags
from repro.sim.process import NodeBehavior

__all__ = ["DirectSendNode", "direct_factory"]


class DirectSendNode(NodeBehavior):
    """Source-to-destination unicast of full rumors."""

    def __init__(
        self,
        pid: int,
        n: int,
        deliver_callback: Optional[DeliverCallback] = None,
    ):
        super().__init__(pid, n)
        self.deliver_callback = deliver_callback
        self._outbox: List[Message] = []
        self._delivered: Dict[RumorId, bytes] = {}
        self.rumors_sent = 0

    def on_inject(self, round_no: int, rumor: Rumor) -> None:
        if self.pid in rumor.dest:
            self._deliver(round_no, rumor, "local")
        for dst in sorted(rumor.dest):
            if dst == self.pid:
                continue
            self._outbox.append(
                Message(
                    src=self.pid,
                    dst=dst,
                    service=ServiceTags.BASELINE,
                    payload=rumor,
                    size=1,
                    channel="direct",
                )
            )
        self.rumors_sent += 1

    def send_phase(self, round_no: int) -> List[Message]:
        outbox, self._outbox = self._outbox, []
        return outbox

    def receive_phase(self, round_no: int, inbox: List[Message]) -> None:
        for message in inbox:
            rumor = message.payload
            if isinstance(rumor, Rumor):
                self._deliver(round_no, rumor, "direct")

    def _deliver(self, round_no: int, rumor: Rumor, path: str) -> None:
        if rumor.rid in self._delivered:
            return
        self._delivered[rumor.rid] = rumor.data
        if self.deliver_callback is not None:
            self.deliver_callback(self.pid, round_no, rumor.rid, rumor.data, path)


def direct_factory(
    n: int, deliver_callback: Optional[DeliverCallback] = None
) -> Callable[[int], DirectSendNode]:
    return partial(DirectSendNode, n=n, deliver_callback=deliver_callback)
