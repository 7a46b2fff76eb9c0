"""What Proxy[l] and GroupDistribution[l] share: one block's lifecycle.

Each block a service activates if its process has the uptime of its
:class:`~repro.sim.clock.BlockStage` (else it is ``WAITING``); each
iteration it rolls its collaborator census over; at its share round it
gossips a share to its group.  The two differ only in that stage.
"""

from __future__ import annotations

import random
from typing import List, Set

from repro.core.config import CongosParams
from repro.core.partitions import PartitionSet
from repro.gossip.continuous import ContinuousGossip
from repro.gossip.service import SubService
from repro.obs.instrument import NULL_TELEMETRY
from repro.sim.clock import ITERATION_START, BlockSchedule, BlockStage
from repro.sim.messages import Message

__all__ = ["ACTIVE", "WAITING", "BlockService"]

WAITING = "waiting"  # without the uptime (e.g. restarted mid-block)
ACTIVE = "active"


class BlockService(SubService):
    """One block service at one process, for one deadline class.

    Subclasses supply ``_begin_block(round_no)`` (the activation, once the
    uptime gate passed), ``_send(round_no, stages)`` (the round's messages,
    given its stage flags) and ``_share()`` (the GroupGossip share payload,
    or None for no share this iteration).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        service: str,
        channel: str,
        stage: BlockStage,
        schedule: BlockSchedule,
        partition: int,
        partition_set: PartitionSet,
        params: CongosParams,
        rng: random.Random,
        gossip: ContinuousGossip,
        wakeup: int,
        telemetry=None,
    ):
        super().__init__(pid, n, service, channel)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.stage = stage
        self.schedule = schedule
        self.dline = schedule.dline
        self.partition = partition
        self.partition_set = partition_set
        self.params = params
        self.rng = rng
        self.gossip = gossip
        self.wakeup = wakeup
        self.my_group = partition_set.group_of(partition, pid)
        self.status = WAITING
        self.collaborators: Set[int] = {pid}
        self._collaborators_next: Set[int] = set()

    def catch_up(self, round_no: int) -> None:
        """Initialise block state for a service instantiated mid-block.

        Protocol instances are materialised lazily (an optimisation over
        the paper's "run every instance at all times"), so a service may
        be created after its block's activation round.  The hosting
        process has been alive the whole time; give the service the state
        it would have had if it had existed at that round.
        """
        activation = self.schedule.activation_round(self.stage, round_no)
        if round_no > activation and self.status == WAITING:
            self._activate(activation)

    def send_phase(self, round_no: int) -> List[Message]:
        stages = self.schedule.stages(round_no)
        if stages & self.stage.activate:
            self._activate(round_no)
        if stages & ITERATION_START:
            self._begin_iteration()
        messages = self._send(round_no, stages)
        if stages & self.stage.share and self.status != WAITING:
            share = self._share()
            if share is not None:
                self.gossip.inject(
                    round_no,
                    share,
                    deadline=self.schedule.gossip_deadline,
                    dest=range(self.n),
                    uid=(self.channel, "share", self.pid, round_no),
                )
        return messages

    def _activate(self, round_no: int) -> None:
        if round_no - self.wakeup < self.stage.uptime:
            self.status = WAITING
            return
        self.collaborators = set(
            self.partition_set.members(self.partition, self.my_group)
        )
        self._collaborators_next = set()
        self._begin_block(round_no)

    def _begin_iteration(self) -> None:
        if self._collaborators_next:
            self.collaborators = self._collaborators_next | {self.pid}
        self._collaborators_next = set()
