"""The GroupDistribution service (Figures 4, 7 and 10).

Once the fragments of a rumor have reached their groups (fragment ``g`` to
every live member of group ``g``, via GroupGossip within the group and the
Proxy across groups), each group collaborates to deliver its fragment to
the rumor's *destination set*.  Destinations thereby collect all
``tau + 1`` fragments of some partition and reassemble the rumor.

Key properties (Section 4.5):

* **[GD:CONFIDENTIAL]** — a fragment is only ever sent to members of its
  rumor's destination set (enforced here by construction).
* **[GD:CONFIRM]** — the sanitized ``hitSet`` (pairs ``(destination,
  rumor-id)``, no fragment contents) is gossiped through AllGossip only
  after the corresponding sends happened, so a source that sees its whole
  destination set covered in *every* group of some partition knows the
  rumor was delivered.

Target selection: DESIGN.md documents the reconciliation — by default we
sample from the not-yet-hit *destinations* of our fragments (both groups),
which makes the confirmation predicate satisfiable; setting
``params.gd_target_pool = "group"`` reproduces the paper's literal rule
(uniform over the opposite group, messages possibly empty).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.block_service import ACTIVE, WAITING, BlockService
from repro.core.config import CongosParams
from repro.core.partitions import PartitionSet
from repro.core.splitting import Fragment
from repro.gossip.continuous import ContinuousGossip
from repro.gossip.rumor import RumorId
from repro.sim.clock import GD_SEND, HAND_UP, BlockSchedule
from repro.sim.messages import KnowledgeAtom, Message, ServiceTags

__all__ = ["FragmentDelivery", "GDShare", "DistributionShare", "GroupDistributionService"]

HitEntry = Tuple[int, RumorId]  # (destination pid, rumor id)


@dataclass(frozen=True)
class FragmentDelivery:
    """Fragments sent to a destination-set member."""

    sender: int
    fragments: Tuple[Fragment, ...]

    def reveals(self) -> Iterator[KnowledgeAtom]:
        for fragment in self.fragments:
            for atom in fragment.reveals():
                yield atom


@dataclass(frozen=True)
class GDShare:
    """Per-iteration GroupGossip share: sanitized hitSet + census beacon."""

    sender: int
    hits: FrozenSet[HitEntry]
    # No reveals(): hit entries carry no rumor contents.


@dataclass(frozen=True)
class DistributionShare:
    """End-of-block AllGossip record (Figure 10 line 36).

    "fragment ``group`` for partition ``partition`` of the rumor
    associated with identifier ``rid`` was sent to ``dst``" — for every
    ``(dst, rid)`` in ``hits``.  Sources assemble these into their
    ``hitSetM`` matrix and confirm delivery (Figure 8 lines 38-46).
    """

    sender: int
    dline: int
    partition: int
    group: int
    hits: FrozenSet[HitEntry]
    # No reveals(): sanitized by construction.


class GroupDistributionService(BlockService):
    """GroupDistribution[l] at one process, for one deadline class."""

    def __init__(
        self,
        pid: int,
        n: int,
        channel: str,
        schedule: BlockSchedule,
        partition: int,
        partition_set: PartitionSet,
        params: CongosParams,
        rng: random.Random,
        gossip: ContinuousGossip,
        all_gossip: ContinuousGossip,
        on_fragments: Callable[[int, List[Fragment]], None],
        wakeup: int,
        telemetry=None,
    ):
        super().__init__(
            pid, n, ServiceTags.GROUP_DISTRIBUTION, channel, schedule.gd,
            schedule, partition, partition_set, params, rng, gossip, wakeup,
            telemetry,
        )
        self.all_gossip = all_gossip
        self.on_fragments = on_fragments

        self.waiting: Dict[Tuple, Fragment] = {}
        self.partials: Dict[Tuple, Fragment] = {}
        self.hit_set: Set[HitEntry] = set()
        # Degradation bookkeeping: sends per (dst, rid) this block.  An
        # entry joins hit_set after ``gd_redundancy`` sends (read once
        # here: the check runs per send); unhardened, that is 1 — the
        # paper's optimistic first-send rule.
        self._send_counts: Dict[HitEntry, int] = {}
        self._redundancy = params.degradation.gd_redundancy

        # Run statistics.
        self.fragments_sent = 0
        self.shares_published = 0

    # ------------------------------------------------------------------
    # Upstream API
    # ------------------------------------------------------------------

    def add_waiting(self, round_no: int, fragment: Fragment) -> None:
        """Queue a fragment of *this* group for next-block distribution."""
        if fragment.group != self.my_group:
            raise ValueError(
                "GroupDistribution[{}] of group {} given fragment of group "
                "{}".format(self.partition, self.my_group, fragment.group)
            )
        if not fragment.expired(round_no):
            self.waiting.setdefault(fragment.uid, fragment)

    def on_share(self, round_no: int, share: GDShare) -> None:
        """A GDShare delivered by GroupGossip[l] (same group only)."""
        self._collaborators_next.add(share.sender)
        self.hit_set.update(share.hits)

    # ------------------------------------------------------------------
    # Engine phases
    # ------------------------------------------------------------------

    def _send(self, round_no: int, stages: int) -> List[Message]:
        if stages & GD_SEND and self.status == ACTIVE:
            return self._send_fragments(round_no)
        return []

    def on_message(self, round_no: int, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, FragmentDelivery):
            raise TypeError("unexpected GD payload {!r}".format(type(payload)))
        fragments = [
            fragment
            for fragment in payload.fragments
            if not fragment.expired(round_no)
        ]
        if fragments:
            self.on_fragments(round_no, fragments)

    def end_round(self, round_no: int) -> None:
        if self.schedule.stages(round_no) & HAND_UP:
            self._publish_distribution(round_no)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _begin_block(self, round_no: int) -> None:
        # Active regardless of having fragments — GD's census counts every
        # uptime-qualified group member (Section 4.5).
        self.status = ACTIVE
        self.partials = {
            uid: fragment
            for uid, fragment in self.waiting.items()
            if not fragment.expired(round_no)
        }
        self.waiting = {}
        self.hit_set = set()
        self._send_counts = {}
        # Local destinations: if this process is itself a destination of a
        # fragment it holds, deliver immediately and record the hit.
        local = [
            fragment
            for fragment in self.partials.values()
            if self.pid in fragment.dest
        ]
        if local:
            self.on_fragments(round_no, local)
            for fragment in local:
                self.hit_set.add((self.pid, fragment.rid))

    def _send_fragments(self, round_no: int) -> List[Message]:
        partials = [f for f in self.partials.values() if not f.expired(round_no)]
        if not partials:
            return []
        hit_procs = {dst for dst, _ in self.hit_set}
        fanout = self.params.service_fanout(
            self.n, self.dline, len(self.collaborators)
        )
        if self.params.gd_target_pool == "group":
            pool = sorted(
                set().union(
                    *(
                        self.partition_set.members(self.partition, g)
                        for g in range(self.partition_set.num_groups)
                        if g != self.my_group
                    )
                )
                - hit_procs
            )
        else:
            remaining: Set[int] = set()
            for fragment in partials:
                for dst in fragment.dest:
                    if dst != self.pid and (dst, fragment.rid) not in self.hit_set:
                        remaining.add(dst)
            pool = sorted(remaining)
        if not pool:
            return []
        count = min(fanout, len(pool))
        targets = pool if count == len(pool) else self.rng.sample(pool, count)
        messages: List[Message] = []
        for target in targets:
            appropriate = tuple(
                fragment
                for fragment in partials
                if target in fragment.dest
                and (target, fragment.rid) not in self.hit_set
            )
            if not appropriate and self.params.gd_target_pool != "group":
                continue
            for fragment in appropriate:
                entry = (target, fragment.rid)
                sends = self._send_counts.get(entry, 0) + 1
                self._send_counts[entry] = sends
                if sends >= self._redundancy:
                    self.hit_set.add(entry)
            messages.append(
                self.make_message(
                    target,
                    FragmentDelivery(self.pid, appropriate),
                    size=max(1, len(appropriate)),
                )
            )
            self.fragments_sent += len(appropriate)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "gd.fragments_sent", partition=str(self.partition)
                ).inc(len(appropriate))
                self.telemetry.emit(
                    "gd_send",
                    round_no,
                    pid=self.pid,
                    partition=self.partition,
                    group=self.my_group,
                    target=target,
                    rids=sorted({f.rid for f in appropriate}, key=str),
                )
        return messages

    def _share(self) -> Optional[GDShare]:
        if not self.partials and not self.hit_set:
            # Nothing to distribute and nothing to report.  The census only
            # matters to processes that are sending (to divide their fanout),
            # and every live group member holds the same partials — so when
            # this process has none, no group member is sending either.
            return None
        return GDShare(sender=self.pid, hits=frozenset(self.hit_set))

    def _publish_distribution(self, round_no: int) -> None:
        if self.status != ACTIVE or not self.hit_set:
            return
        record = DistributionShare(
            sender=self.pid,
            dline=self.dline,
            partition=self.partition,
            group=self.my_group,
            hits=frozenset(self.hit_set),
        )
        self.all_gossip.inject(
            round_no,
            record,
            deadline=self.schedule.allgossip_deadline,
            dest=range(self.n),
            uid=(self.channel, "dist", self.pid, round_no),
        )
        self.shares_published += 1
