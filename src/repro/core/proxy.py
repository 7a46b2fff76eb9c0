"""The Proxy service (Figures 3, 6 and 9).

A process in group ``b`` of partition ``l`` may not gossip directly with
the other groups — it would risk learning their fragments.  Instead it
*samples* processes of each other group as proxies: it hands them the
fragment destined for their group, they cache it, gossip it inside their
own group (via GroupGossip[l]), and acknowledge.  Requesters that receive
no acknowledgment blacklist the sampled proxies (``failed-proxies``) and
retry next iteration; same-group requesters collaborate by sharing the
blacklist and a collaborator census through GroupGossip[l], which divides
the fanout budget among them.

Timing (the stage rounds of :class:`repro.sim.clock.BlockSchedule`):

* ``ACTIVATE_PROXY`` (block start) — if alive for a full block, collect
  waiting fragments; ``status = active`` iff there is something to push;
* ``PROXY_REQUEST`` (iteration position 0) — requesters send requests;
* ``PROXY_SHARE`` (position 1) — inject the GroupGossip share (proxy
  buffer + failed-proxies + collaborator heartbeat); it spreads over the
  ``isqrt(dline)``-round gossip window;
* ``PROXY_ACK`` (the iteration's last round) — proxies acknowledge;
  requesters blacklist non-acknowledging targets;
* ``HAND_UP`` (the block's last round) — hand all fragments received for
  *this* group (the ``partial-rumors``) up to the coordinator, which
  feeds GroupDistribution for the next block.

Key invariant ([PROXY:CONFIDENTIAL], used by Lemma 3): a request to a
member of group ``a`` only ever carries fragments whose ``group == a``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.block_service import ACTIVE, WAITING, BlockService
from repro.core.config import CongosParams
from repro.core.partitions import PartitionSet
from repro.core.splitting import Fragment
from repro.gossip.continuous import ContinuousGossip
from repro.sim.clock import HAND_UP, PROXY_ACK, PROXY_REQUEST, BlockSchedule
from repro.sim.messages import KnowledgeAtom, Message, ServiceTags

__all__ = ["ProxyRequest", "ProxyAck", "ProxyShare", "ProxyService"]

IDLE = "idle"  # Figure 9's {idle, active}; BlockService adds WAITING


@dataclass(frozen=True)
class ProxyRequest:
    """Fragments handed to a sampled proxy of another group."""

    sender: int
    fragments: Tuple[Fragment, ...]

    def reveals(self) -> Iterator[KnowledgeAtom]:
        for fragment in self.fragments:
            for atom in fragment.reveals():
                yield atom


@dataclass(frozen=True)
class ProxyAck:
    """Acknowledgment that proxying succeeded.  Carries no rumor data."""

    sender: int


@dataclass(frozen=True)
class ProxyShare:
    """The per-iteration GroupGossip share of the Proxy service.

    ``fragments`` are the sender's proxy-buffer contents (fragments *for
    this group*, received from other-group requesters); ``failed_proxies``
    is the shared blacklist; ``collaborator`` marks the sender as an
    active requester for the census.
    """

    sender: int
    fragments: Tuple[Fragment, ...]
    failed_proxies: FrozenSet[int]
    collaborator: bool

    def reveals(self) -> Iterator[KnowledgeAtom]:
        for fragment in self.fragments:
            for atom in fragment.reveals():
                yield atom


class ProxyService(BlockService):
    """Proxy[l] at one process, for one deadline class."""

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
        on_group_fragments: Callable[[int, List[Fragment]], None],
        wakeup: int,
        telemetry=None,
    ):
        super().__init__(
            pid, n, ServiceTags.PROXY, channel, schedule.proxy, schedule,
            partition, partition_set, params, rng, gossip, wakeup, telemetry,
        )
        self.on_group_fragments = on_group_fragments
        self.other_groups = [
            g for g in range(partition_set.num_groups) if g != self.my_group
        ]
        self._retransmits = params.degradation.proxy_retransmit

        self.waiting: List[Tuple[int, Fragment]] = []  # (arrival round, fragment)
        self.my_fragments: Dict[int, List[Fragment]] = {}  # group -> fragments
        self.proxy_buffer: Dict[Tuple, Fragment] = {}
        self._buffer_new: List[Fragment] = []
        self.partial_rumors: Dict[Tuple, Fragment] = {}
        self.failed_proxies: Set[int] = set()
        self.ack_pending: Set[int] = set()
        self.acked_groups: Set[int] = set()
        self._targets_this_iteration: Dict[int, Set[int]] = {}
        self._acks_this_iteration: Set[int] = set()

        # Run statistics (read by tests and benches).
        self.requests_sent = 0
        self.acks_sent = 0
        self.retransmits_sent = 0

    # ------------------------------------------------------------------
    # Upstream API
    # ------------------------------------------------------------------

    def distribute(self, round_no: int, fragments: Iterable[Fragment]) -> None:
        """Queue fragments for other groups; picked up at the next block.

        The arrival round is recorded so that a fragment injected exactly
        at a block-start round is *not* collected by that same block (the
        paper collects "fragments injected since the last block began").
        """
        for fragment in fragments:
            if fragment.group == self.my_group:
                raise ValueError(
                    "fragment for own group {} must go through GroupGossip, "
                    "not the Proxy".format(self.my_group)
                )
            self.waiting.append((round_no, fragment))

    def on_share(self, round_no: int, share: ProxyShare) -> None:
        """A ProxyShare delivered by GroupGossip[l] (same group only)."""
        self.failed_proxies.update(share.failed_proxies)
        if share.collaborator:
            self._collaborators_next.add(share.sender)
        for fragment in share.fragments:
            if fragment.group != self.my_group:
                continue
            if not fragment.expired(round_no):
                self.partial_rumors.setdefault(fragment.uid, fragment)

    # ------------------------------------------------------------------
    # Engine phases
    # ------------------------------------------------------------------

    def _send(self, round_no: int, stages: int) -> List[Message]:
        messages: List[Message] = []
        if stages & PROXY_REQUEST:
            if self.status == ACTIVE:
                messages.extend(self._send_requests(round_no))
        elif (
            self.params.hardened
            and self.status == ACTIVE
            and 0 < self.schedule.proxy_retransmit(round_no) <= self._retransmits
        ):
            # Graceful degradation (hardened only): re-request at
            # exponentially spaced positions, sampling proxies not yet
            # tried this iteration.  Acks only arrive at the iteration's
            # last round, so every pending group is still unacknowledged.
            messages.extend(self._send_requests(round_no, retransmit=True))
        if stages & PROXY_ACK and self.status != WAITING and self.ack_pending:
            for requester in sorted(self.ack_pending):
                messages.append(self.make_message(requester, ProxyAck(self.pid)))
                self.acks_sent += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "proxy.acks", partition=str(self.partition)
                ).inc(len(self.ack_pending))
            self.ack_pending.clear()
        return messages

    def on_message(self, round_no: int, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ProxyRequest):
            if self.status == WAITING:
                return  # restarted mid-block: no proxying until next block
            for fragment in payload.fragments:
                if fragment.group != self.my_group:
                    raise AssertionError(
                        "[PROXY:CONFIDENTIAL] violated: received fragment for "
                        "group {} in group {}".format(fragment.group, self.my_group)
                    )
                if fragment.expired(round_no):
                    continue
                if fragment.uid not in self.proxy_buffer:
                    self.proxy_buffer[fragment.uid] = fragment
                    self._buffer_new.append(fragment)
                    if self.telemetry.enabled:
                        self.telemetry.emit(
                            "proxy_crossing",
                            round_no,
                            pid=self.pid,
                            partition=self.partition,
                            group=self.my_group,
                            sender=payload.sender,
                            rids=[fragment.rid],
                        )
            self.ack_pending.add(payload.sender)
        elif isinstance(payload, ProxyAck):
            self._acks_this_iteration.add(payload.sender)
        else:
            raise TypeError("unexpected proxy payload {!r}".format(type(payload)))

    def end_round(self, round_no: int) -> None:
        stages = self.schedule.stages(round_no)
        if stages & PROXY_ACK:
            self._settle_iteration()
        if stages & HAND_UP and self.status != WAITING:
            fragments = [
                fragment
                for fragment in self.partial_rumors.values()
                if not fragment.expired(round_no)
            ]
            if fragments:
                self.on_group_fragments(round_no, fragments)
            self.partial_rumors.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _begin_block(self, round_no: int) -> None:
        fresh = [
            fragment
            for arrival, fragment in self.waiting
            if arrival < round_no and not fragment.expired(round_no)
        ]
        self.waiting = [
            (arrival, fragment)
            for arrival, fragment in self.waiting
            if arrival >= round_no and not fragment.expired(round_no)
        ]
        self.my_fragments = {}
        for fragment in fresh:
            self.my_fragments.setdefault(fragment.group, []).append(fragment)
        self.status = ACTIVE if self.my_fragments else IDLE
        self.failed_proxies = set()
        self.proxy_buffer = {}
        self._buffer_new = []
        self.ack_pending = set()
        self.acked_groups = set()

    def _begin_iteration(self) -> None:
        super()._begin_iteration()
        self._targets_this_iteration = {}
        self._acks_this_iteration = set()

    def _send_requests(
        self, round_no: int, retransmit: bool = False
    ) -> List[Message]:
        messages: List[Message] = []
        fanout = self.params.service_fanout(
            self.n, self.dline, len(self.collaborators)
        )
        for group in self.other_groups:
            if group in self.acked_groups:
                continue
            fragments = tuple(
                f
                for f in self.my_fragments.get(group, [])
                if not f.expired(round_no)
            )
            if not fragments:
                continue
            tried = self._targets_this_iteration.get(group, set())
            excluded = self.failed_proxies | (tried if retransmit else set())
            pool = sorted(
                self.partition_set.members(self.partition, group) - excluded
            )
            if not pool:
                # Everyone blacklisted: desperation reset (the blacklist is
                # heuristic; retrying beats deadlock).
                pool = sorted(self.partition_set.members(self.partition, group))
            count = min(fanout, len(pool))
            targets = pool if count == len(pool) else self.rng.sample(pool, count)
            self._targets_this_iteration.setdefault(group, set()).update(targets)
            request = ProxyRequest(self.pid, fragments)
            for target in targets:
                messages.append(
                    self.make_message(target, request, size=len(fragments))
                )
                self.requests_sent += 1
                if retransmit:
                    self.retransmits_sent += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "proxy.requests", partition=str(self.partition)
                ).inc(len(targets))
                extra = {"retransmit": True} if retransmit else {}
                self.telemetry.emit(
                    "proxy_request",
                    round_no,
                    pid=self.pid,
                    partition=self.partition,
                    dline=self.dline,
                    group=group,
                    targets=sorted(targets),
                    rids=sorted({f.rid for f in fragments}, key=str),
                    fragments=len(fragments),
                    **extra
                )
        return messages

    def _share(self) -> Optional[ProxyShare]:
        is_collaborator = self.status == ACTIVE
        new_fragments = tuple(self._buffer_new)
        self._buffer_new = []
        if not is_collaborator and not new_fragments and not self.failed_proxies:
            return None  # nothing to contribute this iteration
        return ProxyShare(
            sender=self.pid,
            fragments=new_fragments,
            failed_proxies=frozenset(self.failed_proxies),
            collaborator=is_collaborator,
        )

    def _settle_iteration(self) -> None:
        # The iteration's targets and acks are reset when the next starts.
        if self.status != ACTIVE:
            return
        for group, targets in self._targets_this_iteration.items():
            acked_from_group = {
                pid for pid in self._acks_this_iteration if pid in targets
            }
            if acked_from_group:
                self.acked_groups.add(group)
            self.failed_proxies.update(targets - self._acks_this_iteration)
        pending = [
            g
            for g in self.other_groups
            if self.my_fragments.get(g) and g not in self.acked_groups
        ]
        if self.my_fragments and not pending:
            self.status = IDLE
