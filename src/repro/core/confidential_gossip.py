"""The ConfidentialGossip coordinator (Figures 2, 5 and 8).

This is the top of the CONGOS stack at each process.  It

* splits injected rumors and feeds the per-partition services (done by
  :class:`~repro.core.congos.CongosNode`, which owns the wiring);
* collects fragments returned by GroupDistribution and **reassembles**
  rumors as soon as all groups of some partition are present;
* keeps ``hitSetM`` per own pending rumor, on its :class:`CachedRumor`:
  an AllGossip distribution share contributes only the entries naming
  one of them, and the source **confirms** a rumor once, for some
  partition, every group's hitSet covers the destination set (Figure 8,
  lines 38-46).  Figure 8 reads no other row, so a confirmed or shot
  rumor leaves with its rows, and a delivered rumor's fragments go too;
* fires the **fallback**: when a rumor it initiated reaches its deadline
  unconfirmed, the source sends the full rumor directly to every
  destination ("shoot", Figure 8 lines 47-53) — this is what makes
  Quality of Delivery hold with probability 1 (Lemma 4);
* optionally runs the **reliable direct-send layer** (beyond the paper;
  see DESIGN.md): for rumors taking the direct route (deadline at or
  below ``direct_send_threshold``, or Theorem 16 case 1), a per-rumor
  :class:`DirectSendState` machine retransmits unacknowledged copies
  with exponential backoff and/or spreads ``k`` copies over the rounds
  before the deadline.  Destinations acknowledge received copies with
  :class:`DirectAck` control messages that carry the rumor id and the
  acker's pid only — never payload bytes — so the layer cannot widen
  the knowledge set.  All of it is inert at default parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.config import CongosParams
from repro.core.group_distribution import DistributionShare, HitEntry
from repro.core.partitions import PartitionSet
from repro.core.splitting import Fragment, merge_fragments
from repro.gossip.rumor import Rumor, RumorId
from repro.gossip.service import SubService
from repro.obs.instrument import NULL_TELEMETRY
from repro.sim.messages import Message, ServiceTags

__all__ = [
    "CachedRumor",
    "ConfidentialGossipCoordinator",
    "DeliveryRecord",
    "DirectAck",
    "DirectRumor",
    "DirectSendState",
]

DeliverCallback = Callable[[int, int, RumorId, bytes, str], None]
"""Delivery hook: ``(pid, round_no, rid, data, path)``."""


@dataclass
class CachedRumor:
    """Source-side record of an own rumor awaiting confirmation.

    ``hits`` is this rumor's part of hitSetM: per ``(partition, group)``,
    the entries of ``need`` (one ``(dst, rid)`` per destination) that an
    AllGossip share of the rumor's ``dline`` reported.  The record leaves
    the coordinator's ``rumor_cache`` once confirmed or shot.
    """

    rumor: Rumor
    dline: int
    injected_at: int
    # Degradation setting fallback_early_fraction: < 1.0 shoots
    # unconfirmed rumors before the full deadline elapses.  1.0 is the
    # paper's deadline-exact fallback (Figure 8 line 47).
    fallback_fraction: float = 1.0
    need: FrozenSet[HitEntry] = field(init=False)
    hits: Dict[Tuple[int, int], Set[HitEntry]] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.need = frozenset((dst, self.rumor.rid) for dst in self.rumor.dest)

    @property
    def fallback_round(self) -> int:
        horizon = self.rumor.deadline
        if self.fallback_fraction < 1.0:
            horizon = max(1, math.ceil(self.fallback_fraction * horizon))
        return self.injected_at + horizon


@dataclass(frozen=True)
class DirectRumor:
    """A full rumor sent point-to-point by its source.

    ``path`` distinguishes the deliberate direct-send route (short
    deadlines / Theorem-16 case 1) from the deadline fallback ("shoot"),
    so benches can report fallback rates.
    """

    rumor: Rumor
    path: str  # "direct" | "shoot"

    def reveals(self):
        return self.rumor.reveals()


@dataclass(frozen=True)
class DirectAck:
    """Acknowledgement of one received direct copy (pure control traffic).

    Deliberately carries the rumor id and the acker's pid *only* — no
    data bytes, no destination set, no ``reveals()`` — so routing an ack
    anywhere (even misdelivering it) can never leak rumor contents.  The
    confidentiality auditor enforces this shape at runtime
    (:meth:`repro.audit.confidentiality.ConfidentialityAuditor`'s
    ``ack_leak`` check).
    """

    rid: RumorId
    acker: int


@dataclass
class DirectSendState:
    """Source-side reliability state for one direct-sent rumor.

    Tracks which destinations have not acknowledged yet, the rounds at
    which the extra k-copy sends fire, and the exponential-backoff
    retransmit schedule.  Created only when ``params.hardened`` —
    default runs never build one.
    """

    rumor: Rumor
    deadline_round: int
    unacked: Set[int]
    # Rounds at which the remaining k-copy sends fire, ascending.
    copy_rounds: List[int]
    retries_left: int
    backoff: int
    next_retry: Optional[int]
    attempts: int = 1  # the initial send counts as the first attempt

    def exhausted(self) -> bool:
        """No further sends will ever fire for this rumor."""
        return not self.copy_rounds and self.next_retry is None


@dataclass(frozen=True)
class DeliveryRecord:
    """How and when a rumor was delivered locally."""

    rid: RumorId
    data: bytes
    round_no: int
    path: str  # "local" | "reassembled" | "shoot" | "direct"


class ConfidentialGossipCoordinator(SubService):
    """ConfidentialGossip service state at one process."""

    CHANNEL = "shoot"

    def __init__(
        self,
        pid: int,
        n: int,
        params: CongosParams,
        partition_set: PartitionSet,
        deliver_callback: Optional[DeliverCallback] = None,
        telemetry=None,
        rng=None,
    ):
        super().__init__(pid, n, ServiceTags.CONFIDENTIAL, self.CHANNEL)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.params = params
        self.partition_set = partition_set
        self.deliver_callback = deliver_callback
        # Dedicated stream for retransmit jitter (a fresh derive-by-label
        # stream, so consuming it never perturbs the other services' draws
        # and default runs stay bit-identical).  None = no jitter.
        self.rng = rng

        # Own rumors awaiting confirmation; confirmation or the fallback
        # removes an entry.
        self.rumor_cache: Dict[RumorId, CachedRumor] = {}
        # rid -> partition -> group -> fragment, for rids not yet delivered.
        self.fragment_store: Dict[RumorId, Dict[int, Dict[int, Fragment]]] = {}
        self.deliveries: Dict[RumorId, DeliveryRecord] = {}
        self._pending_direct: List[Rumor] = []
        self._dirty_confirmations = False
        # Reliable direct-send layer (params.hardened only).
        self._direct_states: Dict[RumorId, DirectSendState] = {}
        self._pending_acks: List[Tuple[int, RumorId]] = []

        # Run statistics.
        self.fallbacks = 0
        self.confirmations = 0
        self.reassemblies = 0
        self.direct_sends = 0
        self.direct_retries = 0
        self.direct_acks = 0

    # ------------------------------------------------------------------
    # Upstream API (called by CongosNode)
    # ------------------------------------------------------------------

    def register(self, round_no: int, rumor: Rumor, dline: int) -> None:
        """Track an own rumor going through the pipeline."""
        self.rumor_cache[rumor.rid] = CachedRumor(
            rumor=rumor,
            dline=dline,
            injected_at=round_no,
            fallback_fraction=self.params.degradation.fallback_early_fraction,
        )

    def direct_send(self, round_no: int, rumor: Rumor) -> None:
        """Queue a rumor for immediate direct delivery (short deadline or
        Theorem-16 case 1)."""
        self._pending_direct.append(rumor)
        self.direct_sends += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                "rumor_direct",
                round_no,
                pid=self.pid,
                rid=rumor.rid,
                targets=sorted(rumor.dest - {self.pid}),
            )
        if self.params.hardened:
            self._track_direct(round_no, rumor)

    def _track_direct(self, round_no: int, rumor: Rumor) -> None:
        """Open the reliability state machine for one direct-sent rumor.

        The initial copy goes out through the untouched ``_pending_direct``
        path this same round; everything scheduled here fires strictly
        later, so hardening never changes round-0 traffic.
        """
        targets = set(rumor.dest) - {self.pid}
        if not targets:
            return
        deadline_round = round_no + rumor.deadline
        degradation = self.params.degradation
        copies = degradation.direct_send_copies
        copy_rounds = sorted(
            {
                round_no + max(1, (index * rumor.deadline) // copies)
                for index in range(1, copies)
            }
        )
        copy_rounds = [r for r in copy_rounds if r <= deadline_round]
        retries = degradation.direct_send_retries
        next_retry: Optional[int] = None
        backoff = 2  # an ack to the initial copy can arrive one round later
        if retries > 0:
            candidate = round_no + backoff + self._retry_jitter()
            if candidate <= deadline_round:
                next_retry = candidate
        self._direct_states[rumor.rid] = DirectSendState(
            rumor=rumor,
            deadline_round=deadline_round,
            unacked=targets,
            copy_rounds=copy_rounds,
            retries_left=retries,
            backoff=backoff,
            next_retry=next_retry,
        )

    def _retry_jitter(self) -> int:
        """0 or 1 rounds, from the dedicated deterministic stream."""
        if self.rng is None:
            return 0
        return self.rng.randrange(2)

    def deliver_local(
        self, round_no: int, rid: RumorId, data: bytes, path: str
    ) -> None:
        """Record a delivery to this process's user (idempotent)."""
        if rid in self.deliveries:
            return
        record = DeliveryRecord(rid=rid, data=data, round_no=round_no, path=path)
        self.deliveries[rid] = record
        self.fragment_store.pop(rid, None)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("rumor.delivered", path=path).inc()
            self.telemetry.emit(
                "rumor_deliver", round_no, pid=self.pid, rid=rid, path=path
            )
        if self.deliver_callback is not None:
            self.deliver_callback(self.pid, round_no, rid, data, path)

    def on_fragment(self, round_no: int, fragment: Fragment) -> None:
        """A fragment delivered by some GroupDistribution[l]."""
        if fragment.rid in self.deliveries:
            return
        partitions = self.fragment_store.setdefault(fragment.rid, {})
        bucket = partitions.setdefault(fragment.partition, {})
        if fragment.group in bucket:
            return
        bucket[fragment.group] = fragment
        if len(bucket) == fragment.total_groups:
            data = merge_fragments([bucket[g] for g in sorted(bucket)])
            self.reassemblies += 1
            self.deliver_local(round_no, fragment.rid, data, "reassembled")

    def on_distribution_share(self, round_no: int, share: DistributionShare) -> None:
        """AllGossip record: fold the entries naming an own pending rumor
        of the share's dline into that rumor's hitSetM row, re-check
        confirmations."""
        key = (share.partition, share.group)
        for cached in self.rumor_cache.values():
            if cached.dline == share.dline:
                hits = share.hits & cached.need
                if hits:
                    cached.hits.setdefault(key, set()).update(hits)
        self._dirty_confirmations = True

    # ------------------------------------------------------------------
    # Engine phases
    # ------------------------------------------------------------------

    def send_phase(self, round_no: int) -> List[Message]:
        if self._dirty_confirmations:
            self._check_confirmations(round_no)
        messages: List[Message] = []
        for rumor in self._pending_direct:
            messages.extend(self._shoot(rumor, "direct"))
        self._pending_direct = []
        # Reliable direct-send layer: both lists are empty unless the
        # direct_send_* knobs are on, so default runs skip this entirely.
        if self._pending_acks:
            messages.extend(self._flush_acks())
        if self._direct_states:
            messages.extend(self._direct_phase(round_no))
        expired: List[RumorId] = []
        for rid, cached in self.rumor_cache.items():
            if round_no >= cached.fallback_round:
                targets = set(cached.rumor.dest)
                if self.params.fallback_scope == "unconfirmed":
                    targets -= self._covered_destinations(cached)
                messages.extend(
                    self._shoot(cached.rumor, "shoot", targets=targets)
                )
                self.fallbacks += 1
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter("rumor.fallbacks").inc()
                    self.telemetry.emit(
                        "rumor_fallback",
                        round_no,
                        pid=self.pid,
                        rid=rid,
                        targets=sorted(targets - {self.pid}),
                    )
                expired.append(rid)
        for rid in expired:
            del self.rumor_cache[rid]
        return messages

    def on_message(self, round_no: int, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, DirectAck):
            self._on_direct_ack(round_no, payload)
            return
        if isinstance(payload, Rumor):
            payload = DirectRumor(payload, "shoot")
        if not isinstance(payload, DirectRumor):
            raise TypeError(
                "unexpected coordinator payload {!r}".format(type(payload))
            )
        rumor = payload.rumor
        self.deliver_local(round_no, rumor.rid, rumor.data, payload.path)
        # Acknowledge every received direct copy (not just the first):
        # acks traverse the same lossy network, so re-acking duplicates
        # is what lets the source converge under drop.
        if (
            payload.path == "direct"
            and self.params.degradation.direct_send_ack
            and message.src != self.pid
        ):
            self._pending_acks.append((message.src, rumor.rid))

    def end_round(self, round_no: int) -> None:
        if self._dirty_confirmations:
            self._check_confirmations(round_no)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def delivered(self) -> Dict[RumorId, bytes]:
        return {rid: record.data for rid, record in self.deliveries.items()}

    def pending_rumors(self) -> List[RumorId]:
        return list(self.rumor_cache)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    # -- reliable direct-send layer ------------------------------------

    def _flush_acks(self) -> List[Message]:
        """One :class:`DirectAck` control message per queued (src, rid).

        Tagged :data:`ServiceTags.DIRECT_ACK` so message-complexity
        accounting separates ack traffic from rumor-carrying shoots; the
        channel stays ``"shoot"`` so routing reaches this coordinator.
        """
        messages = [
            Message(
                src=self.pid,
                dst=dst,
                service=ServiceTags.DIRECT_ACK,
                payload=DirectAck(rid=rid, acker=self.pid),
                size=1,
                channel=self.channel,
            )
            for dst, rid in self._pending_acks
        ]
        self._pending_acks = []
        return messages

    def _direct_phase(self, round_no: int) -> List[Message]:
        """Fire due k-copy sends and ack-timeout retransmits."""
        messages: List[Message] = []
        done: Set[RumorId] = set()
        for rid, state in self._direct_states.items():
            if round_no > state.deadline_round or not state.unacked:
                done.add(rid)
                continue
            fire = False
            while state.copy_rounds and state.copy_rounds[0] <= round_no:
                state.copy_rounds.pop(0)
                fire = True
            if state.next_retry is not None and round_no >= state.next_retry:
                fire = True
                state.retries_left -= 1
                state.backoff *= 2
                state.next_retry = None
                if state.retries_left > 0:
                    candidate = round_no + state.backoff + self._retry_jitter()
                    if candidate <= state.deadline_round:
                        state.next_retry = candidate
            if fire:
                state.attempts += 1
                self.direct_retries += 1
                messages.extend(
                    self._shoot(state.rumor, "direct", targets=set(state.unacked))
                )
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter("rumor.direct_retries").inc()
                    self.telemetry.emit(
                        "rumor_direct_retry",
                        round_no,
                        pid=self.pid,
                        rid=rid,
                        targets=sorted(state.unacked),
                        attempt=state.attempts,
                    )
            if state.exhausted():
                done.add(rid)
        for rid in done:
            del self._direct_states[rid]
        return messages

    def _on_direct_ack(self, round_no: int, ack: DirectAck) -> None:
        self.direct_acks += 1
        state = self._direct_states.get(ack.rid)
        if state is not None:
            state.unacked.discard(ack.acker)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("rumor.direct_acks").inc()
            self.telemetry.emit(
                "rumor_direct_ack",
                round_no,
                pid=self.pid,
                rid=ack.rid,
                acker=ack.acker,
            )

    def _shoot(
        self,
        rumor: Rumor,
        path: str,
        targets: Optional[Set[int]] = None,
    ) -> List[Message]:
        """Send the full rumor straight to (a subset of) its destinations."""
        messages = []
        payload = DirectRumor(rumor, path)
        recipients = rumor.dest if targets is None else targets
        for dst in sorted(recipients):
            if dst == self.pid:
                continue
            messages.append(self.make_message(dst, payload, size=1))
        return messages

    def _covers(self, cached: CachedRumor) -> Iterator[FrozenSet[HitEntry]]:
        """Per partition, the entries of ``cached.need`` in the hitSet of
        *every* group (Figure 8 lines 41-46)."""
        groups = range(self.partition_set.num_groups)
        for partition in range(self.partition_set.count):
            yield cached.need.intersection(
                *(cached.hits.get((partition, group), ()) for group in groups)
            )

    def _covered_destinations(self, cached: CachedRumor) -> Set[int]:
        """Destinations already hit with every group's fragment in some
        partition (they have reassembled the rumor — [GD:CONFIRM] holds
        per destination, so skipping them in the fallback is safe)."""
        return {dst for cover in self._covers(cached) for dst, _ in cover}

    def _check_confirmations(self, round_no: int) -> None:
        self._dirty_confirmations = False
        confirmed = [
            rid for rid, cached in self.rumor_cache.items() if self._covered(cached)
        ]
        for rid in confirmed:
            del self.rumor_cache[rid]
            self.confirmations += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("rumor.confirmations").inc()
                self.telemetry.emit("rumor_confirm", round_no, pid=self.pid, rid=rid)

    def _covered(self, cached: CachedRumor) -> bool:
        """Some partition covers the whole destination set."""
        return any(cover == cached.need for cover in self._covers(cached))
