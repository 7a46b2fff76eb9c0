"""The continuous-gossip service (the paper's black box, Section 4.2).

CONGOS consumes a *Continuous Gossip* service [13] purely through its
interface:

* ``inject(payload, deadline, dest)`` — any process, any round;
* every *admissible* item (origin alive throughout, recipient alive
  throughout) is delivered to its destinations by the deadline;
* per-round message complexity is bounded.

This implementation uses randomized epidemic push (or a deterministic
expander schedule) with per-target batching of all active items.  Delivery
is w.h.p. by default; with ``reliable=True`` the origin additionally
flushes the item directly to its destination scope in the expiry round,
upgrading admissible delivery to probability 1 — at the cost of a message
burst, which is why CONGOS instead relies on its own top-level fallback for
the probability-1 guarantee (see DESIGN.md Section 2).

Every send passes through a :class:`~repro.gossip.filter.GroupFilter`:
a filtered instance (GroupGossip[l]) physically cannot address a process
outside its group.
"""

from __future__ import annotations

import math
import random
from itertools import chain, repeat
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.gossip.epidemic import default_fanout
from repro.gossip.expander import ShiftExpander
from repro.gossip.filter import GroupFilter
from repro.gossip.rumor import GossipItem, ItemBatch
from repro.gossip.service import SubService
from repro.obs.instrument import NULL_TELEMETRY
from repro.sim.messages import Message, ServiceTags

__all__ = ["ContinuousGossip"]

DeliverCallback = Callable[[int, GossipItem], None]


# Sentinel for "no item": larger than any real round number.
_NEVER = 2 ** 63


class ContinuousGossip(SubService):
    """One continuous-gossip instance at one process.

    Parameters
    ----------
    scope:
        The set of pids this instance may talk to (its group); enforced by
        an internal :class:`GroupFilter`.
    deliver:
        Callback ``(round_no, item)`` fired once per item delivered to this
        process (i.e. this pid is in the item's destination set).
    fanout_scale:
        Multiplier on ``log2(|scope|)`` for the per-round push fanout.
    schedule:
        ``"random"`` (epidemic push) or ``"expander"`` (deterministic
        circulant schedule, the derandomized option in the spirit of [13]).
    reliable:
        If True, the origin direct-sends each of its items to the item's
        in-scope destinations in the expiry round (probability-1 delivery
        for admissible items).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        channel: str,
        scope: Iterable[int],
        rng: random.Random,
        deliver: Optional[DeliverCallback] = None,
        service: str = ServiceTags.GROUP_GOSSIP,
        fanout_scale: float = 2.0,
        schedule: str = "random",
        reliable: bool = False,
        resend_horizon: Optional[int] = None,
        resend_backoff: bool = False,
        telemetry=None,
    ):
        super().__init__(pid, n, service, channel)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.filter = GroupFilter(scope)
        if pid not in self.filter.scope:
            raise ValueError(
                "process {} is not in the scope of channel {!r}".format(pid, channel)
            )
        self.rng = rng
        self.deliver = deliver
        self.fanout_scale = fanout_scale
        self.reliable = reliable
        if schedule not in ("random", "expander"):
            raise ValueError("unknown schedule {!r}".format(schedule))
        self.schedule = schedule
        self._expander: Optional[ShiftExpander] = None
        if schedule == "expander":
            degree = default_fanout(len(self.filter.scope), fanout_scale)
            self._expander = ShiftExpander(self.filter.scope, degree)

        self._active: Dict[Tuple, GossipItem] = {}
        # The subset of _active still within the resend horizon, in the
        # same insertion order.  A round's batch is this dict as it stands:
        # its values are the payload and frozenset(dict) — a C copy that
        # reuses the stored hashes — is the payload's uid set.  Items leave
        # exactly once (on aging out or expiry).
        self._broadcast: Dict[Tuple, GossipItem] = {}
        # That batch, kept while _broadcast does not change: between two
        # waves of new items a saturated process resends the very same
        # object round after round (every batch built is three containers
        # the cyclic GC has to walk).
        self._standing: Optional[ItemBatch] = None
        # Lower bound on the oldest ``born`` in _broadcast: the aging-out
        # scan runs only in rounds where it can find something.
        self._min_born: int = _NEVER
        # id(item) -> arrival index, for every active item.  Needed only to
        # put a woken item (see _wake) back between its neighbours; keyed
        # by identity so that merge never hashes a uid.  _active pins the
        # items, so an id cannot be reused while its entry lives.
        self._arrival: Dict[int, int] = {}
        self._arrivals = 0
        # resend_backoff only: round -> aged-out items to send again then.
        self._wake: Dict[int, List[GossipItem]] = {}
        self._seen: set = set()
        self._pending_delivery: List[GossipItem] = []
        self._inject_seq = 0
        # Earliest expiry among active items; lets _expire() skip the sweep
        # in rounds where nothing can have expired (the common case).
        self._min_expiry: int = _NEVER
        # Target-selection caches (the scope is immutable).
        self._peers: List[int] = sorted(self.filter.scope - {pid})
        self._fanout: int = default_fanout(len(self.filter.scope), fanout_scale)
        # How long an item keeps being re-broadcast.  Epidemic push
        # saturates the scope in O(log |scope|) rounds w.h.p.; re-sending
        # beyond ~2x that only inflates message sizes.  None = auto.
        if resend_horizon is None:
            resend_horizon = max(
                8, 2 * math.ceil(math.log2(max(2, len(self.filter.scope)))) + 4
            )
        self.resend_horizon = resend_horizon
        # Degradation knob: items past the horizon are normally silent;
        # with backoff they are rebroadcast at exponentially spaced ages
        # (horizon+1, +2, +4, ...) until expiry, so a lossy network gets
        # bounded extra chances instead of none.
        self.resend_backoff = resend_backoff

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject(
        self,
        round_no: int,
        payload: object,
        deadline: int,
        dest: Iterable[int],
        uid: Optional[Tuple] = None,
    ) -> GossipItem:
        """Start gossiping ``payload`` to ``dest`` with the given deadline.

        The destination set is intersected with the scope (processes the
        filter would block are "effectively failed" for this instance).
        The injecting process, if in the destination set, is delivered the
        payload immediately.
        """
        if deadline < 1:
            raise ValueError("gossip deadline must be >= 1 round")
        if uid is None:
            uid = (self.channel, self.pid, round_no, self._inject_seq)
            self._inject_seq += 1
        if uid in self._seen:
            raise ValueError("duplicate gossip uid {!r}".format(uid))
        item = GossipItem(
            uid=uid,
            origin=self.pid,
            payload=payload,
            expiry=round_no + deadline,
            dest=self.filter.restrict(dest),
            born=round_no,
        )
        self._seen.add(uid)
        self._activate(item)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "gossip.injected", service=self.service
            ).inc()
            rid = getattr(payload, "rid", None)
            if rid is not None:
                # Only Fragments carry a rid; share payloads are counted
                # above but not traced (they dominate event volume).
                self.telemetry.emit(
                    "gossip_inject",
                    round_no,
                    pid=self.pid,
                    channel=self.channel,
                    service=self.service,
                    rid=rid,
                    expiry=item.expiry,
                )
        if self.pid in item.dest and self.deliver is not None:
            self.deliver(round_no, item)
        return item

    # ------------------------------------------------------------------
    # Engine phases
    # ------------------------------------------------------------------

    def send_phase(self, round_no: int) -> List[Message]:
        self._expire(round_no)
        if not self._active:
            return []
        batch = self._batch(round_no)
        messages: List[Message] = []
        targets: List[int] = []
        if batch:
            # The whole fan-out — one batch object to every target — in
            # one C pass.
            targets = self._choose_targets(round_no)
            messages = list(
                map(
                    Message,
                    repeat(self.pid),
                    targets,
                    repeat(self.service),
                    repeat(batch),
                    repeat(len(batch)),
                    repeat(self.channel),
                )
            )
        if self.reliable:
            flushes = self._flush_expiring(round_no, set(targets))
            if flushes:
                return self.filter.apply(messages + flushes)
        if self.filter.scope.issuperset(targets):
            return messages
        return self.filter.apply(messages)

    def on_message(self, round_no: int, message: Message) -> None:
        batch = message.payload
        if type(batch) is not ItemBatch:
            if not isinstance(batch, tuple):
                raise TypeError(
                    "gossip channel {!r} received non-batch payload".format(
                        self.channel
                    )
                )
            # A plain tuple (the reliable-mode expiry flush, a test): same
            # path, deriving its own uids.
            batch = ItemBatch(batch)
        # Batches are dominated by already-seen items once the epidemic
        # saturates: rule the whole batch out, or find what is new in it,
        # with set algebra on stored hashes.  ``fresh`` is a set, so its
        # order is hash-seed dependent; select() restores batch order.
        seen = self._seen
        uids = batch.uids
        if uids <= seen:
            return
        fresh = uids - seen
        seen |= fresh
        pid = self.pid
        for item in batch.select(fresh):
            if round_no > item.expiry:
                continue
            self._activate(item)
            if pid in item.dest:
                self._pending_delivery.append(item)

    def end_round(self, round_no: int) -> None:
        pending, self._pending_delivery = self._pending_delivery, []
        if self.deliver is None:
            return
        for item in pending:
            self.deliver(round_no, item)

    # ------------------------------------------------------------------
    # Queries (tests, audits)
    # ------------------------------------------------------------------

    def active_items(self) -> List[GossipItem]:
        return list(self._active.values())

    def has_active(self) -> bool:
        return bool(self._active)

    def knows(self, uid: Tuple) -> bool:
        return uid in self._seen

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _choose_targets(self, round_no: int) -> List[int]:
        if not self._peers or self._fanout <= 0:
            return []
        if self._expander is not None:
            return self._expander.targets(self.pid, round_no)[: self._fanout]
        if len(self._peers) <= self._fanout:
            return self._peers
        return self.rng.sample(self._peers, self._fanout)

    def _flush_expiring(self, round_no: int, already: set) -> List[Message]:
        flushes: List[Message] = []
        for item in self._active.values():
            if item.origin != self.pid or item.expiry != round_no:
                continue
            batch = (item,)
            for dst in sorted(item.dest):
                if dst == self.pid or dst in already:
                    continue
                flushes.append(self.make_message(dst, batch, size=1))
        return flushes

    def _activate(self, item: GossipItem) -> None:
        """Start (re)broadcasting an item whose uid was just marked seen."""
        uid = item.uid
        self._active[uid] = item
        self._broadcast[uid] = item
        self._standing = None
        self._arrival[id(item)] = self._arrivals
        self._arrivals += 1
        if item.born < self._min_born:
            self._min_born = item.born
        if item.expiry < self._min_expiry:
            self._min_expiry = item.expiry

    def _batch(self, round_no: int) -> ItemBatch:
        """This round's payload, in arrival order: every active item within
        the resend horizon plus, under ``resend_backoff``, the aged-out
        items whose wake-up falls on this round."""
        if self._min_born < round_no - self.resend_horizon:
            self._age_out(round_no)
        batch = self._standing
        if batch is None:
            broadcast = self._broadcast
            batch = self._standing = ItemBatch(
                broadcast.values(), frozenset(broadcast)
            )
        due = self._wake_due(round_no) if self._wake else ()
        if not due:
            return batch
        arrival = self._arrival
        return ItemBatch(
            sorted(chain(batch, due), key=lambda item: arrival[id(item)]),
            batch.uids.union(item.uid for item in due),
        )

    def _age_out(self, round_no: int) -> None:
        """Drop items past the resend horizon from the broadcast set."""
        broadcast = self._broadcast
        cutoff = round_no - self.resend_horizon
        stale = [uid for uid, item in broadcast.items() if item.born < cutoff]
        if stale:
            self._standing = None
        for uid in stale:
            item = broadcast.pop(uid)
            if self.resend_backoff:
                self._sleep(item, round_no)
        self._min_born = min(
            (item.born for item in broadcast.values()), default=_NEVER
        )

    def _sleep(self, item: GossipItem, not_before: int) -> None:
        """Schedule an aged-out item's next backoff send: the first round
        >= ``not_before`` whose age past the horizon is a power of two
        (horizon+1, +2, +4, ...).  Past its expiry the item just stays
        silent."""
        base = item.born + self.resend_horizon
        offset = max(1, not_before - base)
        wake = base + (1 << (offset - 1).bit_length())
        if wake <= item.expiry:
            self._wake.setdefault(wake, []).append(item)

    def _wake_due(self, round_no: int) -> List[GossipItem]:
        """Pop the items due this round and schedule their next wake-up."""
        wake = self._wake
        for missed in [r for r in wake if r < round_no]:
            # send_phase was not called that round; no catching up.
            for item in wake.pop(missed):
                self._sleep(item, round_no)
        due = wake.pop(round_no, [])
        for item in due:
            self._sleep(item, round_no + 1)
        return due

    def _expire(self, round_no: int) -> None:
        if round_no <= self._min_expiry:
            return  # nothing can have expired yet
        active = self._active
        broadcast = self._broadcast
        dead = [uid for uid, item in active.items() if item.expiry < round_no]
        for uid in dead:
            del self._arrival[id(active.pop(uid))]
            if broadcast.pop(uid, None) is not None:
                self._standing = None
        self._min_expiry = min(
            (item.expiry for item in active.values()), default=_NEVER
        )
