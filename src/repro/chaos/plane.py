"""The chaos fault plane.

:class:`repro.sim.network.Network` calls an installed plane while routing
a round's traffic; with none installed (``None``, the paper's reliable
network) the network skips the chaos branches entirely, so default runs
stay bit-identical to the seed.

:class:`ChaosFaultPlane` implements the extended fault model: per-message
drop / bounded delay / duplication, per-inbox reordering, and scheduled
partition storms, every decision drawn from a
:class:`~repro.chaos.schedule.FaultSchedule`, keyed on each message's own
coordinates so any shard layout reaches the same verdicts.  The plane
composes with the CRRI adversary rather than replacing it: adversarial
drops at crash/restart boundaries and crash-loss are applied by the
network *before* a message reaches the plane, so chaos only ever touches
traffic the paper's model would have delivered.

Each injected fault is recorded once: as a count by (kind, pipeline
stage), which every payload and digest reads, and — when telemetry is on
— as one ``fault_<kind>`` event carrying src, dst, service, detail and
rids (plus policy and budget_spent for targeted faults), which every
trace and timeline reads.

Semantics worth pinning down (tests rely on these):

* Delayed and duplicated copies mature through :meth:`release` and are
  only checked against crash-aliveness at the matured round — they are
  already past the link, so a partition that begins after the send does
  not retroactively sever them.
* A copy whose recipient is crashed at the matured round is lost (the
  network files it under ``lost_to_crash``).
* Fault events never carry payload bytes; telemetry records rumor ids
  via knowledge atoms only, so a chaos trace cannot leak ``z``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.chaos.schedule import DELAY, DELIVER, DROP, DUPLICATE, FaultSchedule
from repro.chaos.spec import FaultSpec
from repro.obs.instrument import NULL_TELEMETRY
from repro.sim.messages import Message, ServiceTags, reveals_of

__all__ = [
    "ChaosFaultPlane",
    "SEVER",
    "message_rids",
    "pipeline_stage",
]

#: Extra fate (beyond the schedule's) for messages crossing a partition cut.
SEVER = "sever"

_FAULT_KINDS = (DROP, DELAY, DUPLICATE, SEVER, "reorder", "late_loss")

# Service tag -> CONGOS pipeline stage, for per-stage fault accounting
# (dashboards split faults by where in the pipeline they landed, not just
# by kind).  Both kinds of coordinator traffic — rumor-carrying shoots
# and the hardened layer's acks — belong to the direct stage.
_SERVICE_STAGES = {
    ServiceTags.PROXY: "proxy",
    ServiceTags.GROUP_DISTRIBUTION: "gd",
    ServiceTags.GROUP_GOSSIP: "gossip",
    ServiceTags.ALL_GOSSIP: "gossip",
    ServiceTags.CONFIDENTIAL: "direct",
    ServiceTags.DIRECT_ACK: "direct",
}


def pipeline_stage(service: str) -> str:
    """The pipeline stage a service tag accounts under."""
    return _SERVICE_STAGES.get(service, "other")


def message_rids(message: Message, limit: int = 8) -> List[str]:
    """Rumor ids referenced by ``message``, for fault attribution.

    Extraction goes through knowledge atoms (``reveals``) plus direct
    ``rid``/``rumor.rid`` attributes, never through payload bytes, so the
    result is safe to put in a telemetry event.
    """
    rids: Set[str] = set()
    for atom in reveals_of(message.payload):
        if len(atom) >= 2:
            rids.add(str(atom[1]))
    rid = getattr(message.payload, "rid", None)
    if rid is not None:
        rids.add(str(rid))
    rumor = getattr(message.payload, "rumor", None)
    if rumor is not None and getattr(rumor, "rid", None) is not None:
        rids.add(str(rumor.rid))
    return sorted(rids)[:limit]


class ChaosFaultPlane:
    """Seed-keyed drop/delay/duplicate/reorder/partition injection."""

    def __init__(
        self,
        seed: int,
        spec: FaultSpec,
        n: int,
        telemetry: Any = None,
        message_keyed: bool = False,  # ignored; the ledger tracer still passes it
    ):
        self.spec = spec
        self.schedule = FaultSchedule(seed, spec, n)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.counts: Dict[str, int] = {kind: 0 for kind in _FAULT_KINDS}
        # stage -> kind -> count (reorder is per-inbox, not per-message,
        # so it has no stage and is tracked in ``counts`` only).
        self.stage_counts: Dict[str, Dict[str, int]] = {}
        # deliver_round -> copies maturing that round, in queue order
        # (admit round, then admit order).  The sharded worker tags each
        # queued copy with its own (admit_round, src, seq) order key.
        self._pending: Dict[int, List[Message]] = {}
        self._severed: Optional[frozenset] = None
        # src * n + dst -> messages admitted this round: the ``copy``
        # coordinate of the schedule's fate function.  An int key, not a
        # tuple: one count per message, and tuples feed the cyclic GC.
        self._pair_counts: Dict[int, int] = {}
        self._n = n
        self._copy_limit = self.schedule.copy_limit

    # -- state queries ---------------------------------------------------

    def observe_injection(
        self, round_no: int, src: int, seq: int, deadline: int
    ) -> None:
        """An injection announcement; the oblivious schedule ignores it."""

    def active_in(self, round_no: int) -> bool:
        return self.spec.active_in(round_no)

    def has_pending(self) -> bool:
        return bool(self._pending)

    def pending_count(self) -> int:
        """Delayed/duplicated copies still queued for future rounds."""
        return sum(len(copies) for copies in self._pending.values())

    def counts_summary(self) -> Dict[str, int]:
        """Stable-keyed fault counts (zero entries included)."""
        return {kind: self.counts[kind] for kind in _FAULT_KINDS}

    def counts_by_service(self) -> Dict[str, Dict[str, int]]:
        """Fault counts split by pipeline stage (proxy/gd/gossip/direct).

        Only stages actually hit appear, with their kinds sorted — a
        deterministic nested dict ready for soak payloads and metrics.
        """
        return {
            stage: {kind: kinds[kind] for kind in sorted(kinds)}
            for stage, kinds in sorted(self.stage_counts.items())
        }

    # -- network hooks ---------------------------------------------------

    def begin_round(self, round_no: int) -> None:
        self._pair_counts = {}
        self._severed = self.schedule.severed(round_no)
        if self.telemetry.enabled:
            # Delay-queue depth entering the round, so delay-heavy soaks
            # can watch growth: the gauge tracks the live value, the
            # histogram keeps the whole profile (mean/p99/max survive
            # the final snapshot).
            pending = self.pending_count()
            metrics = self.telemetry.metrics
            metrics.gauge("chaos.pending").set(pending)
            metrics.histogram("chaos.pending_depth").observe(pending)

    def admit(self, round_no: int, message: Message) -> str:
        """Decide the fate of one in-flight message.

        Returns the fate tag; ``DELAY``/``DUPLICATE`` copies are queued
        internally and surface later through :meth:`release`.
        """
        severed = self._severed
        if severed is not None and (
            (message.src in severed) != (message.dst in severed)
        ):
            self._record(round_no, SEVER, message)
            return SEVER
        pair = message.src * self._n + message.dst
        copy = self._pair_counts.get(pair, 0)
        if copy >= self._copy_limit:
            raise ValueError(
                "round {}: more than {} messages {} -> {}; their fate keys "
                "would collide".format(
                    round_no, self._copy_limit, message.src, message.dst
                )
            )
        self._pair_counts[pair] = copy + 1
        return self._schedule_admit(round_no, message, copy)

    def _schedule_admit(self, round_no: int, message: Message, copy: int) -> str:
        """The post-sever fate draw (subclasses compose around this)."""
        fate, hold = self.schedule.fate(round_no, message.src, message.dst, copy)
        if fate == DROP:
            self._record(round_no, DROP, message)
        elif fate != DELIVER:  # delay or duplicate: a copy matures later
            self._queue(round_no + hold, message)
            self._record(round_no, fate, message, detail=hold)
        return fate

    def _queue(self, deliver_round: int, message: Message) -> None:
        self._pending.setdefault(deliver_round, []).append(message)

    def release(self, round_no: int) -> List[Message]:
        """Messages queued in earlier rounds that mature now."""
        return self._pending.pop(round_no, [])

    def record_late_loss(self, round_no: int, message: Message) -> None:
        """A matured copy whose recipient is crashed — counted as a fault
        consequence so soak reports can attribute the loss."""
        self._record(round_no, "late_loss", message)

    def shuffle_inboxes(
        self, round_no: int, inboxes: Dict[int, List[Message]]
    ) -> None:
        if self.spec.reorder <= 0.0 or not inboxes:
            return
        for dst in sorted(inboxes):
            inbox = inboxes[dst]
            if len(inbox) < 2:
                continue
            # One stream per recipient: a worker hosting any subset of
            # pids draws exactly the same shuffles for each.
            rng = self.schedule.inbox_rng(round_no, dst)
            if rng.random() < self.spec.reorder:
                rng.shuffle(inbox)
                self.counts["reorder"] += 1
                if self.telemetry.enabled:
                    self.telemetry.emit(
                        "fault_reorder", round_no, dst=dst, inbox=len(inbox)
                    )

    # -- internals -------------------------------------------------------

    def _record(
        self,
        round_no: int,
        kind: str,
        message: Message,
        detail: int = 0,
        policy: Optional[str] = None,
        budget_spent: Optional[int] = None,
    ) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        stage = pipeline_stage(message.service)
        kinds = self.stage_counts.setdefault(stage, {})
        kinds[kind] = kinds.get(kind, 0) + 1
        if self.telemetry.enabled:
            labels = {"kind": kind, "stage": stage}
            fields: Dict[str, Any] = {
                "src": message.src,
                "dst": message.dst,
                "service": message.service,
                "detail": detail,
                "rids": message_rids(message),
            }
            if policy is not None:
                # Targeted faults carry their attribution: which policy
                # spent the budget unit and the ledger level after it.
                labels["policy"] = policy
                fields["policy"] = policy
                fields["budget_spent"] = budget_spent
            self.telemetry.metrics.counter("chaos.faults", **labels).inc()
            self.telemetry.emit("fault_" + kind, round_no, **fields)
