"""Targeted chaos adversaries: budgeted, rumor-aware fault policies.

The oblivious :class:`~repro.chaos.plane.ChaosFaultPlane` draws i.i.d.
fates; E17b showed that axis has no QoD cliff up to drop=0.5.  The
paper's lower bounds (and Lemma 4's fallback argument) are stated
against a *targeted* adversary — one that tracks a specific rumor's
carriers — so this module supplies that worst case as a policy layer
composing with the oblivious plane:

* A :class:`TargetedFaultPolicy` observes **leak-safe routing metadata
  only** — rumor ids (via :func:`~repro.chaos.plane.message_rids`),
  service tag / pipeline stage, src, dst, and injection announcements
  (rid + deadline).  It never sees payload bytes, destination sets, or
  node internals, matching the observer model of the related privacy
  work (arXiv:2308.02477, arXiv:1905.07598).
* Every fault it injects spends from a finite, explicitly-accounted
  :class:`BudgetLedger`.  Budgets are **per destination** (at most
  ``per_round`` faults toward any one destination per round, ``total``
  over the run) — a "link saboteur" stationed on each process's inbound
  edges.  Per-destination accounting is deliberately the strongest model
  that stays shard-invariant: a destination's admitted-message sequence
  is identical under any shard layout (workers sort on ``(src, seq)``),
  whereas a globally-sequential budget would depend on the interleaving
  of destinations across workers.
* Decisions are pure functions of ``(round, src, dst, service, rids)``
  plus ledger/tracking state; the only randomness — delay hold lengths —
  comes from dedicated seed-keyed streams
  (``derive_rng(seed, "chaos", "targeted", round, src, dst, copy)``),
  so runs are deterministic, ``--jobs``-invariant, and identical across
  the inproc and sharded backends.
* Everything is inert by default: no scenario opts in, no policy runs,
  and the golden payload digests hold.

``blind=True`` switches a policy into its rumor-blind variant: the same
stage/window shape and the same ledger, but every live rumor is a
target.  That is the matched-budget *oblivious* baseline the E19 matrix
(:mod:`repro.chaos.targeted_soak`) compares against — same spend, only
the concentration differs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.chaos.plane import (
    ChaosFaultPlane,
    message_rids,
    pipeline_stage,
)
from repro.chaos.schedule import DELAY, DELIVER, DROP
from repro.chaos.spec import FaultSpec
from repro.sim.messages import Message, ServiceTags
from repro.sim.rng import derive_rng

__all__ = [
    "TargetedSpec",
    "BudgetLedger",
    "TargetedFaultPolicy",
    "ProxySuppressor",
    "CollectorStarver",
    "DeadlineChaser",
    "FallbackHerder",
    "TargetedFaultPlane",
    "build_fault_plane",
    "POLICIES",
    "policy_names",
    "get_policy",
]


@dataclass(frozen=True)
class TargetedSpec:
    """Plain-data description of one targeted adversary.

    Like :class:`~repro.chaos.spec.FaultSpec` this contains no state and
    no randomness — it rides inside RunSpec kwargs as a JSON dict.

    Attributes
    ----------
    policy:
        Registry name of the :class:`TargetedFaultPolicy` to run.
    per_round:
        Fault budget per destination per round.
    total:
        Fault budget per destination over the whole run.
    kind:
        What a spent budget unit does: ``"drop"`` (silent loss) or
        ``"delay"`` (hold the copy ``1..hold`` rounds).
    hold:
        Upper bound on injected delays, in rounds (``kind="delay"``).
    window:
        Deadline-chaser only: grace rounds after injection before the
        chase starts; from then until the deadline every referencing
        message is attacked.
    blind:
        Rumor-blind variant — the matched-budget oblivious baseline.
        Same stage/window shape and ledger, but every live rumor is a
        target instead of one tracked rid.
    track_src:
        Only track rumors injected by this pid (``None`` = any source).
    retarget:
        Re-arm on the next injection once the tracked rumor's deadline
        passes, so long soaks keep sustained pressure; ``False`` tracks
        a single rumor for the whole run.
    start_round / stop_round:
        The window in which the targeted layer is active.
    """

    policy: str = "proxy-suppressor"
    per_round: int = 4
    total: int = 64
    kind: str = "drop"
    hold: int = 4
    window: int = 8
    blind: bool = False
    track_src: Optional[int] = None
    retarget: bool = True
    start_round: int = 0
    stop_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                "unknown targeted policy {!r}; registered: {}".format(
                    self.policy, ", ".join(policy_names())
                )
            )
        if self.kind not in (DROP, DELAY):
            raise ValueError(
                "kind must be 'drop' or 'delay', got {!r}".format(self.kind)
            )
        if self.per_round < 1 or self.total < 1:
            raise ValueError("budgets must be at least 1")
        if self.hold < 1:
            raise ValueError("hold must be >= 1 round")
        if self.window < 1:
            raise ValueError("window must be >= 1 round")
        if self.start_round < 0:
            raise ValueError("start_round must be non-negative")
        if self.stop_round is not None and self.stop_round <= self.start_round:
            raise ValueError("stop_round must be after start_round")

    def active_in(self, round_no: int) -> bool:
        if round_no < self.start_round:
            return False
        return self.stop_round is None or round_no < self.stop_round

    # -- JSON round-trip (RunSpec kwargs, BENCH payloads) ----------------

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TargetedSpec":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown TargetedSpec fields: {}".format(sorted(unknown))
            )
        return cls(**dict(data))  # type: ignore[arg-type]


class BudgetLedger:
    """Exact per-destination fault accounting.

    ``try_spend`` is the only mutation path, so ``spent`` always equals
    the number of targeted fault events recorded — the E19 validator
    asserts that identity per run.  Per-destination caps (not a global
    sequential counter) keep every decision a pure function of the
    destination's own admitted-message sequence, which is what makes the
    ledger identical across the inproc and sharded backends.
    """

    def __init__(self, per_round: int, total: int):
        self.per_round = per_round
        self.total = total
        self.spent = 0
        self.denied = 0
        self.spent_by_kind: Dict[str, int] = {}
        self.max_round_spend = 0  # worst per-destination spend in a round
        self.max_dst_spend = 0  # worst per-destination spend over the run
        self._round_spent: Dict[int, int] = {}
        self._dst_spent: Dict[int, int] = {}
        self._merged_destinations = 0

    def begin_round(self, round_no: int) -> None:
        self._round_spent = {}

    def try_spend(self, dst: int, kind: str) -> bool:
        """Spend one budget unit toward ``dst``, or refuse (cap hit)."""
        in_round = self._round_spent.get(dst, 0)
        in_run = self._dst_spent.get(dst, 0)
        if in_round >= self.per_round or in_run >= self.total:
            self.denied += 1
            return False
        self._round_spent[dst] = in_round + 1
        self._dst_spent[dst] = in_run + 1
        self.spent += 1
        self.spent_by_kind[kind] = self.spent_by_kind.get(kind, 0) + 1
        if in_round + 1 > self.max_round_spend:
            self.max_round_spend = in_round + 1
        if in_run + 1 > self.max_dst_spend:
            self.max_dst_spend = in_run + 1
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "per_round": self.per_round,
            "total": self.total,
            "spent": self.spent,
            "denied": self.denied,
            "by_kind": {
                kind: self.spent_by_kind[kind]
                for kind in sorted(self.spent_by_kind)
            },
            "max_round_spend": self.max_round_spend,
            "max_dst_spend": self.max_dst_spend,
            "destinations": len(self._dst_spent) + self._merged_destinations,
        }

    def merge(self, data: Mapping[str, object]) -> None:
        """Fold a worker's ledger summary in (sharded coordinator mirror).

        Destination sets are disjoint across workers (each pid is owned
        by exactly one), so sums and maxes are exact.
        """
        self.spent += data["spent"]  # type: ignore[operator]
        self.denied += data["denied"]  # type: ignore[operator]
        for kind, count in data["by_kind"].items():  # type: ignore[union-attr]
            self.spent_by_kind[kind] = self.spent_by_kind.get(kind, 0) + count
        self.max_round_spend = max(
            self.max_round_spend, data["max_round_spend"]  # type: ignore[arg-type]
        )
        self.max_dst_spend = max(
            self.max_dst_spend, data["max_dst_spend"]  # type: ignore[arg-type]
        )
        # Distinct destinations spent against; disjoint pid ownership
        # across workers makes the plain sum exact.
        self._merged_destinations += int(data["destinations"])  # type: ignore[arg-type]


class TargetedFaultPolicy:
    """Base policy: rumor tracking plus the subclass ``wants`` hook.

    Tracking state evolves only through :meth:`observe_injection` (rid +
    deadline announcements, identical on every backend) and round
    numbers, so policy decisions are shard-invariant by construction.
    """

    name = "?"
    #: Pipeline stages this policy attacks ("*" = any); subclasses narrow.
    stages: Tuple[str, ...] = ("*",)

    def __init__(self, spec: TargetedSpec, seed: int, n: int):
        self.spec = spec
        self.seed = seed
        self.n = n
        # rid -> (inject_round, expiry_round).  Non-blind mode keeps at
        # most one live entry (the tracked rumor); blind mode keeps every
        # live rumor.
        self.targets: Dict[str, Tuple[int, int]] = {}
        self.tracked: Optional[str] = None
        self.tracked_expiry = -1
        self.tracked_rids: List[str] = []
        self.targets_seen = 0

    def observe_injection(
        self, round_no: int, src: int, seq: int, deadline: int
    ) -> None:
        """An injection announcement: rid coordinates and deadline only."""
        rid = "r{}:{}".format(src, seq)
        expiry = round_no + deadline
        if self.spec.blind:
            if rid not in self.targets:
                self.targets_seen += 1
            self.targets[rid] = (round_no, expiry)
            return
        if self.spec.track_src is not None and src != self.spec.track_src:
            return
        if self.tracked is not None:
            if not self.spec.retarget:
                return
            if round_no <= self.tracked_expiry:
                return  # still chasing a live rumor
        self.tracked = rid
        self.tracked_expiry = expiry
        self.targets = {rid: (round_no, expiry)}
        self.tracked_rids.append(rid)
        self.targets_seen += 1

    def begin_round(self, round_no: int) -> None:
        if self.spec.blind and self.targets:
            expired = [
                rid
                for rid, (_, expiry) in self.targets.items()
                if round_no > expiry
            ]
            for rid in expired:
                del self.targets[rid]

    def live_hits(self, round_no: int, rids: Sequence[str]) -> List[str]:
        """The referenced rids that are live targets this round."""
        targets = self.targets
        return [
            rid
            for rid in rids
            if rid in targets and round_no <= targets[rid][1]
        ]

    def wants(
        self,
        round_no: int,
        src: int,
        dst: int,
        service: str,
        stage: str,
        rids: Sequence[str],
    ) -> bool:
        """Whether this message is worth a budget unit (subclass hook)."""
        raise NotImplementedError


class ProxySuppressor(TargetedFaultPolicy):
    """Drop proxy-bound fragments of the tracked rid.

    The proxy stage is where a rumor's fragments first leave the source
    (Figure 5 lines 9-13); suppressing it attacks the *entry* of the
    pipeline — the premise of Lemma 8's proxy-uptime requirement and the
    adaptive proxy-killer of Section 1, but at message granularity
    instead of crashing processes.
    """

    name = "proxy-suppressor"
    stages = ("proxy",)

    def wants(self, round_no, src, dst, service, stage, rids):
        return stage == "proxy" and bool(self.live_hits(round_no, rids))


class CollectorStarver(TargetedFaultPolicy):
    """Starve the collection half of the pipeline (GD + gossip).

    After proxies fan fragments out, group distribution and gossip are
    how destinations *collect* enough fragments to reassemble — the
    coverage argument of Lemmas 5/6.  Dropping tracked-rid traffic in
    those stages attacks reassembly without ever learning who the
    destinations are.
    """

    name = "collector-starver"
    stages = ("gd", "gossip")

    def wants(self, round_no, src, dst, service, stage, rids):
        return stage in ("gd", "gossip") and bool(
            self.live_hits(round_no, rids)
        )


class DeadlineChaser(TargetedFaultPolicy):
    """Chase the tracked rumor from mid-flight to its deadline.

    Early fragments are cheap for the adversary to waste budget on —
    the pipeline's fan-out replaces them for free.  The chaser sits out
    a ``window``-round grace period after injection, then drops *every*
    message referencing the tracked rid until its deadline: the late
    collection hops, stragglers, retransmits and the Lemma 4 fallback
    shoot itself, exactly the traffic whose loss cannot be re-fanned
    before the deadline.  Any stage qualifies once the chase is on.
    """

    name = "deadline-chaser"
    stages = ("*",)

    def wants(self, round_no, src, dst, service, stage, rids):
        targets = self.targets
        grace = self.spec.window
        for rid in rids:
            entry = targets.get(rid)
            if entry is not None and entry[0] + grace <= round_no <= entry[1]:
                return True
        return False


class FallbackHerder(TargetedFaultPolicy):
    """Drop ``DIRECT_ACK``\\ s to stress the retransmit machinery.

    The PR 4 reliability layer stops retransmitting when acks arrive;
    eating the tracked rumor's acks (control metadata — rid + acker pid,
    never payload) forces the source through its full backoff schedule,
    trading message complexity for delivery.  Meaningful on short
    deadlines (the direct-send path) under the ``hardened`` preset —
    at paper defaults there are no acks to eat and the policy spends 0.
    """

    name = "fallback-herder"
    stages = ("direct",)

    def wants(self, round_no, src, dst, service, stage, rids):
        return service == ServiceTags.DIRECT_ACK and bool(
            self.live_hits(round_no, rids)
        )


POLICIES: Dict[str, Type[TargetedFaultPolicy]] = {
    policy.name: policy
    for policy in (
        ProxySuppressor,
        CollectorStarver,
        DeadlineChaser,
        FallbackHerder,
    )
}


def policy_names() -> List[str]:
    return sorted(POLICIES)


def get_policy(name: str) -> Type[TargetedFaultPolicy]:
    try:
        return POLICIES[name]
    except KeyError:
        raise KeyError(
            "unknown targeted policy {!r}; registered: {}".format(
                name, ", ".join(policy_names())
            )
        ) from None


class TargetedFaultPlane(ChaosFaultPlane):
    """The composed plane: targeted policy first, oblivious schedule after.

    Per-message order of precedence mirrors the base plane's semantics:
    partition sever, then the targeted policy (budget permitting), then
    the oblivious schedule's fate draw.  A null oblivious spec skips the
    schedule entirely, so a pure targeted run burns no oblivious rng.
    """

    def __init__(
        self,
        seed: int,
        spec: FaultSpec,
        targeted: TargetedSpec,
        n: int,
        telemetry=None,
        keep_events: bool = True,
        max_events: int = 200_000,
        message_keyed: bool = False,
    ):
        super().__init__(
            seed,
            spec,
            n,
            telemetry=telemetry,
            keep_events=keep_events,
            max_events=max_events,
            message_keyed=message_keyed,
        )
        self.targeted = targeted
        self.policy = get_policy(targeted.policy)(targeted, seed, n)
        self.ledger = BudgetLedger(targeted.per_round, targeted.total)
        self.targeted_counts: Dict[str, int] = {}
        self._oblivious_null = spec.is_null()
        self._targeted_pair_counts: Dict[Tuple[int, int], int] = {}

    # -- adversary view ---------------------------------------------------

    def observe_injection(
        self, round_no: int, src: int, seq: int, deadline: int
    ) -> None:
        """Leak-safe injection announcement (rid coordinates + deadline).

        Fed by an engine observer on the inproc backend and by the
        coordinator's round-frame broadcast on the sharded one, so every
        worker's policy tracks identically.
        """
        self.policy.observe_injection(round_no, src, seq, deadline)

    # -- network hooks ----------------------------------------------------

    def active_in(self, round_no: int) -> bool:
        return self.targeted.active_in(round_no) or super().active_in(round_no)

    def begin_round(self, round_no: int) -> None:
        super().begin_round(round_no)
        self._targeted_pair_counts = {}
        self.policy.begin_round(round_no)
        self.ledger.begin_round(round_no)

    def admit(self, round_no: int, message: Message) -> str:
        severed = self._severed
        if severed is not None and (
            (message.src in severed) != (message.dst in severed)
        ):
            self._record(round_no, "sever", message)
            return "sever"
        fate = self._targeted_admit(round_no, message)
        if fate is not None:
            return fate
        # Fall through to the oblivious schedule, honoring its own
        # active window (outside it the base network would not have
        # consulted the plane at all).
        if self._oblivious_null or not self.spec.active_in(round_no):
            return DELIVER
        return self._schedule_admit(round_no, message)

    def _targeted_admit(self, round_no: int, message: Message) -> Optional[str]:
        if not self.targeted.active_in(round_no):
            return None
        rids = message_rids(message)
        if not self.policy.wants(
            round_no,
            message.src,
            message.dst,
            message.service,
            pipeline_stage(message.service),
            rids,
        ):
            return None
        kind = self.targeted.kind
        if not self.ledger.try_spend(message.dst, kind):
            return None
        policy = self.targeted.policy
        if kind == DROP:
            self._count_targeted(DROP)
            self._record(
                round_no,
                DROP,
                message,
                policy=policy,
                budget_spent=self.ledger.spent,
            )
            return DROP
        # Delay holds are the policy layer's only randomness; they come
        # from a dedicated stream keyed on the message's own coordinates
        # (same derivation shape as FaultSchedule.message_rng), so the
        # draw is identical on every backend and at any --jobs.
        pair = (message.src, message.dst)
        copy = self._targeted_pair_counts.get(pair, 0)
        self._targeted_pair_counts[pair] = copy + 1
        rng = derive_rng(
            self.schedule.master_seed,
            "chaos",
            "targeted",
            round_no,
            message.src,
            message.dst,
            copy,
        )
        hold = rng.randint(1, self.targeted.hold)
        self._queue(round_no, round_no + hold, message)
        self._count_targeted(DELAY)
        self._record(
            round_no,
            DELAY,
            message,
            detail=hold,
            policy=policy,
            budget_spent=self.ledger.spent,
        )
        return DELAY

    def _count_targeted(self, kind: str) -> None:
        self.targeted_counts[kind] = self.targeted_counts.get(kind, 0) + 1

    # -- reporting --------------------------------------------------------

    def targeted_summary(self) -> Dict[str, object]:
        """The policy/budget extract RunRecord and BENCH payloads carry."""
        return {
            "policy": self.targeted.policy,
            "blind": self.targeted.blind,
            "kind": self.targeted.kind,
            "counts": {
                kind: self.targeted_counts[kind]
                for kind in sorted(self.targeted_counts)
            },
            "tracked": list(self.policy.tracked_rids),
            "targets_seen": self.policy.targets_seen,
            "budget": self.ledger.as_dict(),
        }

    def merge_targeted(self, data: Mapping[str, object]) -> None:
        """Fold a worker's targeted summary in (coordinator mirror).

        Tracking state ("tracked"/"targets_seen") is identical on every
        worker and maintained coordinator-side via
        :meth:`observe_injection`, so only counts and the ledger merge.
        """
        for kind, count in data["counts"].items():  # type: ignore[union-attr]
            self.targeted_counts[kind] = (
                self.targeted_counts.get(kind, 0) + count
            )
        self.ledger.merge(data["budget"])  # type: ignore[arg-type]



def build_fault_plane(
    seed: int,
    n: int,
    fault_spec: Optional[FaultSpec],
    targeted_spec: Optional[TargetedSpec],
    *,
    telemetry=None,
    keep_events: bool = True,
    message_keyed: bool = False,
) -> Optional[ChaosFaultPlane]:
    """The plane a run's specs call for, or ``None`` for a reliable network.

    The only place a plane is constructed: the in-process runner, the
    shard coordinator's counts-only mirror and every shard worker build
    theirs here, so "same seed and specs => same schedule" is one
    statement.  A targeted spec composes over the oblivious one (a null
    spec when there is none); an oblivious spec alone gives the plain
    chaos plane; a null spec alone is the paper's reliable network.
    """
    options = dict(
        telemetry=telemetry, keep_events=keep_events, message_keyed=message_keyed
    )
    if targeted_spec is not None:
        spec = fault_spec if fault_spec is not None else FaultSpec()
        return TargetedFaultPlane(seed, spec, targeted_spec, n, **options)
    if fault_spec is None or fault_spec.is_null():
        return None
    return ChaosFaultPlane(seed, fault_spec, n, **options)
