"""The vectorized CONGOS round kernel (DESIGN.md §11).

One :class:`ArrayEngine` replaces the object stack's shells, network,
``CongosNode`` and per-pid services for fault-free runs; the top and
bottom of the round — adversary decision, its validation, injections'
record and announcement, observer hooks, clock — are the shared
:class:`~repro.sim.engine.RoundEngine` skeleton's.  The protocol's
*schedule* (blocks, iterations, gossip windows) and its *message counts*
are reproduced exactly; its randomized draws (gossip targets, GD/proxy
sampling) come from independent numpy streams: the path contract
(:mod:`repro.harness.parity`) holds it to statistics, not to bits.

State layout
------------

* every membership set (groups, item holders, destination sets, hit sets)
  is a packed ``uint64`` bitset over the pid universe;
* each gossip channel ``(dline, partition, group)`` — plus the single
  AllGossip channel — keeps a short list of *items*; spreading draws one
  target matrix per channel per round, shared by every item, exactly as
  the object engine's per-pid batch does;
* per-pid census/share traffic is folded into per-block *cohort* items
  carrying a ``weight`` (the number of real constituent shares), so the
  item list stays O(blocks), not O(n · blocks);
* fragment payloads are XOR-split once per rumor into a contiguous
  ``(partitions, groups, length)`` array and merged back on reassembly.

Documented approximations (all confidentiality-safe, see DESIGN.md §11):
cohort shares assume the in-group epidemic saturates by block end (it
does w.h.p. — the gossip window is ≥ 8 rounds for ≤ 16-round blocks);
multi-iteration blocks (dline ≥ 128) keep the full-group collaborator
census for fanout, which only touches later-iteration sends whose target
pools are almost always already hit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.audit.confidentiality import Violation, popcount
from repro.audit.metadata import Facts
from repro.core.config import CongosParams
from repro.core.deadlines import pipeline_deadline
from repro.core.partitions import PartitionSet
from repro.gossip.epidemic import default_fanout
from repro.gossip.rumor import Rumor
from repro.sim.clock import (
    ACTIVATE_GD, ACTIVATE_PROXY, GD_CENSUS, GD_SEND, HAND_UP, PROXY_ACK, PROXY_SHARE,
    BlockSchedule,
)
from repro.sim.engine import Fanout, RoundEngine, UnsupportedScenario
from repro.sim.messages import Message, ServiceTags
from repro.sim.rng import derive_seed

from repro.fastcore import bitset
from repro.fastcore.kernels import (
    gd_score,
    gd_union_pools,
    merge_shares,
    sample_rows,
    sample_targets_excluding_self,
    split_shares,
)

__all__ = ["ArrayEngine", "FastConfidentialityAuditor"]

# Item kinds on the gossip channels, compared with ``==``: a pickled
# engine loads equal strings, not these objects.
FRAG = "frag"          # one real item per (rumor, partition): the source's own-group fragment
PXSHARE = "pxshare"    # per-block cohort: proxy buffers + requester census beacons
GDCENSUS = "gdcensus"  # per-block cohort: GroupDistribution hitSet shares
DSHARE = "dshare"      # per-block cohort: AllGossip DistributionShares


class FastConfidentialityAuditor:
    """Confidentiality audit over the array engine's delivered stream.

    Mirrors the object :class:`repro.audit.confidentiality.ConfidentialityAuditor`
    surface (``is_clean`` / ``violation_counts`` / ``summary`` /
    ``total_border_messages``) with bitset bookkeeping: plaintext checks
    fire per delivery, reconstruction is checked per rumor when it is
    retired (per-partition AND of the cumulative fragment-holder sets
    minus the allowed set), border messages are tallied by the spread and
    proxy kernels.
    """

    def __init__(self, num_partitions: int, num_groups: int):
        self.num_partitions = num_partitions
        self.num_groups = num_groups
        self.rumor_count = 0
        self.total_border_messages = 0
        # The same Violation records the object auditor keeps, so
        # FailFastMonitor (which tails this list) plugs in unchanged.
        self.violations: List[Violation] = []
        self._counts: Dict[str, int] = {
            "plaintext": 0,
            "reconstruction": 0,
            "multiplicity": 0,
        }

    def on_rumor(self) -> None:
        self.rumor_count += 1

    def _record(self, kind, rid, pid, round_no, detail="") -> None:
        self._counts[kind] += 1
        self.violations.append(
            Violation(kind=kind, rid=rid, pid=pid, round_no=round_no, detail=detail)
        )

    def record_plaintext(
        self, round_no: int, state: "_RumorState", targets: np.ndarray
    ) -> None:
        """Full-rumor deliveries landed at ``targets``; outsiders are leaks."""
        for pid in targets[~bitset.test_bits(state.allowed, targets)]:
            self._record(
                "plaintext", state.rid, int(pid), round_no,
                "plaintext delivered outside D + {src}",
            )

    def add_border(self, count: int) -> None:
        self.total_border_messages += int(count)

    def retire_rumor(self, round_no: int, state: "_RumorState") -> None:
        """Run the reconstruction/multiplicity sweep for one dead rumor."""
        n = state.n
        per_partition: Dict[int, List[np.ndarray]] = {}
        for (partition, _group), holders in state.frag_holders.items():
            per_partition.setdefault(partition, []).append(holders)
        for holder_sets in per_partition.values():
            if len(holder_sets) < self.num_groups:
                continue
            conjunction = holder_sets[0].copy()
            for holders in holder_sets[1:]:
                np.bitwise_and(conjunction, holders, out=conjunction)
            leaked = bitset.andnot(conjunction, state.allowed)
            for pid in bitset.to_indices(leaked, n):
                self._record(
                    "reconstruction", state.rid, int(pid), round_no,
                    "outsider holds a full fragment set",
                )
        # Multiplicity: an outsider holding two fragments of one partition.
        for holder_sets in per_partition.values():
            if len(holder_sets) < 2:
                continue
            seen = bitset.empty(n)
            twice = bitset.empty(n)
            for holders in holder_sets:
                np.bitwise_or(twice, seen & holders, out=twice)
                np.bitwise_or(seen, holders, out=seen)
            for pid in bitset.to_indices(bitset.andnot(twice, state.allowed), n):
                self._record(
                    "multiplicity", state.rid, int(pid), round_no,
                    "outsider holds two fragments of one partition",
                )

    def violation_counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def is_clean(self) -> bool:
        return self._counts["plaintext"] == 0 and self._counts["reconstruction"] == 0

    def summary(self) -> Dict[str, object]:
        return {
            "rumors": self.rumor_count,
            "violations": self.violation_counts(),
            "border_messages": self.total_border_messages,
        }


def _state_facts(states) -> Facts:
    """A fragment's facts for each of ``states``: its rid and ``D``."""
    return Facts((state.rid, state.rumor.dest) for state in states)


def _item_facts(item: "_Item") -> Tuple:
    """A gossip item's facts, as its object twin's ``facts_of`` reads them:
    census shares (GDCENSUS) reveal nothing."""
    if item.kind == FRAG:
        return _state_facts([item.content])
    if item.kind == PXSHARE:
        return _state_facts(item.content)
    if item.kind == DSHARE:
        return tuple((state.rid, None) for state, _hits in item.content[1])
    return ()


def _runs(dsts: List[int]) -> List[List[int]]:
    """``dsts`` cut before each pid its run already names."""
    runs: List[List[int]] = [[]]
    for dst in dsts:
        if dst in runs[-1]:
            runs.append([])
        runs[-1].append(dst)
    return runs


def _facts_by_column(row_facts, flags: np.ndarray) -> List[Facts]:
    """One ``Facts`` per column of the 0/1 ``flags`` matrix, joining the
    rows it sets; equal columns (compared packed) share one object."""
    packed = np.packbits(flags, axis=0, bitorder="little").T
    patterns, inverse = np.unique(packed, axis=0, return_inverse=True)
    rows = np.unpackbits(patterns, axis=1, count=len(row_facts), bitorder="little")
    shared = [
        Facts(dict.fromkeys(pair for i in np.flatnonzero(row) for pair in row_facts[i]))
        for row in rows
    ]
    return [shared[c] for c in inverse.reshape(-1).tolist()]


class _RumorState:
    """Everything the engine tracks for one pipeline rumor."""

    __slots__ = (
        "rumor",
        "rid",
        "src",
        "n",
        "dline",
        "injected_at",
        "expiry",
        "dest_mask",
        "allowed",
        "shares",
        "got",
        "frag_holders",
        "delivered",
        "src_known",
        "confirmed",
        "confirm_dirty",
        "retired",
        "merged_cache",
    )

    def __init__(self, rumor: Rumor, n: int, dline: int, round_no: int):
        self.rumor = rumor
        self.rid = rumor.rid
        self.src = rumor.rid.src
        self.n = n
        self.dline = dline
        self.injected_at = round_no
        self.expiry = round_no + rumor.deadline
        self.dest_mask = bitset.from_indices(sorted(rumor.dest), n)
        self.allowed = self.dest_mask.copy()
        bitset.union_into(self.allowed, bitset.from_indices([self.src], n))
        self.shares: Optional[np.ndarray] = None
        # (partition, group) -> bitset of pids holding that fragment via a
        # GroupDistribution delivery (the reassembly matrix) ...
        self.got: Dict[Tuple[int, int], np.ndarray] = {}
        # ... and via *any* channel (the audit's knowledge sets).
        self.frag_holders: Dict[Tuple[int, int], np.ndarray] = {}
        self.delivered = bitset.empty(n)
        self.src_known: Dict[Tuple[int, int], np.ndarray] = {}
        self.confirmed = False
        self.confirm_dirty = False
        self.retired = False
        self.merged_cache: Dict[int, bytes] = {}

    def audit_holders(self, key: Tuple[int, int]) -> np.ndarray:
        holders = self.frag_holders.get(key)
        if holders is None:
            holders = bitset.empty(self.n)
            self.frag_holders[key] = holders
        return holders

    def merged(self, partition: int) -> bytes:
        data = self.merged_cache.get(partition)
        if data is None:
            data = merge_shares(self.shares[partition])
            self.merged_cache[partition] = data
        return data


class _Item:
    """One gossip item (or per-block cohort of items) on a channel."""

    __slots__ = (
        "kind", "born", "start", "expiry", "weight", "holders", "content", "key",
    )

    def __init__(self, kind, born, start, expiry, weight, holders, content=None, key=None):
        self.kind = kind
        self.born = born
        self.start = start          # first round this item is broadcast
        self.expiry = expiry        # last round it is broadcast/absorbed
        self.weight = weight        # number of real constituent items
        self.holders = holders      # bitset, grows as the epidemic spreads
        self.content = content      # kind-specific payload
        self.key = key              # (dline, partition, group) home channel


class _Channel:
    """One continuous-gossip scope: a (partition, group) cell or all-pids."""

    __slots__ = (
        "scope_idx",
        "scope_mask",
        "size",
        "pos_of",
        "fanout",
        "k",
        "horizon",
        "service",
        "items",
        "all_to_all",
        "name",
    )

    def __init__(
        self, scope_idx: np.ndarray, n: int, fanout_scale: float, service: str, name: str
    ):
        self.scope_idx = scope_idx
        self.scope_mask = bitset.from_indices(scope_idx, n)
        self.size = len(scope_idx)
        self.pos_of = np.full(n, -1, dtype=np.int64)
        self.pos_of[scope_idx] = np.arange(self.size, dtype=np.int64)
        self.fanout = default_fanout(self.size, fanout_scale)
        self.k = min(self.fanout, self.size - 1)
        self.horizon = max(8, 2 * math.ceil(math.log2(max(2, self.size))) + 4)
        self.service = service
        self.items: List[_Item] = []
        self.all_to_all = self.size - 1 <= self.fanout
        self.name = name  # the object engine's channel for the same scope


class _GdBlock:
    """Per-(partition, group) GroupDistribution state for one block."""

    __slots__ = ("rumors", "hits", "distributors", "census_item")

    def __init__(self, n: int):
        self.rumors: List[Tuple[_RumorState, np.ndarray]] = []
        self.hits: Dict[_RumorState, np.ndarray] = {}
        self.distributors = bitset.empty(n)
        self.census_item: Optional[_Item] = None


class _Instance:
    """One deadline class: channels, schedule and per-block machinery."""

    __slots__ = (
        "dline",
        "schedule",
        "channels",
        "pending",
        "px_queue",
        "px_shares",
        "px_items",
        "px_acks",
        "gd_blocks",
        "gd_fanout",
    )

    def __init__(self, dline: int):
        self.dline = dline
        self.schedule = BlockSchedule(dline)
        self.channels: Dict[Tuple[int, int], _Channel] = {}
        # GD waiting sets: (partition, group) -> {rumor state -> holder bitset}.
        self.pending: Dict[Tuple[int, int], Dict[_RumorState, np.ndarray]] = {}
        # Cross-group fragments awaiting a proxy block:
        # (partition, group) -> [(inject round, rumor state)].
        self.px_queue: Dict[Tuple[int, int], List[Tuple[int, _RumorState]]] = {}
        # Proxy share cohorts staged at block start for the next PROXY_SHARE
        # round: [((partition, group), injector mask, weight, frag states)].
        self.px_shares: List[Tuple[Tuple[int, int], np.ndarray, int, List[_RumorState]]] = []
        # Live proxy-share items of the current block, consumed at hand-up.
        self.px_items: Dict[Tuple[int, int], _Item] = {}
        # Acks staged at block start, sent at the next PROXY_ACK round, one
        # per proxy to its requester: [(requester, proxies, partition)].
        self.px_acks: List[Tuple[int, np.ndarray, int]] = []
        self.gd_blocks: Dict[Tuple[int, int], _GdBlock] = {}
        self.gd_fanout: Dict[Tuple[int, int], int] = {}


class ArrayEngine(RoundEngine):
    """Vectorized fault-free CONGOS simulation on the round skeleton.

    Supplies the skeleton's four backend pieces: an injection splits the
    rumor into channel items (:meth:`_inject_state`), the round body is
    the vectorized phases, ``behavior(pid)`` is ``None`` (there are no
    per-pid objects), and a crash or restart is refused — everyone is
    alive, always, until alive masks land.  While an observer takes
    deliveries, the sends are also lowered into the skeleton's fan-outs
    (:meth:`_lower`), with :class:`~repro.audit.metadata.Facts` payloads.
    """

    def __init__(
        self,
        n: int,
        params: CongosParams,
        partition_set: PartitionSet,
        seed: int,
        adversary,
        record_delivery: Callable[[int, int, object, bytes, str], None],
        auditor: FastConfidentialityAuditor,
        observers=(),
    ):
        super().__init__(n, adversary, observers)
        self.params = params
        self.partition_set = partition_set
        self.seed = seed
        self.record_delivery = record_delivery
        self.auditor = auditor

        self._rng_gossip = np.random.default_rng(derive_seed(seed, "fastcore", "gossip"))
        self._rng_gd = np.random.default_rng(derive_seed(seed, "fastcore", "gd"))
        self._rng_proxy = np.random.default_rng(derive_seed(seed, "fastcore", "proxy"))
        self._rng_split = np.random.default_rng(derive_seed(seed, "fastcore", "split"))

        # Partition geometry, computed once.
        self._group_idx: Dict[Tuple[int, int], np.ndarray] = {}
        self._group_of: Dict[int, np.ndarray] = {}
        for partition in range(partition_set.count):
            assignment = np.asarray(partition_set.assignment(partition), dtype=np.int64)
            self._group_of[partition] = assignment
            for group in range(partition_set.num_groups):
                self._group_idx[(partition, group)] = np.flatnonzero(
                    assignment == group
                ).astype(np.int64)

        self.all_channel = _Channel(
            np.arange(n, dtype=np.int64), n, params.gossip_fanout_scale,
            ServiceTags.ALL_GOSSIP, "all",
        )
        self.instances: Dict[int, _Instance] = {}
        self.rumors: List[_RumorState] = []

        # Per-round accumulators, reset as the round body consumes them.
        self._count = 0
        self._size = 0
        self._by_service: Dict[str, int] = {}
        # This round's fresh fragment items: [(home channel key, item)].
        self._new_frag_items: List[Tuple[Tuple[int, int, int], _Item]] = []
        # Deliveries staged for the end-of-round effects pass:
        # [(item, new-holder bitset)].
        self._spread_deliveries: List[Tuple[_Item, np.ndarray]] = []
        self._reassembly_dirty: List[Tuple[_RumorState, int]] = []
        # This round's sends as fan-outs, only while an observer takes them.
        self._cut: List[Fanout] = []

    # ------------------------------------------------------------------
    # The skeleton's backend pieces
    # ------------------------------------------------------------------

    def behavior(self, pid: int) -> None:
        return None

    def _crash_state(self, round_no: int, pid: int) -> None:
        raise UnsupportedScenario(
            "engine='array' models fault-free runs only; use the object engine "
            "for crash/restart adversaries"
        )

    _restart_state = _crash_state

    def _round_body(self, round_no: int) -> None:
        self._fallback_phase(round_no)

        for dline in sorted(self.instances):
            self._protocol_phase(round_no, self.instances[dline])

        self._spread_phase(round_no)
        self._delivery_effects(round_no)
        self._block_end_phase(round_no)
        self._reassemble(round_no)
        self._retire_rumors(round_no)
        self._announce_deliveries(round_no, None, self._cut)
        self._cut = []

        self.stats.record_round(round_no, self._count, self._size, self._by_service)
        self._count = 0
        self._size = 0
        self._by_service = {}

    # ------------------------------------------------------------------
    # Injection, direct sends and the deadline fallback
    # ------------------------------------------------------------------

    def _tally(self, service: str, count: int, size: int) -> None:
        if count <= 0:
            return
        self._count += count
        self._size += size
        self._by_service[service] = self._by_service.get(service, 0) + count

    def _lowering(self) -> bool:
        """Does an observer take this round's deliveries?"""
        return bool(self._dispatch["on_fanouts"] or self._dispatch["on_deliver"])

    def _lower(self, service, channel, senders, rows, facts, sizes) -> None:
        """Append one fan-out per sender to the round's cut: ``senders[i]``
        sends ``facts[i]`` (``sizes[i]`` units each) to ``rows[i]``, a row
        of a ``(senders, k)`` target matrix."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[1] == 1:
            masks = [1 << dst for dst in rows[:, 0].tolist()]
        else:  # through a flag matrix, a bounded slice of rows at a time
            width = 64 * bitset.n_words(self.n)
            masks = []
            for chunk in np.array_split(rows, 1 + (len(rows) * width >> 22)):
                flags = np.zeros((len(chunk), width), dtype=np.bool_)
                flags[np.arange(len(chunk))[:, None], chunk] = True
                packed = np.packbits(flags, axis=1, bitorder="little")
                masks.extend(int.from_bytes(row, "little") for row in packed)
        for src, dsts, mask, payload, size in zip(
            np.asarray(senders).tolist(), rows.tolist(), masks, facts, sizes
        ):
            # A large pool's draws may repeat a pid: as in the object
            # engine's cut, a repeat starts a new fan-out.
            for run in [dsts] if popcount(mask) == len(dsts) else _runs(dsts):
                if run is not dsts:
                    mask = sum(1 << dst for dst in run)
                self._cut.append(
                    (Message(src, run[0], service, payload, size, channel), run, mask)
                )

    def _deliver_plaintext(
        self, round_no: int, state: _RumorState, targets: np.ndarray, path: str
    ) -> None:
        self.auditor.record_plaintext(round_no, state, targets)
        if self._lowering() and len(targets):
            self._lower(
                ServiceTags.CONFIDENTIAL, "shoot", [state.src], targets[None],
                [_state_facts([state])], [1],
            )
        for pid in targets:
            self.record_delivery(
                int(pid), round_no, state.rid, state.rumor.data, path
            )
        bitset.union_into(state.delivered, bitset.from_indices(targets, self.n))

    def _inject_state(self, round_no, pid, rumor) -> None:
        if not rumor.dest <= frozenset(range(self.n)):
            raise ValueError("rumor destination set contains unknown pids")
        self.auditor.on_rumor()
        dline = pipeline_deadline(rumor.deadline, self.params, self.n)
        direct = dline is None or self.params.collusion_forces_direct(self.n)
        state = _RumorState(
            rumor, self.n, dline if dline is not None else 0, round_no
        )
        if pid in rumor.dest:
            self.record_delivery(pid, round_no, rumor.rid, rumor.data, "local")
            bitset.union_into(state.delivered, bitset.from_indices([pid], self.n))
        others = sorted(rumor.dest - {pid})
        if not others:
            return
        if direct:
            self._tally(ServiceTags.CONFIDENTIAL, len(others), len(others))
            self._deliver_plaintext(
                round_no, state, np.asarray(others, dtype=np.int64), "direct"
            )
            return
        self.rumors.append(state)
        state.shares = split_shares(
            rumor.data, self.partition_set.count, self.partition_set.num_groups,
            self._rng_split,
        )
        instance = self._instance(dline)
        src_holder = bitset.from_indices([pid], self.n)
        for partition in range(self.partition_set.count):
            my_group = int(self._group_of[partition][pid])
            item = _Item(
                FRAG,
                born=round_no,
                start=round_no,
                expiry=round_no + instance.schedule.gossip_deadline,
                weight=1,
                holders=src_holder.copy(),
                content=state,
                key=(dline, partition, my_group),
            )
            instance.channels[(partition, my_group)].items.append(item)
            self._new_frag_items.append(((dline, partition, my_group), item))
            bitset.union_into(
                state.audit_holders((partition, my_group)), src_holder
            )
            for group in range(self.partition_set.num_groups):
                if group != my_group:
                    instance.px_queue.setdefault((partition, group), []).append(
                        (round_no, state)
                    )

    def _fallback_phase(self, round_no: int) -> None:
        for state in self.rumors:
            if state.confirm_dirty:
                state.confirm_dirty = False
                # Confirmed once some partition covers the whole of D.
                state.confirmed = state.confirmed or any(
                    np.array_equal(cover, state.dest_mask)
                    for cover in self._covers(state)
                )
            if state.confirmed or state.retired:
                continue
            # Hardened runs are refused here, so the fallback fires at
            # the deadline itself (Figure 8 line 47).
            if round_no >= state.expiry:
                targets = bitset.to_indices(state.dest_mask, self.n)
                targets = targets[targets != state.src]
                if self.params.fallback_scope == "unconfirmed":
                    covered = np.bitwise_or.reduce(list(self._covers(state)))
                    targets = targets[~bitset.test_bits(covered, targets)]
                self._tally(ServiceTags.CONFIDENTIAL, len(targets), len(targets))
                self._deliver_plaintext(round_no, state, targets, "shoot")
                state.retired = True

    def _covers(self, state: _RumorState) -> Iterator[np.ndarray]:
        """Per partition, the destinations in the hitSet of *every* group
        the source knows of (Figure 8 lines 41-46)."""
        for partition in range(self.partition_set.count):
            cover = state.dest_mask
            for group in range(self.partition_set.num_groups):
                known = state.src_known.get((partition, group))
                if known is None:
                    cover = bitset.empty(self.n)
                    break
                cover = cover & known
            yield cover

    # ------------------------------------------------------------------
    # Instance management
    # ------------------------------------------------------------------

    def _instance(self, dline: int) -> _Instance:
        instance = self.instances.get(dline)
        if instance is not None:
            return instance
        instance = _Instance(dline)
        for partition in range(self.partition_set.count):
            for group in range(self.partition_set.num_groups):
                idx = self._group_idx[(partition, group)]
                instance.channels[(partition, group)] = _Channel(
                    idx, self.n, self.params.gossip_fanout_scale,
                    ServiceTags.GROUP_GOSSIP, "gg/{}/{}".format(dline, partition),
                )
                instance.gd_fanout[(partition, group)] = self.params.service_fanout(
                    self.n, dline, len(idx)
                )
        self.instances[dline] = instance
        return instance

    # ------------------------------------------------------------------
    # Proxy + GroupDistribution block machinery
    # ------------------------------------------------------------------

    def _protocol_phase(self, round_no: int, instance: _Instance) -> None:
        schedule = instance.schedule
        stages = schedule.stages(round_no)
        # Uptime gating: a service activates once the process has been up
        # its stage's uptime (wakeup = 0 for every pid in fault-free runs),
        # so block 0 is pure gossip + direct traffic.
        if stages & ACTIVATE_PROXY and round_no >= schedule.proxy.uptime:
            self._px_begin_block(round_no, instance)
        if stages & PROXY_SHARE:
            for key, injectors, weight, frag_states in instance.px_shares:
                self._px_make_share(round_no, instance, key, injectors, weight, frag_states)
            instance.px_shares = []
        if stages & ACTIVATE_GD and round_no >= schedule.gd.uptime:
            self._gd_begin_block(round_no, instance)
        if stages & GD_SEND:
            self._gd_send(round_no, instance)
        elif stages & GD_CENSUS:
            self._gd_census(round_no, instance)
        if not stages & PROXY_ACK:
            return
        for requester, proxies, partition in instance.px_acks:
            count = len(proxies)
            self._tally(ServiceTags.PROXY, count, count)
            if self._lowering():  # each proxy acks its requester, revealing nothing
                self._lower(
                    ServiceTags.PROXY, "px/{}/{}".format(instance.dline, partition),
                    proxies, np.full((count, 1), requester), [Facts()] * count,
                    [1] * count,
                )
        instance.px_acks = []

    def _px_begin_block(self, round_no: int, instance: _Instance) -> None:
        for key in sorted(instance.px_queue):
            queue = instance.px_queue[key]
            fresh = [
                (arrival, state)
                for arrival, state in queue
                if arrival < round_no and round_no <= state.expiry
            ]
            instance.px_queue[key] = [
                (arrival, state) for arrival, state in queue if arrival >= round_no
            ]
            if not fresh:
                continue
            partition, group = key
            pool = self._group_idx[key]
            # Group the queue by requester: one batched request per
            # (source, target group), exactly like ProxyService.
            by_src: Dict[int, List[_RumorState]] = {}
            for _arrival, state in fresh:
                by_src.setdefault(state.src, []).append(state)
            proxies_union = bitset.empty(self.n)
            requesters: List[int] = []
            frag_states: List[_RumorState] = []
            for src in sorted(by_src):
                states = by_src[src]
                requesters.append(src)
                frag_states.extend(states)
                own_group = int(self._group_of[partition][src])
                fanout = self.params.service_fanout(
                    self.n, instance.dline,
                    len(self._group_idx[(partition, own_group)]),
                )
                count = min(fanout, len(pool))
                if count == len(pool):
                    targets = pool
                else:
                    targets = sample_rows(self._rng_proxy, pool, 1, count)[0]
                self._tally(
                    ServiceTags.PROXY, len(targets), len(targets) * len(states)
                )
                if self._lowering():
                    self._lower(
                        ServiceTags.PROXY, "px/{}/{}".format(instance.dline, partition),
                        [src], targets[None], [_state_facts(states)], [len(states)],
                    )
                instance.px_acks.append((src, targets, partition))
                target_mask = bitset.from_indices(targets, self.n)
                bitset.union_into(proxies_union, target_mask)
                for state in states:
                    bitset.union_into(state.audit_holders(key), target_mask)
                    outside = (~bitset.test_bits(state.allowed, targets)).sum()
                    self.auditor.add_border(int(outside))
            # Proxies inject their buffered fragments at the share round;
            # active requesters inject census beacons into their *own*
            # group's channel the same round (fragment-free, so those
            # cohorts ride along for traffic and spread only).
            injector_count = bitset.popcount(proxies_union)
            instance.px_shares.append(
                (key, proxies_union, injector_count, frag_states)
            )
            for src in requesters:
                own_key = (partition, int(self._group_of[partition][src]))
                beacon = bitset.from_indices([src], self.n)
                instance.px_shares.append((own_key, beacon, 1, []))

    def _px_make_share(
        self, round_no, instance, key, injectors, weight, frag_states
    ) -> None:
        if weight <= 0:
            return
        item = _Item(
            PXSHARE,
            born=round_no,
            start=round_no + 1,
            expiry=round_no + instance.schedule.gossip_deadline,
            weight=weight,
            holders=injectors.copy(),
            content=list(frag_states),
            key=(instance.dline,) + key,
        )
        instance.channels[key].items.append(item)
        if frag_states:
            existing = instance.px_items.get(key)
            if existing is not None:
                # Same block, second cohort (multi-iteration instances):
                # merge for the hand-up bookkeeping.
                existing.content.extend(frag_states)
                bitset.union_into(existing.holders, injectors)
            else:
                instance.px_items[key] = item
            for state in frag_states:
                bitset.union_into(state.audit_holders(key), injectors)

    def _gd_begin_block(self, round_no: int, instance: _Instance) -> None:
        for key in sorted(instance.pending):
            waiting = instance.pending[key]
            if not waiting:
                continue
            block = _GdBlock(self.n)
            for state, holders in waiting.items():
                if round_no > state.expiry:
                    continue
                partials = holders.copy()
                block.rumors.append((state, partials))
                bitset.union_into(block.distributors, partials)
                hits = bitset.empty(self.n)
                # Local destinations deliver to themselves immediately.
                local = partials & state.dest_mask
                if np.any(local):
                    got = state.got.setdefault(key, bitset.empty(self.n))
                    bitset.union_into(got, local)
                    bitset.union_into(hits, local)
                    self._reassembly_dirty.append((state, key[0]))
                block.hits[state] = hits
            waiting.clear()
            if block.rumors:
                instance.gd_blocks[key] = block
            elif key in instance.gd_blocks:
                del instance.gd_blocks[key]

    def _gd_send(self, round_no: int, instance: _Instance) -> None:
        first_iteration = instance.schedule.iteration_of(round_no) == 0
        lowering = self._lowering()
        for key in sorted(instance.gd_blocks):
            block = instance.gd_blocks[key]
            live = [
                (state, partials)
                for state, partials in block.rumors
                if round_no <= state.expiry
            ]
            if not live:
                continue
            fanout = instance.gd_fanout[key]
            states = [state for state, _partials in live]
            partials = np.stack([partials for _state, partials in live])
            senders = bitset.to_indices(
                np.bitwise_or.reduce(partials, axis=0), self.n
            )
            if not len(senders):
                continue
            # Per-rumor target pools, one (rumors, words) matrix per key.
            # First iteration: the full destination set — each sender knows
            # only its own self-hit, which the in-pool/out-of-pool split
            # removes.  Later iterations: senders have absorbed the census,
            # so subtract the block's hit union (a documented approximation
            # of per-process hit knowledge).
            pools = np.stack([state.dest_mask for state in states])
            if not first_iteration:
                pools &= ~np.stack([block.hits[state] for state in states])
            holding, members = self._gd_classes(partials, senders)
            # Every class's union pool, as flags and as sorted pids.
            in_union = bitset.to_flags(gd_union_pools(pools, holding))
            in_union = in_union[:, : self.n].view(np.bool_)
            union_class, union_pids = np.nonzero(in_union)
            union_ends = np.cumsum(np.bincount(union_class, minlength=len(members)))
            # The class loop only draws; the key's draws are scored below,
            # all classes at once.
            counts = np.zeros(len(members), dtype=np.int64)
            sizes = np.zeros(len(members), dtype=np.int64)
            flats: List[np.ndarray] = []
            for c, (class_senders, union_idx) in enumerate(
                zip(members, np.split(union_pids, union_ends[:-1]))
            ):
                if not len(union_idx):
                    continue
                drawn, counts[c] = self._gd_draw(
                    class_senders, union_idx, in_union[c], fanout
                )
                for _rows, targets in drawn:
                    flats.append(targets.ravel())
                    sizes[c] += targets.size
                if lowering and drawn:
                    in_class = np.flatnonzero(holding[c])
                    self._gd_lower(
                        instance.dline, key, [states[j] for j in in_class],
                        pools[in_class], drawn,
                    )
            if not flats:
                continue
            appropriate, hits, order = gd_score(
                pools, holding, np.concatenate(flats), sizes
            )
            for j in order.tolist():
                state, new_mask = states[j], hits[j]
                bitset.union_into(block.hits[state], new_mask)
                got = state.got.setdefault(key, bitset.empty(self.n))
                bitset.union_into(got, new_mask)
                bitset.union_into(state.audit_holders(key), new_mask)
                self._reassembly_dirty.append((state, key[0]))
            self._tally(
                ServiceTags.GROUP_DISTRIBUTION, int(counts.sum()),
                int(np.maximum(counts, appropriate).sum()),
            )

    @staticmethod
    def _gd_classes(partials: np.ndarray, senders: np.ndarray):
        """Sender classes by the set of live rumors each sender holds: all
        senders in a class share the same target pool (minus self).

        Returns ``(holding, members)``: the ``(classes, rumors)`` bool
        matrix of what each class holds and each class's senders, in
        ascending pid order.  A sender's signature is its column of the
        ``(rumors, senders)`` holding matrix packed to bytes, most
        significant first, so the lexicographic row sort visits classes in
        the numeric order of the bit pattern — whatever the number of live
        rumors.
        """
        holds = bitset.test_bits(partials, senders)
        signature = np.packbits(holds, axis=0, bitorder="little")[::-1].T
        _classes, first, class_of = np.unique(
            signature, axis=0, return_index=True, return_inverse=True
        )
        class_of = class_of.reshape(-1)  # (senders, 1) on numpy 2.0.0
        by_class = senders[np.argsort(class_of, kind="stable")]
        bounds = np.cumsum(np.bincount(class_of, minlength=len(first)))[:-1]
        return holds[:, first].T, np.split(by_class, bounds)

    def _gd_draw(self, class_senders, union_idx, in_union, fanout):
        """One sender class's GD draws from its union pool (``union_idx``,
        sorted; ``in_union`` its flags over the pids): senders inside the
        pool draw it minus themselves, senders outside draw it whole.

        Returns ``([(rows, (rows, k) target matrix), ...], count)`` with
        ``count`` the messages sent (a broadcast row's self-draw is not
        one).
        """
        pool_size = len(union_idx)
        inside = in_union[class_senders]
        drawn: List[Tuple[np.ndarray, np.ndarray]] = []
        count = 0
        for rows, excl_self in (
            (class_senders[inside], True), (class_senders[~inside], False)
        ):
            if not len(rows):
                continue
            k = min(fanout, pool_size - 1 if excl_self else pool_size)
            if k <= 0:
                continue
            count += len(rows) * k
            if excl_self:
                if k >= pool_size - 1:
                    # Whole pool minus self: model as the full pool per row
                    # and drop self-hits afterwards (self is already hit).
                    targets = np.broadcast_to(union_idx, (len(rows), pool_size))
                else:
                    targets = sample_targets_excluding_self(
                        self._rng_gd, union_idx, np.searchsorted(union_idx, rows), k
                    )
            else:
                targets = sample_rows(self._rng_gd, union_idx, len(rows), k)
            drawn.append((rows, targets))
        return drawn, count

    def _gd_lower(self, dline, key, class_states, class_pools, drawn):
        """One FragmentDelivery per (sender, target) of a class, carrying
        the rumors whose pool holds the target; self-draws are not sent."""
        flat = np.concatenate([t.ravel() for _rows, t in drawn])
        srcs = np.concatenate([np.repeat(rows, t.shape[1]) for rows, t in drawn])
        sent = srcs != flat
        dsts = flat[sent]
        facts = _facts_by_column(
            [_state_facts([state]) for state in class_states],
            bitset.to_flags(class_pools)[:, dsts],
        )
        self._lower(
            ServiceTags.GROUP_DISTRIBUTION, "gd/{}/{}".format(dline, key[0]),
            srcs[sent], dsts[:, None], facts, [max(1, len(f)) for f in facts],
        )

    def _gd_census(self, round_no: int, instance: _Instance) -> None:
        for key in sorted(instance.gd_blocks):
            block = instance.gd_blocks[key]
            injectors = block.distributors.copy()
            if block.census_item is not None:
                # Later iterations: everyone who absorbed the first census
                # has a non-empty hitSet and re-injects.
                bitset.union_into(injectors, block.census_item.holders)
            weight = bitset.popcount(injectors)
            if not weight:
                continue
            item = _Item(
                GDCENSUS,
                born=round_no,
                start=round_no + 1,
                expiry=round_no + instance.schedule.gossip_deadline,
                weight=weight,
                holders=injectors,
            )
            instance.channels[key].items.append(item)
            block.census_item = item

    def _block_end_phase(self, round_no: int) -> None:
        for dline in sorted(self.instances):
            instance = self.instances[dline]
            schedule = instance.schedule
            if not schedule.stages(round_no) & HAND_UP:
                continue
            if round_no < schedule.proxy.uptime:
                continue  # block 0: every service still waiting on uptime
            # Proxy hand-up: everything the group gossiped this block joins
            # the GD waiting set for the next block.
            for key, item in sorted(instance.px_items.items()):
                waiting = instance.pending.setdefault(key, {})
                for state in item.content:
                    if round_no > state.expiry:
                        continue
                    holders = waiting.get(state)
                    if holders is None:
                        waiting[state] = item.holders.copy()
                    else:
                        bitset.union_into(holders, item.holders)
            instance.px_items.clear()
            # GroupDistribution publish: the block's hitSets enter AllGossip.
            for key, block in sorted(instance.gd_blocks.items()):
                publishers = block.distributors.copy()
                if block.census_item is not None:
                    bitset.union_into(publishers, block.census_item.holders)
                content = [
                    (state, hits.copy())
                    for state, hits in block.hits.items()
                    if np.any(hits)
                ]
                weight = bitset.popcount(publishers)
                if not content or not weight:
                    continue
                item = _Item(
                    DSHARE,
                    born=round_no,
                    start=round_no + 1,
                    expiry=round_no + instance.schedule.allgossip_deadline,
                    weight=weight,
                    holders=publishers,
                    content=(key, content),
                )
                self.all_channel.items.append(item)
                # Sources among the publishers fold the share into their
                # hit matrix immediately (self-delivery at inject).
                self._merge_dshare(item, publishers)
            instance.gd_blocks.clear()

    def _merge_dshare(self, item: _Item, new_holders: np.ndarray) -> None:
        key, content = item.content
        sources = np.fromiter(
            (state.src for state, _hits in content), np.int64, len(content)
        )
        for i in np.flatnonzero(bitset.test_bits(new_holders, sources)):
            state, hits = content[i]
            if state.confirmed or state.retired:
                continue
            known = state.src_known.get(key)
            if known is None:
                state.src_known[key] = hits.copy()
            else:
                bitset.union_into(known, hits)
            state.confirm_dirty = True

    # ------------------------------------------------------------------
    # Gossip spreading
    # ------------------------------------------------------------------

    def _spread_phase(self, round_no: int) -> None:
        for dline in sorted(self.instances):
            instance = self.instances[dline]
            for key in sorted(instance.channels):
                channel = instance.channels[key]
                if channel.items:
                    self._spread_channel(round_no, channel)
        if self.all_channel.items:
            self._spread_channel(round_no, self.all_channel)

    def _spread_channel(self, round_no: int, channel: _Channel) -> None:
        channel.items = [i for i in channel.items if i.expiry >= round_no]
        live = [
            i for i in channel.items
            if i.start <= round_no and round_no - i.born <= channel.horizon
        ]
        if not live or channel.k <= 0:
            return
        holders = np.stack([item.holders for item in live])
        senders = bitset.to_indices(np.bitwise_or.reduce(holders, axis=0), self.n)
        m = len(senders)
        if not m:
            return
        count = m * channel.k
        weights = np.fromiter((item.weight for item in live), np.int64, len(live))
        size = channel.k * int(
            weights @ np.bitwise_count(holders).sum(axis=1, dtype=np.int64)
        )
        self._tally(channel.service, count, size)
        if not channel.all_to_all:
            targets = sample_targets_excluding_self(
                self._rng_gossip, channel.scope_idx, channel.pos_of[senders], channel.k
            )
            self._audit_spread_borders(live, holders, senders, targets)
        if self._lowering():
            if channel.all_to_all:  # each holder sends to its scope but itself
                cols = np.arange(channel.size - 1)
                targets = channel.scope_idx[cols + (cols >= channel.pos_of[senders][:, None])]
            # (items, senders): who broadcasts what this round, in one gather.
            sending = bitset.test_bits(holders, senders)
            # Senders holding the same items share one Facts.
            facts = _facts_by_column([_item_facts(item) for item in live], sending)
            self._lower(
                channel.service, channel.name, senders, targets, facts,
                (weights @ sending).tolist(),
            )
        if channel.all_to_all:
            for item in live:
                self._spread_all_to_all(channel, item)
            return
        # Targets lie in the scope, so an item every scope member holds
        # gains no holder: reach is scattered for the open items only.
        open_rows = np.flatnonzero((channel.scope_mask & ~holders).any(axis=1))
        if not len(open_rows):
            return
        sending = bitset.test_bits(holders[open_rows], senders)
        for i, rows in zip(open_rows.tolist(), sending):
            item = live[i]
            fresh = bitset.andnot(
                bitset.from_indices(targets[rows].ravel(), self.n), item.holders
            )
            if fresh.any():
                bitset.union_into(item.holders, fresh)
                self._spread_deliveries.append((item, fresh))

    def _spread_all_to_all(self, channel: _Channel, item: _Item) -> None:
        holding = bitset.popcount(item.holders)
        if not holding:
            return
        if item.kind in (FRAG, PXSHARE):
            states = [item.content] if item.kind == FRAG else item.content
            for state in states:
                allowed_in = bitset.popcount(state.allowed & channel.scope_mask)
                allowed_holding = bitset.popcount(state.allowed & item.holders)
                self.auditor.add_border(
                    allowed_holding * (channel.size - allowed_in)
                )
        fresh = bitset.andnot(channel.scope_mask, item.holders)
        if fresh.any():
            bitset.union_into(item.holders, fresh)
            self._spread_deliveries.append((item, fresh))

    def _audit_spread_borders(self, live, holders, senders, targets) -> None:
        """Tally this channel-round's fragment-bearing sends that leave a
        rumor's allowed set: one row per (item, rumor) it carries."""
        item_rows: List[int] = []
        allowed: List[np.ndarray] = []
        for i, item in enumerate(live):
            if item.kind == FRAG:
                states = (item.content,)
            elif item.kind == PXSHARE:
                states = item.content
            else:
                continue
            for state in states:
                item_rows.append(i)
                allowed.append(state.allowed)
        if not item_rows:
            return
        allowed_bits = bitset.to_flags(np.stack(allowed))
        # A border message runs from a holder inside the allowed set to a
        # target outside it; gather the allowed flag of those sends only.
        sending = bitset.test_bits(holders[item_rows], senders)
        row, col = np.nonzero(sending & (allowed_bits[:, senders] != 0))
        inside = allowed_bits[row[:, None], targets[col]]
        self.auditor.add_border(inside.size - np.count_nonzero(inside))

    def _delivery_effects(self, round_no) -> None:
        """Apply end-of-round delivery callbacks for spread + fresh items."""
        for key, item in self._new_frag_items:
            # A source self-delivers its own fragment at inject: it joins
            # the GD waiting set for the next block, like any recipient.
            dline, partition, group = key
            self._frag_arrival(
                self.instances[dline], (partition, group), item.content,
                item.holders,
            )
        for item, fresh in self._spread_deliveries:
            if item.kind == FRAG:
                state = item.content
                dline, partition, group = item.key
                self._frag_arrival(
                    self.instances[dline], (partition, group), state, fresh
                )
                bitset.union_into(state.audit_holders((partition, group)), fresh)
            elif item.kind == PXSHARE:
                _dline, partition, group = item.key
                for state in item.content:
                    # Receivers' partial-rumor buffers; handed up at block
                    # end via item.holders, so only the audit set updates.
                    bitset.union_into(
                        state.audit_holders((partition, group)), fresh
                    )
            elif item.kind == DSHARE:
                self._merge_dshare(item, fresh)
        self._new_frag_items = []
        self._spread_deliveries = []

    def _frag_arrival(self, instance, key, state, mask) -> None:
        waiting = instance.pending.setdefault(key, {})
        holders = waiting.get(state)
        if holders is None:
            waiting[state] = mask.copy()
        else:
            bitset.union_into(holders, mask)

    # ------------------------------------------------------------------
    # Reassembly and retirement
    # ------------------------------------------------------------------

    def _reassemble(self, round_no: int) -> None:
        if not self._reassembly_dirty:
            return
        num_groups = self.partition_set.num_groups
        seen = set()
        for state, partition in self._reassembly_dirty:
            token = (id(state), partition)
            if token in seen or state.retired:
                continue
            seen.add(token)
            conj = None
            complete = True
            for group in range(num_groups):
                got = state.got.get((partition, group))
                if got is None:
                    complete = False
                    break
                conj = got.copy() if conj is None else conj & got
            if not complete:
                continue
            fresh = bitset.andnot(conj, state.delivered)
            idx = bitset.to_indices(fresh, self.n)
            if not len(idx):
                continue
            data = state.merged(partition)
            for pid in idx:
                self.record_delivery(
                    int(pid), round_no, state.rid, data, "reassembled"
                )
            bitset.union_into(state.delivered, fresh)
        self._reassembly_dirty = []

    def _retire_rumors(self, round_no: int) -> None:
        # A rumor is finished once its deadline has passed and every channel
        # item referencing it has expired; two extra blocks cover the last
        # hand-up / publish / confirmation hop.
        if round_no % 32:
            return
        keep: List[_RumorState] = []
        for state in self.rumors:
            slack = 2 * self.instances[state.dline].schedule.block_len + 2
            if round_no > state.expiry + slack:
                self.auditor.retire_rumor(round_no, state)
                state.retired = True
            else:
                keep.append(state)
        self.rumors = keep

    def finalize(self) -> None:
        """Audit any rumor still live when the run ends."""
        for state in self.rumors:
            self.auditor.retire_rumor(self.round, state)
        self.rumors = []
