"""The vectorized CONGOS round kernel (DESIGN.md §11).

One :class:`ArrayEngine` replaces the object stack's shells, network,
``CongosNode`` and per-pid services for fault-free runs; the top and
bottom of the round — adversary decision, its validation, injections'
record and announcement, observer hooks, clock — are the shared
:class:`~repro.sim.engine.RoundEngine` skeleton's.  The protocol's
*schedule* (blocks, iterations, gossip windows) and its *message counts*
are reproduced exactly; its randomized draws (gossip targets, GD/proxy
sampling) are statistically equivalent but come from independent numpy
streams, which is the equivalence-mode contract: the gate is
distributional parity of delivery/QoD metrics plus a clean
confidentiality audit, not rng-stream identity.

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
multi-iteration blocks (dline ≥ 256) keep the full-group collaborator
census for fanout, which only touches later-iteration sends whose target
pools are almost always already hit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.audit.confidentiality import Violation
from repro.core.config import CongosParams
from repro.core.deadlines import pipeline_deadline
from repro.core.partitions import PartitionSet
from repro.gossip.epidemic import default_fanout
from repro.gossip.rumor import Rumor
from repro.sim.clock import BlockSchedule
from repro.sim.engine import RoundEngine
from repro.sim.messages import ServiceTags
from repro.sim.rng import derive_seed

from repro.fastcore import bitset
from repro.fastcore.kernels import (
    gd_hit_batch,
    merge_shares,
    sample_rows,
    sample_targets_excluding_self,
    split_shares,
)

__all__ = ["ArrayEngine", "FastConfidentialityAuditor", "UnsupportedScenario"]

# Item kinds on the gossip channels.
FRAG = "frag"          # one real item per (rumor, partition): the source's own-group fragment
PXSHARE = "pxshare"    # per-block cohort: proxy buffers + requester census beacons
GDCENSUS = "gdcensus"  # per-block cohort: GroupDistribution hitSet shares
DSHARE = "dshare"      # per-block cohort: AllGossip DistributionShares


class UnsupportedScenario(ValueError):
    """The scenario uses a feature the array engine does not model."""


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
        "fallback_round",
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

    def __init__(self, rumor: Rumor, n: int, dline: int, round_no: int, fraction: float):
        self.rumor = rumor
        self.rid = rumor.rid
        self.src = rumor.rid.src
        self.n = n
        self.dline = dline
        self.injected_at = round_no
        self.expiry = round_no + rumor.deadline
        horizon = rumor.deadline
        if fraction < 1.0:
            horizon = max(1, math.ceil(fraction * horizon))
        self.fallback_round = round_no + horizon
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
    )

    def __init__(self, scope_idx: np.ndarray, n: int, fanout_scale: float, service: str):
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
        "block_len",
        "iteration_len",
        "iterations_per_block",
        "gossip_deadline",
        "allgossip_deadline",
        "channels",
        "pending",
        "px_queue",
        "px_share_due",
        "px_items",
        "acks_due",
        "gd_blocks",
        "gd_fanout",
    )

    def __init__(self, dline: int):
        schedule = BlockSchedule(dline)
        self.dline = dline
        self.block_len = schedule.block_len
        self.iteration_len = schedule.iteration_len
        self.iterations_per_block = schedule.iterations_per_block
        self.gossip_deadline = schedule.gossip_deadline
        self.allgossip_deadline = schedule.allgossip_deadline
        self.channels: Dict[Tuple[int, int], _Channel] = {}
        # GD waiting sets: (partition, group) -> {rumor state -> holder bitset}.
        self.pending: Dict[Tuple[int, int], Dict[_RumorState, np.ndarray]] = {}
        # Cross-group fragments awaiting a proxy block:
        # (partition, group) -> [(inject round, rumor state)].
        self.px_queue: Dict[Tuple[int, int], List[Tuple[int, _RumorState]]] = {}
        # Proxy share cohorts staged at block start, materialised at bs+1:
        # [(due round, (partition, group), injector mask, weight, frag states)].
        self.px_share_due: List[Tuple[int, Tuple[int, int], np.ndarray, int, List[_RumorState]]] = []
        # Live proxy-share items of the current block, consumed at hand-up.
        self.px_items: Dict[Tuple[int, int], _Item] = {}
        # Ack traffic scheduled for the iteration's last round: round -> count.
        self.acks_due: Dict[int, int] = {}
        self.gd_blocks: Dict[Tuple[int, int], _GdBlock] = {}
        self.gd_fanout: Dict[Tuple[int, int], int] = {}

    def position(self, round_no: int) -> int:
        rib = round_no % self.block_len
        if rib // self.iteration_len >= self.iterations_per_block:
            return -1
        return rib % self.iteration_len


class ArrayEngine(RoundEngine):
    """Vectorized fault-free CONGOS simulation on the round skeleton.

    Supplies the skeleton's four backend pieces: an injection splits the
    rumor into channel items (:meth:`_inject_state`), the round body is
    the vectorized phases, ``behavior(pid)`` is ``None`` (there are no
    per-pid objects), and a crash or restart is refused — everyone is
    alive, always, until alive masks land.
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
            ServiceTags.ALL_GOSSIP,
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

    def _deliver_plaintext(
        self, round_no: int, state: _RumorState, targets: np.ndarray, path: str
    ) -> None:
        self.auditor.record_plaintext(round_no, state, targets)
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
            rumor, self.n, dline if dline is not None else 0, round_no,
            self.params.fallback_early_fraction,
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
                expiry=round_no + instance.gossip_deadline,
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
                if not state.confirmed and self._covered(state):
                    state.confirmed = True
            if state.confirmed or state.retired:
                continue
            if round_no >= state.fallback_round:
                targets = bitset.to_indices(state.dest_mask, self.n)
                targets = targets[targets != state.src]
                if self.params.fallback_scope == "unconfirmed":
                    covered = self._covered_destinations(state)
                    targets = targets[~bitset.test_bits(covered, targets)]
                self._tally(ServiceTags.CONFIDENTIAL, len(targets), len(targets))
                self._deliver_plaintext(round_no, state, targets, "shoot")
                state.retired = True

    def _covered(self, state: _RumorState) -> bool:
        for partition in range(self.partition_set.count):
            ok = True
            for group in range(self.partition_set.num_groups):
                known = state.src_known.get((partition, group))
                if known is None or not bitset.is_subset(state.dest_mask, known):
                    ok = False
                    break
            if ok:
                return True
        return False

    def _covered_destinations(self, state: _RumorState) -> np.ndarray:
        covered = bitset.empty(self.n)
        for partition in range(self.partition_set.count):
            conj = None
            for group in range(self.partition_set.num_groups):
                known = state.src_known.get((partition, group))
                if known is None:
                    conj = None
                    break
                conj = known.copy() if conj is None else conj & known
            if conj is not None:
                bitset.union_into(covered, conj & state.dest_mask)
        return covered

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
                    ServiceTags.GROUP_GOSSIP,
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
        block_len = instance.block_len
        rib = round_no % block_len
        position = instance.position(round_no)
        # Uptime gating: services activate only once the process has been
        # up a full block (wakeup = 0 for every pid in fault-free runs),
        # so block 0 is pure gossip + direct traffic.
        if rib == 0 and round_no >= block_len:
            self._px_begin_block(round_no, instance)
        for due, key, injectors, weight, frag_states in list(instance.px_share_due):
            if due == round_no:
                self._px_make_share(round_no, instance, key, injectors, weight, frag_states)
        instance.px_share_due = [
            entry for entry in instance.px_share_due if entry[0] > round_no
        ]
        if rib == 1 and round_no >= self.params.gd_uptime(instance.dline):
            self._gd_begin_block(round_no, instance)
        if position == 1:
            self._gd_send(round_no, instance)
        elif position == 2:
            self._gd_census(round_no, instance)
        acks = instance.acks_due.pop(round_no, None)
        if acks:
            self._tally(ServiceTags.PROXY, acks, acks)

    def _px_begin_block(self, round_no: int, instance: _Instance) -> None:
        ack_round = round_no + instance.iteration_len - 1
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
                instance.acks_due[ack_round] = (
                    instance.acks_due.get(ack_round, 0) + len(targets)
                )
                target_mask = bitset.from_indices(targets, self.n)
                bitset.union_into(proxies_union, target_mask)
                for state in states:
                    bitset.union_into(state.audit_holders(key), target_mask)
                    outside = (~bitset.test_bits(state.allowed, targets)).sum()
                    self.auditor.add_border(int(outside))
            # Proxies inject their buffered fragments next round; active
            # requesters inject census beacons into their *own* group's
            # channel the same round (fragment-free, so those cohorts ride
            # along for traffic and spread only).
            injector_count = bitset.popcount(proxies_union)
            instance.px_share_due.append(
                (round_no + 1, key, proxies_union, injector_count, frag_states)
            )
            for src in requesters:
                own_key = (partition, int(self._group_of[partition][src]))
                beacon = bitset.from_indices([src], self.n)
                instance.px_share_due.append(
                    (round_no + 1, own_key, beacon, 1, [])
                )

    def _px_make_share(
        self, round_no, instance, key, injectors, weight, frag_states
    ) -> None:
        if weight <= 0:
            return
        item = _Item(
            PXSHARE,
            born=round_no,
            start=round_no + 1,
            expiry=round_no + instance.gossip_deadline,
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
        first_iteration = (round_no % instance.block_len) // instance.iteration_len == 0
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
            pool_bits = bitset.to_flags(pools)
            # Equivalence classes by which rumors each sender holds: all
            # senders in a class share the same target pool (minus self).
            # A sender's signature is its column of ``holds`` packed to
            # bytes, most significant first, so the lexicographic row sort
            # visits classes in the numeric order of the bit pattern —
            # whatever the number of live rumors.
            holds = bitset.test_bits(partials, senders)
            signature = np.packbits(holds, axis=0, bitorder="little")[::-1].T
            _classes, first, class_of = np.unique(
                signature, axis=0, return_index=True, return_inverse=True
            )
            class_of = class_of.reshape(-1)  # (senders, 1) on numpy 2.0.0
            for c, representative in enumerate(first):
                class_senders = senders[class_of == c]
                in_class = np.flatnonzero(holds[:, representative])
                class_pools = pools[in_class]
                union_pool = np.bitwise_or.reduce(class_pools, axis=0)
                union_idx = bitset.to_indices(union_pool, self.n)
                if not len(union_idx):
                    continue
                self._gd_send_class(
                    key, block, class_senders, union_idx, union_pool,
                    [states[j] for j in in_class], class_pools,
                    pool_bits[in_class], fanout,
                )

    def _gd_send_class(
        self, key, block, class_senders, union_idx, union_pool,
        class_states, class_pools, class_pool_bits, fanout,
    ) -> None:
        pool_size = len(union_idx)
        inside = bitset.test_bits(union_pool, class_senders)
        pos_lookup = np.full(self.n, -1, dtype=np.int64)
        pos_lookup[union_idx] = np.arange(pool_size, dtype=np.int64)
        target_blocks: List[np.ndarray] = []  # (rows, k) matrices of target pids
        count = 0
        for rows_mask, excl_self in ((inside, True), (~inside, False)):
            rows = class_senders[rows_mask]
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
                        self._rng_gd, union_idx, pos_lookup[rows], k
                    )
            else:
                targets = sample_rows(self._rng_gd, union_idx, len(rows), k)
            target_blocks.append(targets)
        if not count:
            return
        flat = np.concatenate([t.ravel() for t in target_blocks])
        appropriate, hits = gd_hit_batch(class_pools, class_pool_bits, flat)
        for j in np.flatnonzero(hits.any(axis=1)):
            state, new_mask = class_states[j], hits[j]
            bitset.union_into(block.hits[state], new_mask)
            got = state.got.setdefault(key, bitset.empty(self.n))
            bitset.union_into(got, new_mask)
            bitset.union_into(state.audit_holders(key), new_mask)
            self._reassembly_dirty.append((state, key[0]))
        self._tally(
            ServiceTags.GROUP_DISTRIBUTION, count, max(count, int(appropriate.sum()))
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
                expiry=round_no + instance.gossip_deadline,
                weight=weight,
                holders=injectors,
            )
            instance.channels[key].items.append(item)
            block.census_item = item

    def _block_end_phase(self, round_no: int) -> None:
        for dline in sorted(self.instances):
            instance = self.instances[dline]
            if round_no % instance.block_len != instance.block_len - 1:
                continue
            if round_no < instance.block_len:
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
                    expiry=round_no + instance.allgossip_deadline,
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
        if channel.all_to_all:
            for item in live:
                self._spread_all_to_all(channel, item)
            return
        targets = sample_targets_excluding_self(
            self._rng_gossip, channel.scope_idx, channel.pos_of[senders], channel.k
        )
        # (items, senders): who broadcasts what this round, in one gather.
        sending = bitset.test_bits(holders, senders)
        self._audit_spread_borders(live, sending, senders, targets)
        for item, rows in zip(live, sending):
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
            states = [item.content] if item.kind is FRAG else item.content
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

    def _audit_spread_borders(self, live, sending, senders, targets) -> None:
        """Tally this channel-round's fragment-bearing sends that leave a
        rumor's allowed set: one row per (item, rumor) it carries."""
        item_rows: List[int] = []
        allowed: List[np.ndarray] = []
        for i, item in enumerate(live):
            if item.kind is FRAG:
                states = (item.content,)
            elif item.kind is PXSHARE:
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
        row, col = np.nonzero(sending[item_rows] & (allowed_bits[:, senders] != 0))
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
            if item.kind is FRAG:
                state = item.content
                dline, partition, group = item.key
                self._frag_arrival(
                    self.instances[dline], (partition, group), state, fresh
                )
                bitset.union_into(state.audit_holders((partition, group)), fresh)
            elif item.kind is PXSHARE:
                _dline, partition, group = item.key
                for state in item.content:
                    # Receivers' partial-rumor buffers; handed up at block
                    # end via item.holders, so only the audit set updates.
                    bitset.union_into(
                        state.audit_holders((partition, group)), fresh
                    )
            elif item.kind is DSHARE:
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
            slack = 2 * (state.dline // 4) + 2
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
