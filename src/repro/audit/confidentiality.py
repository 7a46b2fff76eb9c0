"""Confidentiality auditing (Definition 2, Lemma 3, Lemma 14).

The auditor is an engine observer, entirely outside the protocol: it
inspects every *delivered* message's payload for knowledge atoms (rumor
plaintexts and XOR fragments) and maintains, per process, everything that
process has ever learned — including across crashes, because a curious
process could have copied data out before crashing.

Its unit of work is the sender's *fan-out*, not the message: a gossip
sender hands one batch object to all of its targets, so the round's
deliveries are audited one (sender, batch) run at a time, with the run's
destinations folded into one pid bitmask (see
:meth:`ConfidentialityAuditor.on_deliver_round`).

Checks provided:

* **plaintext violations** — a process outside ``D + {source}`` received
  the rumor plaintext;
* **reconstruction violations** — a single outsider collected all groups
  of some partition (it can XOR the rumor together);
* **multiplicity breaches** — an outsider holds two or more fragments of
  the *same* partition (the invariant behind Lemma 14's "no process that
  is not in the destination set learns more than one fragment"); not yet
  a reconstruction for ``tau + 1 > 2``, but a protocol bug;
* **coalition analysis** — for any ``tau`` and coalition strategy, could
  the pooled knowledge reconstruct a rumor (Theorem 16's guarantee is
  "no" for coalitions of size ``<= tau``);
* **border messages** — fragment copies crossing from ``D + {source}`` to
  outsiders, the quantity Theorem 12's lower bound counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.adversary.collusion import CoalitionStrategy, min_cover_size
from repro.core.confidential_gossip import DirectAck
from repro.gossip.rumor import ItemBatch, Rumor, RumorId, reveal_digest
from repro.sim.engine import SimObserver
from repro.sim.messages import Message, reveals_of

__all__ = [
    "Violation",
    "CoalitionFinding",
    "ConfidentialityAuditor",
    "popcount",
    "shed_rumor_leaks",
]


def _popcount_bin(mask: int) -> int:
    return bin(mask).count("1")


#: Number of set bits of a non-negative int (a pid bitmask).
#: ``int.bit_count`` arrived in Python 3.10; the package supports 3.9.
popcount = getattr(int, "bit_count", _popcount_bin)


def shed_rumor_leaks(result) -> List[str]:
    """Audit that arrivals shed by admission control never surfaced.

    An open workload (:class:`repro.load.workload.OpenWorkload`) draws a
    rumor's confidential payload at *arrival* time — before admission —
    so a shed arrival is a secret the system declined to carry.  Nothing
    of it may exist in the run: its payload must appear in no injected
    rumor (admission resurrecting a shed entry would be a bug) and in no
    delivered payload anywhere.  Returns human-readable violations; an
    empty list is a clean verdict.  Runs without shed records (closed
    workloads, underload) are trivially clean.
    """
    workload = getattr(result, "workload", None)
    shed = getattr(workload, "shed_records", None)
    if not shed:
        return []
    by_payload = {record.data: record for record in shed}
    leaks: List[str] = []
    for rumor in workload.injected:
        record = by_payload.get(rumor.data)
        if record is not None:
            leaks.append(
                "shed arrival (src {}, shed r{} [{}]) was injected as {}".format(
                    record.src, record.shed_round, record.reason, rumor.rid
                )
            )
    for (rid, pid), (round_no, data, path) in result.delivery.deliveries.items():
        record = by_payload.get(data)
        if record is not None:
            leaks.append(
                "shed arrival (src {}, shed r{} [{}]) delivered to pid {} "
                "as {} via {} in r{}".format(
                    record.src,
                    record.shed_round,
                    record.reason,
                    pid,
                    rid,
                    path,
                    round_no,
                )
            )
    return leaks


@dataclass(frozen=True)
class Violation:
    """One confidentiality breach."""

    kind: str  # "plaintext" | "reconstruction" | "multiplicity" | "ack_leak"
    rid: RumorId
    pid: int
    round_no: int
    detail: str = ""


@dataclass(frozen=True)
class CoalitionFinding:
    """Result of a coalition check for one rumor."""

    rid: RumorId
    coalition: FrozenSet[int]
    reconstructs: bool
    partition: Optional[int] = None


class ConfidentialityAuditor(SimObserver):
    """Tracks knowledge flow and detects confidentiality breaches.

    The engine hands it each round's deliveries whole
    (:meth:`on_deliver_round`); :meth:`on_deliver` is the same audit for
    one message.  Which processes have absorbed a gossip item, and which
    may know a rumor, are kept as pid bitmasks (bit ``p`` = pid ``p``),
    so a fan-out's border copies and fresh (item, destination) pairs fall
    out of a few ``&`` / ``~`` on ints instead of a test per destination.
    """

    def __init__(self, num_partitions: int, num_groups: int):
        self.num_partitions = num_partitions
        self.num_groups = num_groups
        # rid -> rumor metadata
        self.rumors: Dict[RumorId, Rumor] = {}
        self.sources: Dict[RumorId, int] = {}
        # pid -> set of knowledge atoms
        self.knowledge: Dict[int, Set[Tuple]] = defaultdict(set)
        # (rid, partition, group) -> pids holding the fragment
        self.fragment_holders: Dict[Tuple[RumorId, int, int], Set[int]] = defaultdict(set)
        # rid -> pids who saw the plaintext
        self.plaintext_holders: Dict[RumorId, Set[int]] = defaultdict(set)
        self.violations: List[Violation] = []
        # rid -> number of fragment copies crossing the D+{src} border
        self.border_messages: Dict[RumorId, int] = defaultdict(int)
        self.total_border_messages = 0
        self._allowed_cache: Dict[RumorId, FrozenSet[int]] = {}
        # The same sets as pid bitmasks (registered rumors only).
        self._allowed_masks: Dict[RumorId, int] = {}
        # uid of an atom-bearing gossip item -> mask of the pids that have
        # absorbed it.  Nothing is cached per batch here: a batch's digest
        # lives on the ItemBatch, an item's atoms on the GossipItem.
        self._item_holders: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------

    def on_inject(self, round_no: int, pid: int, rumor: object) -> None:
        if not isinstance(rumor, Rumor):
            return
        self.rumors[rumor.rid] = rumor
        self.sources[rumor.rid] = pid
        self.knowledge[pid].add(("plaintext", rumor.rid))
        self.plaintext_holders[rumor.rid].add(pid)

    def on_deliver(self, round_no: int, message: Message) -> None:
        """Audit one delivered message: a fan-out of one."""
        self.on_deliver_round(round_no, (message,))

    def on_deliver_round(
        self, round_no: int, delivered: Sequence[Message]
    ) -> None:
        """Audit a round's deliveries, one sender fan-out at a time.

        A fan-out is a maximal run of consecutive messages with the same
        ``src`` and the *same payload object* in which no destination
        repeats (a repeat starts a new run: border copies are counted per
        message).  Its destinations are folded into one bitmask and the
        run is audited once; anything that is not a tuple payload is
        audited on its own.
        """
        count = len(delivered)
        index = 0
        while index < count:
            message = delivered[index]
            index += 1
            payload = message.payload
            if not isinstance(payload, tuple):
                self._audit_single(round_no, message)
                continue
            src = message.src
            dst = message.dst
            dsts = [dst]
            mask = 1 << dst
            while index < count:
                message = delivered[index]
                if message.payload is not payload or message.src != src:
                    break
                dst = message.dst
                bit = 1 << dst
                if mask & bit:
                    break
                mask |= bit
                dsts.append(dst)
                index += 1
            self._audit_fanout(round_no, src, payload, dsts, mask)

    def _audit_fanout(
        self, round_no: int, src: int, payload: Tuple, dsts: List[int], mask: int
    ) -> None:
        """One batch from ``src`` to ``dsts`` (delivered order; ``mask``
        is the same pids as bits)."""
        if type(payload) is ItemBatch:
            digest = payload.audit_digest
        else:
            digest = reveal_digest(payload)
        if digest is None:
            # Batch contains non-item entries; take the generic path.
            for dst in dsts:
                self._audit_payload(round_no, src, dst, payload)
            return
        rids, revealing = digest
        if not revealing:
            return
        # Border copies are counted per message even for repeats
        # (Theorem 12 counts message copies, not novel fragments).
        for rid in rids:
            allowed = self._allowed_mask(rid)
            if allowed >> src & 1:
                copies = popcount(mask & ~allowed)
                if copies:
                    self.border_messages[rid] += copies
                    self.total_border_messages += copies
        holders = self._item_holders
        fresh: List[Tuple[int, Tuple]] = []
        for item in revealing:
            uid = item.uid
            held = holders.get(uid, 0)
            new = mask & ~held
            if new:
                holders[uid] = held | mask
                fresh.append((new, item.atoms))
        if not fresh:
            return
        # Destinations in delivered order, items in batch order: exactly
        # the order a message-at-a-time audit absorbs in, so violations
        # are appended in that order too.
        for dst in dsts:
            bit = 1 << dst
            for new, atoms in fresh:
                if new & bit:
                    self._absorb_atoms(round_no, src, dst, atoms, None)

    def _audit_single(self, round_no: int, message: Message) -> None:
        """One message whose payload is not a batch."""
        if isinstance(message.payload, DirectAck):
            # Absorb normally afterwards: a leaky ack's atoms must still
            # feed the plaintext/fragment checks.
            self._check_ack(round_no, message)
        self._audit_payload(round_no, message.src, message.dst, message.payload)

    def _audit_payload(
        self, round_no: int, src: int, dst: int, payload: object
    ) -> None:
        """The generic path: walk whatever the payload reveals."""
        crossed_border: Set[RumorId] = set()
        self._absorb_atoms(round_no, src, dst, reveals_of(payload), crossed_border)
        for rid in crossed_border:
            self.border_messages[rid] += 1
            self.total_border_messages += 1

    def _absorb_atoms(
        self,
        round_no: int,
        src: int,
        dst: int,
        atoms,
        crossed_border: Optional[Set[RumorId]],
    ) -> None:
        known = self.knowledge[dst]
        for atom in atoms:
            if atom[0] == "fragment":
                rid = atom[1]
                if (
                    crossed_border is not None
                    and rid not in crossed_border
                    and self._is_border(rid, src, dst)
                ):
                    crossed_border.add(rid)
                if atom in known:
                    continue
                known.add(atom)
                _, rid, partition, group = atom
                self.fragment_holders[(rid, partition, group)].add(dst)
                self._check_fragments(round_no, rid, partition, dst)
            elif atom[0] == "plaintext":
                if atom in known:
                    continue
                known.add(atom)
                rid = atom[1]
                self.plaintext_holders[rid].add(dst)
                self._check_plaintext(round_no, rid, dst)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def allowed_set(self, rid: RumorId) -> FrozenSet[int]:
        """Processes allowed to know the rumor: ``D`` plus the source."""
        cached = self._allowed_cache.get(rid)
        if cached is not None:
            return cached
        rumor = self.rumors.get(rid)
        if rumor is None:
            return frozenset()
        allowed = set(rumor.dest)
        source = self.sources.get(rid)
        if source is not None:
            allowed.add(source)
        result = frozenset(allowed)
        self._allowed_cache[rid] = result
        return result

    def _allowed_mask(self, rid: RumorId) -> int:
        """:meth:`allowed_set` as a pid bitmask (0 while unregistered)."""
        mask = self._allowed_masks.get(rid)
        if mask is None:
            if rid not in self.rumors:
                return 0
            mask = 0
            for pid in self.allowed_set(rid):
                mask |= 1 << pid
            self._allowed_masks[rid] = mask
        return mask

    def outsiders(self, rid: RumorId, n: int) -> FrozenSet[int]:
        return frozenset(range(n)) - self.allowed_set(rid)

    def _is_border(self, rid: RumorId, src: int, dst: int) -> bool:
        allowed = self.allowed_set(rid)
        return src in allowed and dst not in allowed

    def _check_ack(self, round_no: int, message: Message) -> None:
        """Direct-send acks must be pure control traffic.

        A well-formed :class:`DirectAck` carries a rumor id and the
        acker's pid only.  If one ever reveals knowledge atoms or carries
        raw bytes (a regression in the reliability layer), that is an
        ``ack_leak`` violation — the hardened direct-send path may add
        redundancy, never knowledge.
        """
        payload = message.payload
        atoms = list(reveals_of(payload))
        carries_bytes = any(
            isinstance(value, (bytes, bytearray))
            for value in vars(payload).values()
        )
        if atoms or carries_bytes:
            self.violations.append(
                Violation(
                    kind="ack_leak",
                    rid=payload.rid,
                    pid=message.dst,
                    round_no=round_no,
                    detail="direct ack carries {}".format(
                        "knowledge atoms" if atoms else "payload bytes"
                    ),
                )
            )

    def _check_plaintext(self, round_no: int, rid: RumorId, pid: int) -> None:
        if rid not in self.rumors:
            return
        if pid not in self.allowed_set(rid):
            self.violations.append(
                Violation(
                    kind="plaintext",
                    rid=rid,
                    pid=pid,
                    round_no=round_no,
                    detail="plaintext delivered outside destination set",
                )
            )

    def _check_fragments(
        self, round_no: int, rid: RumorId, partition: int, pid: int
    ) -> None:
        if rid not in self.rumors or pid in self.allowed_set(rid):
            return
        held = [
            group
            for group in range(self.num_groups)
            if pid in self.fragment_holders.get((rid, partition, group), ())
        ]
        if len(held) >= 2:
            self.violations.append(
                Violation(
                    kind="multiplicity",
                    rid=rid,
                    pid=pid,
                    round_no=round_no,
                    detail="outsider holds groups {} of partition {}".format(
                        held, partition
                    ),
                )
            )
        if len(held) == self.num_groups:
            self.violations.append(
                Violation(
                    kind="reconstruction",
                    rid=rid,
                    pid=pid,
                    round_no=round_no,
                    detail="outsider completed partition {}".format(partition),
                )
            )

    # ------------------------------------------------------------------
    # Coalition analysis (Section 6)
    # ------------------------------------------------------------------

    def holder_map(
        self, rid: RumorId, n: int
    ) -> Dict[Tuple[int, int], Set[int]]:
        """(partition, group) -> outsiders holding that fragment."""
        outsiders = self.outsiders(rid, n)
        holders: Dict[Tuple[int, int], Set[int]] = {}
        for partition in range(self.num_partitions):
            for group in range(self.num_groups):
                pids = self.fragment_holders.get((rid, partition, group), set())
                outside = {p for p in pids if p in outsiders}
                if outside:
                    holders[(partition, group)] = outside
        return holders

    def min_coalition_size(self, rid: RumorId, n: int) -> Optional[int]:
        """Smallest outsider coalition that could reconstruct the rumor.

        ``None`` means no coalition of outsiders can reconstruct at all
        (some fragment of every partition never left the allowed set).
        """
        holders = self.holder_map(rid, n)
        best: Optional[int] = None
        for partition in range(self.num_partitions):
            size = min_cover_size(holders, partition, self.num_groups)
            if size is not None and (best is None or size < best):
                best = size
        return best

    def coalition_reconstructs(
        self, rid: RumorId, coalition: Set[int], n: int
    ) -> Tuple[bool, Optional[int]]:
        """Can this specific coalition pool a complete partition?"""
        outsiders = self.outsiders(rid, n)
        effective = set(coalition) & set(outsiders)
        # Pooled plaintext counts too (a leak, but checked elsewhere).
        for partition in range(self.num_partitions):
            covered = 0
            for group in range(self.num_groups):
                holders = self.fragment_holders.get((rid, partition, group), set())
                if holders & effective:
                    covered += 1
            if covered == self.num_groups:
                return True, partition
        return False, None

    def check_coalitions(
        self,
        strategy: CoalitionStrategy,
        tau: int,
        n: int,
    ) -> List[CoalitionFinding]:
        """Evaluate one coalition per rumor under ``strategy``."""
        findings: List[CoalitionFinding] = []
        for rid in self.rumors:
            outsiders = self.outsiders(rid, n)
            if not outsiders:
                continue
            holders = self.holder_map(rid, n)
            coalition = strategy.select(
                rid,
                outsiders,
                holders,
                self.num_partitions,
                self.num_groups,
                tau,
            )
            reconstructs, partition = self.coalition_reconstructs(rid, coalition, n)
            findings.append(
                CoalitionFinding(
                    rid=rid,
                    coalition=frozenset(coalition),
                    reconstructs=reconstructs,
                    partition=partition,
                )
            )
        return findings

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def violation_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"plaintext": 0, "reconstruction": 0, "multiplicity": 0}
        for violation in self.violations:
            counts[violation.kind] = counts.get(violation.kind, 0) + 1
        return counts

    def is_clean(self) -> bool:
        """No plaintext, reconstruction or ack-leak violations
        (Definition 2, plus the direct-ack control-traffic invariant)."""
        counts = self.violation_counts()
        return (
            counts["plaintext"] == 0
            and counts["reconstruction"] == 0
            and counts.get("ack_leak", 0) == 0
        )

    def summary(self) -> Dict[str, object]:
        return {
            "rumors": len(self.rumors),
            "violations": self.violation_counts(),
            "border_messages": self.total_border_messages,
        }
