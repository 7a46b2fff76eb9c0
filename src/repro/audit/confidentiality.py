"""Confidentiality auditing (Definition 2, Lemma 3, Lemma 14).

The auditor is an engine observer, entirely outside the protocol: it
inspects every *delivered* message's payload for knowledge atoms (rumor
plaintexts and XOR fragments) and maintains, per atom, every process that
has ever learned it — including across crashes, because a curious process
could have copied data out before crashing.  A curious receiver reads
every payload it is handed, so every atom delivered counts, whatever uid
or envelope it came under.

Its unit of work is the sender's *fan-out*, not the message: a sender
hands one payload object to all of its targets, so the round's deliveries
are audited one (sender, payload) run at a time, with the run's
destinations folded into one pid bitmask.  The engine makes the cut
(:func:`repro.sim.engine.fanouts`) and hands it to
:meth:`ConfidentialityAuditor.on_fanouts`, which judges each run's
:func:`~repro.gossip.rumor.reveal_digest` once, for every payload kind.

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
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.adversary.collusion import CoalitionStrategy, min_cover_size
from repro.core.confidential_gossip import DirectAck
from repro.gossip.rumor import ItemBatch, Rumor, RumorId, reveal_digest
from repro.sim.engine import Fanout, SimObserver
from repro.sim.messages import fragment_atom, plaintext_atom

__all__ = [
    "Violation",
    "CoalitionFinding",
    "ConfidentialityAuditor",
    "pids_of",
    "popcount",
    "shed_rumor_leaks",
]


def _popcount_bin(mask: int) -> int:
    return bin(mask).count("1")


#: Number of set bits of a non-negative int (a pid bitmask).
#: ``int.bit_count`` arrived in Python 3.10; the package supports 3.9.
popcount = getattr(int, "bit_count", _popcount_bin)


def pids_of(mask: int) -> Iterator[int]:
    """The pids of a non-negative pid bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    Who holds what is kept once, as pid bitmasks (bit ``p`` = pid ``p``):
    per rumor, the pids allowed to know it, and per knowledge atom (a
    plaintext or one fragment), the pids that hold it.  The engine hands
    it each round's deliveries cut into sender fan-outs
    (:meth:`on_fanouts`), and every fan-out is judged one way, whatever
    its payload: the payload's reveal digest
    (:func:`~repro.gossip.rumor.reveal_digest`) against the fan-out's
    destination mask.  A curious receiver learns every atom it is handed,
    so border copies, fresh holders and violations fall out of a few
    ``&`` / ``|`` / ``~`` on ints per atom, never a test per destination;
    its state and its violations, in order, are the same under any cut,
    down to one message per fan-out.
    """

    def __init__(self, num_partitions: int, num_groups: int):
        self.num_partitions = num_partitions
        self.num_groups = num_groups
        # rid -> rumor metadata
        self.rumors: Dict[RumorId, Rumor] = {}
        self.violations: List[Violation] = []
        # rid -> number of fragment copies crossing the D+{src} border
        self.border_messages: Dict[RumorId, int] = defaultdict(int)
        self.total_border_messages = 0
        # rid -> D + {source} (registered rumors only)
        self._allowed: Dict[RumorId, int] = {}
        # knowledge atom -> pids holding it
        self._holders: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------

    def on_inject(self, round_no: int, pid: int, rumor: object) -> None:
        if not isinstance(rumor, Rumor):
            return
        rid = rumor.rid
        self.rumors[rid] = rumor
        self._allowed[rid] = sum(1 << dst for dst in {pid, *rumor.dest})
        atom = plaintext_atom(rid)
        self._holders[atom] = self._holders.get(atom, 0) | 1 << pid

    def on_fanouts(self, round_no: int, fanouts: Sequence[Fanout]) -> None:
        """Audit a round's deliveries, one sender fan-out at a time: the
        payload's digest once against all of the fan-out's destinations
        (``dsts`` in delivered order, ``mask`` the same pids as bits)."""
        for head, dsts, mask in fanouts:
            payload = head.payload
            if type(payload) is ItemBatch:
                rids, atoms = payload.audit_digest
            else:
                rids, atoms = reveal_digest(payload)
            raised: List[Violation] = []
            if isinstance(payload, DirectAck):
                self._check_ack(round_no, payload, atoms, dsts, raised)
            if atoms:
                self._count_border(head.src, rids, mask)
                self._absorb(round_no, atoms, mask, raised)
            if raised:
                # Destinations in delivered order, then atoms in payload
                # order: the order a message-at-a-time audit raises in.
                position = {dst: index for index, dst in enumerate(dsts)}
                raised.sort(key=lambda violation: position[violation.pid])
                self.violations += raised

    def _count_border(self, src: int, rids, mask: int) -> None:
        """Count the copies of ``rids``' fragments that ``src`` sends to
        the pids in ``mask`` across the ``D + {src}`` border — per copy,
        repeats included (Theorem 12 counts message copies, not novel
        fragments)."""
        for rid in rids:
            allowed = self._allowed.get(rid, 0)
            if allowed >> src & 1:
                copies = popcount(mask & ~allowed)
                if copies:
                    self.border_messages[rid] += copies
                    self.total_border_messages += copies

    def _absorb(
        self, round_no: int, atoms, mask: int, raised: List[Violation]
    ) -> None:
        """The pids in ``mask`` learn ``atoms``: record the new holders of
        each atom and append to ``raised`` what the outsiders among them
        now breach (a rumor not yet registered is recorded, not judged)."""
        holders = self._holders
        for atom in atoms:
            held = holders.get(atom, 0)
            new = mask & ~held
            if not new:
                continue
            holders[atom] = held | new
            rid = atom[1]
            allowed = self._allowed.get(rid)
            outside = 0 if allowed is None else new & ~allowed
            if not outside:
                continue
            if atom[0] == "plaintext":
                raised.extend(
                    Violation(
                        "plaintext", rid, pid, round_no,
                        "plaintext delivered outside destination set",
                    )
                    for pid in pids_of(outside)
                )
                continue
            # An outsider holding another group of this partition breaches
            # multiplicity (Lemma 14); one holding every group can rebuild.
            partition, group = atom[2], atom[3]
            groups = self._groups(rid, partition)
            some_other, every_other = 0, -1
            for other, holding in enumerate(groups):
                if other != group:
                    some_other |= holding
                    every_other &= holding
            for pid in pids_of(outside & some_other):
                held_groups = [
                    other for other, holding in enumerate(groups)
                    if holding >> pid & 1
                ]
                raised.append(Violation(
                    "multiplicity", rid, pid, round_no,
                    "outsider holds groups {} of partition {}".format(
                        held_groups, partition
                    ),
                ))
            raised.extend(
                Violation(
                    "reconstruction", rid, pid, round_no,
                    "outsider completed partition {}".format(partition),
                )
                for pid in pids_of(outside & every_other)
            )

    def _groups(self, rid: RumorId, partition: int) -> List[int]:
        """The holder mask of each group's fragment of one partition."""
        holders = self._holders
        return [
            holders.get(fragment_atom(rid, partition, group), 0)
            for group in range(self.num_groups)
        ]

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def holders(self, atom: Tuple) -> FrozenSet[int]:
        """The pids holding knowledge ``atom`` (a plaintext or fragment
        atom, :mod:`repro.sim.messages`)."""
        return frozenset(pids_of(self._holders.get(atom, 0)))

    def allowed_set(self, rid: RumorId) -> FrozenSet[int]:
        """Processes allowed to know the rumor: ``D`` plus the source."""
        return frozenset(pids_of(self._allowed.get(rid, 0)))

    def _outside(self, rid: RumorId, n: int) -> int:
        return ((1 << n) - 1) & ~self._allowed.get(rid, 0)

    def outsiders(self, rid: RumorId, n: int) -> FrozenSet[int]:
        return frozenset(pids_of(self._outside(rid, n)))

    def _check_ack(
        self,
        round_no: int,
        ack: DirectAck,
        atoms,
        dsts: List[int],
        raised: List[Violation],
    ) -> None:
        """Direct-send acks must be pure control traffic.

        A well-formed :class:`DirectAck` carries a rumor id and the
        acker's pid only.  If one ever reveals knowledge atoms (its
        digest's ``atoms``) or carries raw bytes (a regression in the
        reliability layer), each of ``dsts`` gets an ``ack_leak``
        violation — the hardened direct-send path may add redundancy,
        never knowledge.  The atoms are still absorbed afterwards, so a
        leaky ack also feeds the plaintext/fragment checks.
        """
        carries_bytes = any(
            isinstance(value, (bytes, bytearray))
            for value in vars(ack).values()
        )
        if atoms or carries_bytes:
            detail = "direct ack carries {}".format(
                "knowledge atoms" if atoms else "payload bytes"
            )
            raised.extend(
                Violation("ack_leak", ack.rid, dst, round_no, detail)
                for dst in dsts
            )

    # ------------------------------------------------------------------
    # Coalition analysis (Section 6)
    # ------------------------------------------------------------------

    def holder_map(
        self, rid: RumorId, n: int
    ) -> Dict[Tuple[int, int], Set[int]]:
        """(partition, group) -> outsiders holding that fragment."""
        outside = self._outside(rid, n)
        holders: Dict[Tuple[int, int], Set[int]] = {}
        for partition in range(self.num_partitions):
            for group, holding in enumerate(self._groups(rid, partition)):
                if holding & outside:
                    holders[(partition, group)] = set(pids_of(holding & outside))
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
        """Can this specific coalition pool a complete partition?  Only
        its outsiders count: pooling is an OR over their holder bits."""
        pooled = self._outside(rid, n) & sum(
            1 << pid for pid in set(coalition) if 0 <= pid < n
        )
        for partition in range(self.num_partitions):
            if all(holding & pooled for holding in self._groups(rid, partition)):
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
