"""Confidentiality auditing (Definition 2, Lemma 3, Lemma 14).

The auditor is an engine observer, entirely outside the protocol: it
inspects every *delivered* message's payload for knowledge atoms (rumor
plaintexts and XOR fragments) and maintains, per process, everything that
process has ever learned — including across crashes, because a curious
process could have copied data out before crashing.

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
from itertools import compress
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.adversary.collusion import CoalitionStrategy, min_cover_size
from repro.core.confidential_gossip import DirectAck
from repro.gossip.rumor import ItemBatch, Rumor, RumorId
from repro.sim.engine import SimObserver
from repro.sim.messages import Message, reveals_of

__all__ = [
    "Violation",
    "CoalitionFinding",
    "ConfidentialityAuditor",
    "shed_rumor_leaks",
]


# (borders, revealing) — see ConfidentialityAuditor._digest_batch.
_BatchDigest = Tuple[Tuple[Tuple[RumorId, FrozenSet[int]], ...], ItemBatch]

_ITEM_ATOMS = attrgetter("atoms")
# The digest of a batch in which no item reveals anything: the common case,
# shared so that it costs no allocation.
_NOTHING_TO_AUDIT: _BatchDigest = ((), ItemBatch(()))


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
    """Tracks knowledge flow and detects confidentiality breaches."""

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
        # uids of the atom-bearing gossip items each process has absorbed.
        self._seen_items: Dict[int, Set[Tuple]] = defaultdict(set)
        # A sender reuses one payload tuple for its whole fanout, so each
        # batch is delivered many times per round.  Digest the batch once
        # per payload object (see _digest_batch) and reuse the digest for
        # every delivery that round.  Keyed by id(), with the payload
        # stored alongside its digest: the reference pins the object for
        # the round (an id can otherwise be reused the moment its owner is
        # collected — e.g. wire-decoded batches with no engine keeping
        # them alive) and the identity check on lookup rejects any stale
        # entry.  Cleared on round change.  This is the only batch-level
        # cache; an item's atoms live on the GossipItem itself.
        self._batch_cache: Dict[int, Tuple[Tuple, Optional[_BatchDigest]]] = {}
        self._batch_cache_round: Optional[int] = None

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
        src = message.src
        dst = message.dst
        payload = message.payload
        if isinstance(payload, DirectAck):
            # Fall through to normal absorption afterwards: a leaky ack's
            # atoms must still feed the plaintext/fragment checks.
            self._check_ack(round_no, message)
        if isinstance(payload, tuple):
            # A gossip batch.  Digest it once per payload object per round
            # (see _digest_batch), then do only per-destination work here.
            if round_no != self._batch_cache_round:
                self._batch_cache.clear()
                self._batch_cache_round = round_no
            cached = self._batch_cache.get(id(payload))
            if cached is not None and cached[0] is payload:
                digest = cached[1]
            else:
                digest = self._digest_batch(payload)
                self._batch_cache[id(payload)] = (payload, digest)
            if digest is not None:
                borders, revealing = digest
                # Border copies are counted per message even for repeats
                # (Theorem 12 counts message copies, not novel fragments).
                for rid, allowed in borders:
                    if src in allowed and dst not in allowed:
                        self.border_messages[rid] += 1
                        self.total_border_messages += 1
                seen = self._seen_items[dst]
                uids = revealing.uids
                if not uids <= seen:
                    # ``fresh`` iterates in hash order; select() puts the
                    # absorbs back in batch order.
                    fresh = uids - seen
                    seen |= fresh
                    for item in revealing.select(fresh):
                        self._absorb_atoms(round_no, src, dst, item.atoms, None)
                return
            # Batch contains non-item entries; take the generic path.
        crossed_border: Set[RumorId] = set()
        self._absorb_atoms(round_no, src, dst, message.reveals(), crossed_border)
        for rid in crossed_border:
            self.border_messages[rid] += 1
            self.total_border_messages += 1

    def _digest_batch(self, payload: Tuple) -> Optional[_BatchDigest]:
        """Destination-independent digest of one gossip batch.

        Returns ``(borders, revealing)``:

        * ``borders`` — for per-message border accounting, the deduped
          rids of all fragment atoms in the batch, each with its allowed
          set resolved here, once, instead of once per delivery;
        * ``revealing`` — the items that reveal anything, as an
          :class:`ItemBatch` of their own (hitSet shares, confirmations —
          the bulk of gossip volume — reveal nothing and can never affect
          the audit).  A delivery to a process that absorbed them all is
          one subset test on its uid set; otherwise ``select`` yields the
          rest in batch order.

        Atoms are read off the item objects in one C pass, so an atom-less
        item costs no Python-level work and no uid hash.  Returns ``None``
        when the batch holds entries that are not gossip items — callers
        then walk the payload generically.
        """
        try:
            atoms_of = list(map(_ITEM_ATOMS, payload))
        except AttributeError:
            return None
        if not any(atoms_of):
            return _NOTHING_TO_AUDIT
        frag_rids: Dict[RumorId, None] = {}
        for atoms in filter(None, atoms_of):
            for atom in atoms:
                if atom[0] == "fragment":
                    frag_rids[atom[1]] = None
        borders = tuple((rid, self.allowed_set(rid)) for rid in frag_rids)
        return borders, ItemBatch(compress(payload, atoms_of))

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
