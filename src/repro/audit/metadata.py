"""Metadata-exposure auditing (Section 7's discussion, quantified).

CONGOS keeps rumor *contents* confidential but, as the paper notes, "various
other metadata is released: processes learn of the existence of rumors,
roughly how many rumors are active, the source of each rumor, a sequence
number of each rumor, and the set of destinations for each rumor".

This auditor measures exactly that: for every process and every rumor, what
metadata did the process observe?  A fragment reveals the rumor's id (hence
source and sequence number) and its destination set (fragments carry ``D``
as routing metadata); a hitSet entry or confirmation record reveals
existence and one (destination, rumor) pair.

Running it with and without the Section-7 mitigations shows their effect:
destination hiding collapses every observed destination set to a singleton,
pseudonymous ids decouple observed sequence numbers from injection counts,
and cover traffic inflates the apparent rumor count.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Set, Tuple

from repro.core.group_distribution import DistributionShare, FragmentDelivery
from repro.core.proxy import ProxyRequest, ProxyShare
from repro.core.splitting import Fragment
from repro.gossip.rumor import Rumor, RumorId
from repro.sim.engine import Fanout, SimObserver

__all__ = ["MetadataExposure", "MetadataAuditor"]


@dataclass(frozen=True)
class MetadataExposure:
    """Aggregate exposure over a run."""

    rumors: int
    observer_rumor_pairs: int  # outsiders that learned a rumor exists
    dest_set_disclosures: int  # outsiders that saw a rumor's full dest set
    mean_observers_per_rumor: float
    max_dest_set_size_seen: int

    def disclosure_rate(self) -> float:
        if not self.observer_rumor_pairs:
            return 0.0
        return self.dest_set_disclosures / self.observer_rumor_pairs


def _revealed(payload: object) -> Iterator[Tuple[RumorId, Optional[FrozenSet[int]]]]:
    """What ``payload`` tells its receiver, in payload order: ``(rid,
    dest)`` for a rumor's existence and destination set, ``(rid, None)``
    for its existence alone."""
    if isinstance(payload, (Fragment, Rumor)):
        yield payload.rid, payload.dest
    elif isinstance(payload, (ProxyRequest, FragmentDelivery, ProxyShare)):
        for fragment in payload.fragments:
            yield from _revealed(fragment)
    elif isinstance(payload, DistributionShare):
        for _, rid in payload.hits:
            yield rid, None
    elif isinstance(payload, tuple):
        for item in payload:
            yield from _revealed(getattr(item, "payload", item))


class MetadataAuditor(SimObserver):
    """Tracks what each process learns *about* rumors it may not read.

    A payload is walked once per sender fan-out (:meth:`on_fanouts`) and
    what it reveals applied to each destination: any cut gives one state.
    """

    def __init__(self) -> None:
        self.rumors: Dict[RumorId, Rumor] = {}
        self.sources: Dict[RumorId, int] = {}
        # pid -> rids whose existence it observed
        self.knows_existence: Dict[int, Set[RumorId]] = defaultdict(set)
        # pid -> rid -> destination set observed from fragment metadata
        self.knows_dest: Dict[int, Dict[RumorId, FrozenSet[int]]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------

    def on_inject(self, round_no: int, pid: int, rumor: object) -> None:
        if isinstance(rumor, Rumor):
            self.rumors[rumor.rid] = rumor
            self.sources[rumor.rid] = pid

    def on_fanouts(self, round_no: int, fanouts: Sequence[Fanout]) -> None:
        for head, dsts, _ in fanouts:
            revealed = list(_revealed(head.payload))
            for pid in dsts:
                for rid, dest in revealed:
                    self.knows_existence[pid].add(rid)
                    if dest is not None:
                        self.knows_dest[pid][rid] = dest

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def observers_of(self, rid: RumorId) -> Set[int]:
        """Processes outside ``D + {src}`` that know the rumor exists."""
        rumor = self.rumors.get(rid)
        allowed = set(rumor.dest) if rumor else set()
        source = self.sources.get(rid)
        if source is not None:
            allowed.add(source)
        return {
            pid
            for pid, rids in self.knows_existence.items()
            if rid in rids and pid not in allowed
        }

    def dest_disclosed_to(self, rid: RumorId) -> Set[int]:
        """Outsiders that saw the rumor's (full) destination set."""
        return {
            pid
            for pid in self.observers_of(rid)
            if rid in self.knows_dest.get(pid, {})
        }

    def apparent_rumor_count(self, pid: int) -> int:
        """How many rumors does ``pid`` believe exist?  Cover traffic
        inflates this (the observer cannot tell chaff from content)."""
        return len(self.knows_existence.get(pid, ()))

    def exposure(self, n: int) -> MetadataExposure:
        pairs = 0
        disclosures = 0
        per_rumor = []
        max_dest = 0
        for rid in self.rumors:
            observers = self.observers_of(rid)
            per_rumor.append(len(observers))
            pairs += len(observers)
            disclosed = self.dest_disclosed_to(rid)
            disclosures += len(disclosed)
            for pid in disclosed:
                max_dest = max(max_dest, len(self.knows_dest[pid][rid]))
        mean_observers = (
            sum(per_rumor) / len(per_rumor) if per_rumor else 0.0
        )
        return MetadataExposure(
            rumors=len(self.rumors),
            observer_rumor_pairs=pairs,
            dest_set_disclosures=disclosures,
            mean_observers_per_rumor=round(mean_observers, 2),
            max_dest_set_size_seen=max_dest,
        )
