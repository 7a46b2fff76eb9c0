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

Everything it needs of a payload is a :class:`Facts`: the ``(rid, D)`` /
``(rid, None)`` pairs the payload reveals, read once per gossip item and
once per batch object.  The array engine's fan-outs carry a ``Facts``
as their payload, so the auditor runs on every execution path.

Running it with and without the Section-7 mitigations shows their effect:
destination hiding collapses every observed destination set to a singleton,
pseudonymous ids decouple observed sequence numbers from injection counts,
and cover traffic inflates the apparent rumor count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Set, Tuple

from repro.audit.confidentiality import popcount
from repro.core.group_distribution import DistributionShare, FragmentDelivery
from repro.core.proxy import ProxyRequest, ProxyShare
from repro.core.splitting import Fragment
from repro.gossip.rumor import GossipItem, ItemBatch, Rumor, RumorId
from repro.sim.engine import Fanout, SimObserver, UnsupportedScenario

__all__ = ["Facts", "MetadataExposure", "MetadataAuditor", "facts_of"]


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


class Facts(tuple):
    """What a payload tells its receiver about rumors, content aside, in
    payload order: ``(rid, dest)`` for a rumor's existence and destination
    set, ``(rid, None)`` for its existence alone.

    The array engine's fan-outs carry one as their whole payload.  It
    holds no knowledge atoms, so a content question — ``reveals_of``,
    asked by a :class:`~repro.audit.confidentiality.ConfidentialityAuditor`
    handed to an array run — raises instead of answering "nothing".
    """

    __slots__ = ()

    def reveals(self):
        raise UnsupportedScenario(
            "a Facts payload (engine='array') carries routing metadata, not "
            "content; audit content on the object engine"
        )


_FACTS = attrgetter("facts")  # a resolved item's, off its instance dict


@lru_cache(maxsize=1 << 12, typed=True)
def _shared(value: Tuple) -> Tuple:
    """One object per recent ``(rid, dest)`` pair and per item ``Facts``:
    a batch repeats both (fragments of one rumor, shares of one block),
    and repeats then drop out by identity, which hashes in C."""
    return value


def _distinct(values: list) -> list:
    return list(dict(zip(map(id, values), values)).values())


def facts_of(payload: object) -> Facts:
    """The :class:`Facts` of any payload.  A gossip item's and a batch's
    are resolved once and kept on the object as ``facts`` (as
    ``GossipItem.atoms`` is), so a process that never asks never pays."""
    kind = type(payload)
    if kind is Facts:
        return payload
    cache = payload.__dict__ if kind is GossipItem or kind is ItemBatch else {}
    facts = cache.get("facts")
    if facts is None:
        if kind is GossipItem:
            facts = _shared(Facts(map(_shared, facts_of(payload.payload))))
        elif isinstance(payload, tuple):
            try:  # one C pass once every item has been resolved
                parts = list(map(_FACTS, payload))
            except AttributeError:
                parts = list(map(facts_of, payload))
            facts = Facts(_distinct(list(chain.from_iterable(_distinct(parts)))))
        else:
            facts = Facts(dict.fromkeys(_revealed(payload)))
        cache["facts"] = facts
    return facts


def _revealed(payload: object) -> Iterator[Tuple[RumorId, Optional[FrozenSet[int]]]]:
    if isinstance(payload, (Fragment, Rumor)):
        yield payload.rid, payload.dest
    elif isinstance(payload, (ProxyRequest, FragmentDelivery, ProxyShare)):
        for fragment in payload.fragments:
            yield fragment.rid, fragment.dest
    elif isinstance(payload, DistributionShare):
        for _, rid in payload.hits:
            yield rid, None


def _pids(mask: int) -> Set[int]:
    return {pid for pid in range(mask.bit_length()) if mask >> pid & 1}


class MetadataAuditor(SimObserver):
    """Tracks what each process learns *about* rumors it may not read.

    Its state is per rumor, as pid bitmasks: who learned the rumor
    exists, and who saw its destination set (a rid has one ``D``).  A
    fan-out (:meth:`on_fanouts`) ORs its destination mask into the rids
    its payload's :func:`facts_of` names, so any cut gives one state.
    """

    def __init__(self) -> None:
        self.rumors: Dict[RumorId, Rumor] = {}
        self.sources: Dict[RumorId, int] = {}
        # rid -> pids that observed its existence / its destination set
        self.existence: Dict[RumorId, int] = {}
        self.dest_seen: Dict[RumorId, int] = {}
        # rid -> the destination set its fragments carry
        self.dests: Dict[RumorId, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Observer hooks
    # ------------------------------------------------------------------

    def on_inject(self, round_no: int, pid: int, rumor: object) -> None:
        if isinstance(rumor, Rumor):
            self.rumors[rumor.rid] = rumor
            self.sources[rumor.rid] = pid

    def on_fanouts(self, round_no: int, fanouts: Sequence[Fanout]) -> None:
        # Fan-outs sharing one Facts object (an array sender class) merge
        # into one mask first.
        merged: Dict[int, list] = {}
        for head, _, mask in fanouts:
            facts = facts_of(head.payload)
            merged.setdefault(id(facts), [facts, 0])[1] |= mask
        existence, dest_seen, dests = self.existence, self.dest_seen, self.dests
        for facts, mask in merged.values():
            for rid, dest in facts:
                existence[rid] = existence.get(rid, 0) | mask
                if dest is not None:
                    dest_seen[rid] = dest_seen.get(rid, 0) | mask
                    dests[rid] = dest

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _outsiders(self, rid: RumorId) -> int:
        """Every pid but ``D + {src}``, as a (negative, unbounded) mask."""
        rumor = self.rumors.get(rid)
        if rumor is None:
            return -1
        return ~sum(1 << pid for pid in rumor.dest | {self.sources[rid]})

    def observers_of(self, rid: RumorId) -> Set[int]:
        """Processes outside ``D + {src}`` that know the rumor exists."""
        return _pids(self.existence.get(rid, 0) & self._outsiders(rid))

    def dest_disclosed_to(self, rid: RumorId) -> Set[int]:
        """Outsiders that saw the rumor's (full) destination set."""
        return _pids(self.dest_seen.get(rid, 0) & self._outsiders(rid))

    def apparent_rumor_count(self, pid: int) -> int:
        """How many rumors does ``pid`` believe exist?  Cover traffic
        inflates this (the observer cannot tell chaff from content)."""
        return sum(mask >> pid & 1 for mask in self.existence.values())

    def exposure(self, n: int) -> MetadataExposure:
        pairs = 0
        disclosures = 0
        max_dest = 0
        for rid in self.rumors:
            outsiders = self._outsiders(rid)
            pairs += popcount(self.existence.get(rid, 0) & outsiders)
            disclosed = popcount(self.dest_seen.get(rid, 0) & outsiders)
            disclosures += disclosed
            if disclosed:
                max_dest = max(max_dest, len(self.dests[rid]))
        rumors = len(self.rumors)
        return MetadataExposure(
            rumors=rumors,
            observer_rumor_pairs=pairs,
            dest_set_disclosures=disclosures,
            mean_observers_per_rumor=round(pairs / rumors, 2) if rumors else 0.0,
            max_dest_set_size_seen=max_dest,
        )
