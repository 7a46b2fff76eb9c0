"""XOR secret splitting of rumors into fragments (Sections 4.1 and 6.2).

The paper's confidentiality mechanism is the simplest instantiation of
secret sharing [34, 36]: to split a rumor ``z`` into ``g`` fragments, draw
``g - 1`` uniformly random strings ``z_0 .. z_{g-2}`` and set
``z_{g-1} = z xor z_0 xor ... xor z_{g-2}``.  Any ``g - 1`` fragments are
jointly independent of ``z`` (information-theoretic secrecy); all ``g``
fragments XOR back to ``z``.

Each :class:`Fragment` also carries the *metadata* the protocol needs —
rumor id, destination set, deadline class, expiry — none of which reveals
the rumor contents (the metadata leak is discussed in Section 7 and
addressed by :mod:`repro.core.extensions`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from repro.gossip.rumor import Rumor, RumorId
from repro.sim.messages import KnowledgeAtom, fragment_atom

__all__ = [
    "Fragment",
    "xor_bytes",
    "split_data",
    "split_rumor",
    "merge_fragments",
    "can_reconstruct",
]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR of equal-length strings."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal lengths ({} vs {})".format(len(a), len(b)))
    return bytes(x ^ y for x, y in zip(a, b))


def split_data(data: bytes, groups: int, rng: random.Random) -> List[bytes]:
    """Split ``data`` into ``groups`` XOR shares.

    Every proper subset of the result is distributed uniformly at random,
    independent of ``data``; the XOR of all shares equals ``data``.
    """
    if groups < 2:
        raise ValueError("need at least 2 fragments for secrecy")
    shares: List[bytes] = [rng.randbytes(len(data)) for _ in range(groups - 1)]
    last = data
    for share in shares:
        last = xor_bytes(last, share)
    shares.append(last)
    return shares


@dataclass(frozen=True)
class Fragment:
    """One XOR share of one rumor, for one (partition, group) slot.

    Attributes
    ----------
    rid, dest:
        Rumor metadata: identifier (which names the source) and destination set.
    partition, group, total_groups:
        Which partition's split this share belongs to and which group of
        that partition may carry it.
    data:
        The share bytes (uniformly random in isolation).
    dline:
        The trimmed (power-of-two) deadline class of the rumor.
    expiry:
        Absolute round after which distributing the fragment is pointless
        (the rumor's true deadline).
    """

    rid: RumorId
    partition: int
    group: int
    total_groups: int
    data: bytes
    dest: FrozenSet[int]
    dline: int
    expiry: int

    def __post_init__(self) -> None:
        if not 0 <= self.group < self.total_groups:
            raise ValueError(
                "group {} out of range for {} groups".format(self.group, self.total_groups)
            )

    @property
    def uid(self) -> Tuple:
        """Unique token for dedup in gossip and audits."""
        return ("frag", self.rid, self.partition, self.group)

    def reveals(self) -> Iterator[KnowledgeAtom]:
        yield fragment_atom(self.rid, self.partition, self.group)

    def expired(self, round_no: int) -> bool:
        return round_no > self.expiry

    def __str__(self) -> str:
        return "Frag({} l={} g={}/{})".format(
            self.rid, self.partition, self.group, self.total_groups
        )


def split_rumor(
    rumor: Rumor,
    partition: int,
    groups: int,
    rng: random.Random,
    dline: int,
    expiry: int,
) -> List[Fragment]:
    """Split ``rumor`` into ``groups`` fragments for one partition.

    Called once per partition; every partition gets an *independent* split
    (fresh randomness), so fragments from different partitions cannot be
    combined — Lemma 3's "q cannot construct rho ... from any combination
    of different partitions".
    """
    shares = split_data(rumor.data, groups, rng)
    return [
        Fragment(
            rid=rumor.rid,
            partition=partition,
            group=index,
            total_groups=groups,
            data=share,
            dest=rumor.dest,
            dline=dline,
            expiry=expiry,
        )
        for index, share in enumerate(shares)
    ]


def merge_fragments(fragments: Sequence[Fragment]) -> bytes:
    """Reassemble a rumor from the complete fragment set of one partition.

    Raises ``ValueError`` unless the fragments are exactly the
    ``total_groups`` distinct shares of one (rumor, partition) pair — a
    process holding fewer shares *cannot* call this successfully, which is
    the code-level form of the paper's secrecy observation.
    """
    if not fragments:
        raise ValueError("no fragments to merge")
    first = fragments[0]
    expected = first.total_groups
    seen_groups = set()
    for fragment in fragments:
        if fragment.rid != first.rid or fragment.partition != first.partition:
            raise ValueError("fragments from different splits cannot be merged")
        if fragment.total_groups != expected:
            raise ValueError("inconsistent total_groups")
        if fragment.group in seen_groups:
            raise ValueError("duplicate fragment for group {}".format(fragment.group))
        seen_groups.add(fragment.group)
    if len(seen_groups) != expected:
        raise ValueError(
            "need all {} fragments, have groups {}".format(expected, sorted(seen_groups))
        )
    data = fragments[0].data
    for fragment in fragments[1:]:
        data = xor_bytes(data, fragment.data)
    return data


def can_reconstruct(fragments: Iterable[Fragment]) -> Dict[Tuple[RumorId, int], List[Fragment]]:
    """Group fragments by (rumor, partition) and return the complete sets.

    Used both by the protocol's reassembly step and by the
    confidentiality auditor (which asks: could this process, or this
    coalition, reconstruct any rumor it should not know?).
    """
    buckets: Dict[Tuple[RumorId, int], Dict[int, Fragment]] = {}
    for fragment in fragments:
        key = (fragment.rid, fragment.partition)
        buckets.setdefault(key, {})[fragment.group] = fragment
    complete: Dict[Tuple[RumorId, int], List[Fragment]] = {}
    for key, by_group in buckets.items():
        total = next(iter(by_group.values())).total_groups
        if len(by_group) == total:
            complete[key] = [by_group[g] for g in sorted(by_group)]
    return complete
