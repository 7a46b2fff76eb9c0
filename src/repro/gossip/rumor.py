"""Rumors and gossip items.

A :class:`Rumor` is the application-level object of the paper (Section 2):
a triple ``<z, d, D>`` of data, deadline duration and destination set, plus
an identifier and provenance.  A :class:`GossipItem` is the lower-level unit
circulated by a continuous-gossip service instance (a rumor fragment, a
hitSet share, a confirmation record, ...), with its own absolute expiry
round and destination scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.sim.messages import KnowledgeAtom, plaintext_atom, reveals_of

__all__ = [
    "RumorId",
    "Rumor",
    "GossipItem",
    "ItemBatch",
    "reveal_digest",
    "make_rumor",
]


@dataclass(frozen=True, order=True)
class RumorId:
    """Globally unique rumor identifier: (source pid, per-source counter).

    Section 7 notes the counter could be replaced by a pseudorandom
    identifier to leak less metadata; :mod:`repro.core.extensions` does so.
    """

    src: int
    seq: int

    def __str__(self) -> str:
        return "r{}:{}".format(self.src, self.seq)


@dataclass(frozen=True)
class Rumor:
    """The paper's rumor triple ``<z, d, D>`` with provenance.

    Attributes
    ----------
    rid:
        Unique identifier (source pid + per-source sequence number).
    data:
        The confidential payload ``z`` as bytes.
    deadline:
        Deadline *duration* ``d`` in rounds: the rumor must reach every
        admissible destination by round ``injected_at + deadline``.
    dest:
        The destination set ``D`` (pids allowed to learn ``data``).
    injected_at:
        The round the rumor entered the system (set by the workload).
    """

    rid: RumorId
    data: bytes
    deadline: int
    dest: FrozenSet[int]
    injected_at: int = 0

    def __post_init__(self) -> None:
        if self.deadline < 1:
            raise ValueError("deadline must be at least one round")
        if not isinstance(self.data, bytes):
            raise TypeError("rumor data must be bytes")

    @property
    def expiry(self) -> int:
        """Last round by which the rumor must be delivered."""
        return self.injected_at + self.deadline

    def is_active(self, round_no: int) -> bool:
        """Active = injected no later than ``round_no``, deadline not past."""
        return self.injected_at <= round_no <= self.expiry

    def reveals(self) -> Iterator[KnowledgeAtom]:
        """Carrying a full rumor reveals its plaintext."""
        yield plaintext_atom(self.rid)

    def __str__(self) -> str:
        return "Rumor({}, d={}, |D|={})".format(self.rid, self.deadline, len(self.dest))


_SEQUENCES = {}


def make_rumor(
    src: int,
    data: bytes,
    deadline: int,
    dest,
    injected_at: int = 0,
    seq: Optional[int] = None,
) -> Rumor:
    """Convenience constructor assigning per-source sequence numbers.

    Explicit ``seq`` overrides the automatic counter (workload generators
    manage their own counters to stay deterministic and thread-free; the
    module-level counter exists for interactive/example use).
    """
    if seq is None:
        seq = _SEQUENCES.get(src, 0)
        _SEQUENCES[src] = seq + 1
    return Rumor(
        rid=RumorId(src, seq),
        data=data,
        deadline=deadline,
        dest=frozenset(dest),
        injected_at=injected_at,
    )


@dataclass(frozen=True)
class GossipItem:
    """One unit circulated by a continuous-gossip service.

    ``uid`` must be unique within the service instance (channel).  The
    service promises to hand ``payload`` to every process in ``dest`` (that
    is inside the service's scope and alive long enough) by round
    ``expiry``; what the payload *is* — a fragment, a hitSet, a collaborator
    heartbeat — is opaque to the service.
    """

    uid: Tuple
    origin: int
    payload: object
    expiry: int
    dest: FrozenSet[int]
    born: int = 0

    def reveals(self) -> Iterator[KnowledgeAtom]:
        """A gossip item reveals whatever its payload reveals."""
        return reveals_of(self.payload)

    @cached_property
    def atoms(self) -> Tuple[KnowledgeAtom, ...]:
        """``tuple(self.reveals())``, resolved on first read.

        An item is immutable and re-broadcast for many rounds, and the
        audit reads its atoms on every one of them; a process that never
        audits (a shard worker) never pays.  Not a dataclass field, so
        equality, ``repr`` and the wire codec never see it
        (``cached_property`` writes the instance dict directly, which a
        frozen dataclass allows).
        """
        return tuple(reveals_of(self.payload))

    def expired(self, round_no: int) -> bool:
        return round_no > self.expiry


_ITEM_UID = attrgetter("uid")
_ITEM_ATOMS = attrgetter("atoms")

# (fragment rids, revealing items) — see reveal_digest.
RevealDigest = Tuple[Tuple[RumorId, ...], Tuple[GossipItem, ...]]
# The digest of a batch in which no item reveals anything: the common
# case, shared so that it costs no allocation.
_REVEALS_NOTHING: RevealDigest = ((), ())


def reveal_digest(items: Tuple) -> Optional[RevealDigest]:
    """What a batch of gossip items can tell an auditor, receiver aside.

    Returns ``(fragment rids, revealing)``:

    * ``fragment rids`` — the deduped rids of every fragment atom in the
      batch, in batch order: the rumors whose border a copy of this batch
      can cross;
    * ``revealing`` — the items that reveal anything, first occurrence of
      each uid, in batch order (hitSet shares, confirmations — the bulk
      of gossip volume — reveal nothing and can never affect an audit).

    A pure function of the (immutable) items: nothing in it depends on
    which rumors an auditor has seen registered, so every auditor and
    every round can share one digest.  Atoms are read off the item
    objects in one C pass, so an atom-less item costs no Python-level
    work and no uid hash.  ``None`` when ``items`` holds entries that are
    not gossip items — the caller then walks the payload generically.
    """
    try:
        atoms_of = list(map(_ITEM_ATOMS, items))
    except AttributeError:
        return None
    if not any(atoms_of):
        return _REVEALS_NOTHING
    rids: Dict[RumorId, None] = {}
    revealing: Dict[Tuple, GossipItem] = {}
    for item in compress(items, atoms_of):
        revealing.setdefault(item.uid, item)
        for atom in item.atoms:
            if atom[0] == "fragment":
                rids[atom[1]] = None
    return tuple(rids), tuple(revealing.values())


class ItemBatch(tuple):
    """The items one sender pushes in one round, with their uid set.

    A sender hands the *same* batch object to its whole fanout, and once
    the epidemic saturates nearly every item in it is one the receiver
    already has.  The batch is therefore the unit of work on the receive
    path: ``uids`` lets a receiver rule the whole batch out with one C
    subset test and find what is new with one set difference, and
    :meth:`select` turns that difference back into items in batch order —
    so no per-item Python work is spent on items already known.

    The same sharing makes the batch the unit of *audit* work:
    ``audit_digest`` is what the confidentiality auditor needs of it,
    resolved once per batch object however many destinations, rounds (a
    standing batch is resent for many) and auditors it meets.

    It is a plain ``tuple`` to everything else (the wire codec,
    ``reveals_of``).  The codec writes it as a plain tuple and rebuilds it
    on decode; a payload that does arrive as a plain tuple (a test, the
    reliable-mode expiry flush) is wrapped by the receiver and goes down
    the same path, deriving ``uids`` itself — the auditor digests such a
    tuple on every fan-out instead.

    Set iteration order depends on ``PYTHONHASHSEED`` (uids contain
    ``str``): ``uids`` and anything derived from it may be used for
    membership and set algebra only.  Order always comes from the tuple.
    """

    # A tuple subclass cannot declare non-empty __slots__; ``uids``, the
    # lazily built position index and the reveal digest live in the
    # instance dict.

    uids: FrozenSet[Tuple]

    def __new__(
        cls, items: Iterable[GossipItem], uids: Optional[FrozenSet[Tuple]] = None
    ) -> "ItemBatch":
        self = super().__new__(cls, items)
        # A sender already holds the set (its broadcast dict's keys, hashes
        # included) and passes it in; anyone else's batch derives it here.
        self.uids = frozenset(map(_ITEM_UID, self)) if uids is None else uids
        return self

    @cached_property
    def _positions(self) -> Dict[Tuple, int]:
        """uid -> index of its first occurrence; built once per batch, and
        only if some receiver finds something new in it."""
        positions: Dict[Tuple, int] = {}
        for index, item in enumerate(self):
            positions.setdefault(item.uid, index)
        return positions

    @cached_property
    def audit_digest(self) -> Optional[RevealDigest]:
        """:func:`reveal_digest` of this batch, resolved on first read —
        kept here the way ``atoms`` is kept on a :class:`GossipItem`; a
        process that never audits (a shard worker) never pays."""
        return reveal_digest(self)

    def select(self, uids: Iterable[Tuple]) -> List[GossipItem]:
        """The items with these uids (first occurrence each), in batch order.

        Hashes only the uids asked for, and sorts their positions: the
        order of the argument (a set, typically) never reaches the result.
        """
        positions = self._positions
        return [self[index] for index in sorted(map(positions.__getitem__, uids))]
