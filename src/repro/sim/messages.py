"""Message envelopes and knowledge-revealing payloads.

Every point-to-point message in the simulator is a :class:`Message` tagged
with the service that produced it.  Message-complexity metrics aggregate by
that tag, which is how the benches separately account for Proxy,
GroupDistribution, GroupGossip, AllGossip and fallback traffic (Lemma 7,
Theorem 11).

Confidentiality auditing is payload-driven: any payload object may implement
``reveals()`` returning the knowledge atoms a recipient learns from it (see
:mod:`repro.audit.confidentiality`).  Payloads that carry no rumor-derived
information (pure control traffic) simply do not implement it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Tuple

__all__ = [
    "Message",
    "ServiceTags",
    "KnowledgeAtom",
    "plaintext_atom",
    "fragment_atom",
    "reveals_of",
    "total_size",
]


class ServiceTags:
    """Canonical service tags used across the code base."""

    CONFIDENTIAL = "confidential"  # ConfidentialGossip fallback ("shoot") traffic
    DIRECT_ACK = "direct_ack"  # hardened direct-send acknowledgements
    PROXY = "proxy"  # Proxy requests and acks
    GROUP_DISTRIBUTION = "group_distribution"  # GD fragment deliveries
    GROUP_GOSSIP = "group_gossip"  # filtered continuous gossip
    ALL_GOSSIP = "all_gossip"  # unfiltered continuous gossip
    BASELINE = "baseline"  # baseline protocols
    KEY_TREE = "key_tree"  # crypto baseline re-keying traffic
    COVER = "cover"  # Section-7 cover traffic

    ALL: Tuple[str, ...] = (
        CONFIDENTIAL,
        DIRECT_ACK,
        PROXY,
        GROUP_DISTRIBUTION,
        GROUP_GOSSIP,
        ALL_GOSSIP,
        BASELINE,
        KEY_TREE,
        COVER,
    )


# A knowledge atom is a hashable token describing one piece of rumor-derived
# information a process may hold:
#   ("plaintext", rid)                  - the full rumor contents
#   ("fragment", rid, partition, group) - one XOR fragment of one partition
KnowledgeAtom = Tuple[Any, ...]


def plaintext_atom(rid: object) -> KnowledgeAtom:
    """Atom meaning "knows the full contents of rumor ``rid``"."""
    return ("plaintext", rid)


def fragment_atom(rid: object, partition: int, group: int) -> KnowledgeAtom:
    """Atom meaning "knows fragment ``group`` of partition ``partition``."""
    return ("fragment", rid, partition, group)


class Message:
    """A point-to-point message sent over the synchronous network.

    ``size`` is an abstract size measure (number of rumor fragments plus
    control entries carried); the paper counts *messages*, but Section 7
    discusses communication (bit) complexity, which benches E10/E11 estimate
    through this field.

    ``channel`` routes the message to one service *instance* at the
    receiver (e.g. the GroupGossip instance of partition 3, group 1, of a
    particular deadline class); ``service`` remains the coarse tag used for
    message-complexity accounting.

    Implemented as a ``__slots__`` class (not a dataclass): construction is
    on the per-send hot path, and slots cut both per-message memory and
    attribute-access time.  Nothing is checked here: endpoints are
    validated once, in :meth:`~repro.sim.network.Network.route`, and a
    message read off the wire by :mod:`repro.net.codec`, which refuses
    negative pids and sizes.
    """

    __slots__ = ("src", "dst", "service", "payload", "size", "channel")

    def __init__(
        self,
        src: int,
        dst: int,
        service: str,
        payload: Any = None,
        size: int = 1,
        channel: str = "",
    ) -> None:
        self.src = src
        self.dst = dst
        self.service = service
        self.payload = payload
        self.size = size
        self.channel = channel

    def __repr__(self) -> str:
        return (
            "Message(src={!r}, dst={!r}, service={!r}, payload={!r}, "
            "size={!r}, channel={!r})".format(
                self.src, self.dst, self.service, self.payload,
                self.size, self.channel,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.service == other.service
            and self.payload == other.payload
            and self.size == other.size
            and self.channel == other.channel
        )

    __hash__ = None  # type: ignore[assignment]  # mutable envelope, like the old dataclass

    def reveals(self) -> Iterator[KnowledgeAtom]:
        """Knowledge atoms the recipient learns from this message."""
        return reveals_of(self.payload)


def reveals_of(payload: Any) -> Iterator[KnowledgeAtom]:
    """Extract knowledge atoms from an arbitrary payload.

    Recurses through lists/tuples/sets so composite payloads (e.g. a gossip
    message carrying several fragments) are handled uniformly.
    """
    if payload is None:
        return iter(())
    reveal = getattr(payload, "reveals", None)
    if callable(reveal):
        return iter(reveal())
    if isinstance(payload, (list, tuple, set, frozenset)):
        if isinstance(payload, (set, frozenset)):
            # Sets iterate in hash order, which varies across interpreters
            # (and across runs with PYTHONHASHSEED for str-keyed payloads);
            # audit and telemetry output must not depend on it.  ``repr`` is
            # a deterministic total order for the atom-bearing payload types
            # (tuples, dataclasses, numbers) without requiring mutual
            # comparability.
            payload = sorted(payload, key=repr)

        def _walk(items: Iterable[Any]) -> Iterator[KnowledgeAtom]:
            for item in items:
                for atom in reveals_of(item):
                    yield atom

        return _walk(payload)
    return iter(())


def total_size(messages: List[Message]) -> int:
    """Sum of the abstract sizes of ``messages``."""
    return sum(message.size for message in messages)
