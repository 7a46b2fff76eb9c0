"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.gossip.rumor import Rumor, RumorId
from repro.sim.engine import SimObserver, fanouts
from repro.sim.messages import Message, ServiceTags, fragment_atom, plaintext_atom


@pytest.fixture
def rng():
    return random.Random(12345)


def mk_rumor(
    src: int = 0,
    seq: int = 0,
    data: bytes = b"secret-data!",
    deadline: int = 64,
    dest=(1, 2),
    injected_at: int = 0,
) -> Rumor:
    return Rumor(
        rid=RumorId(src, seq),
        data=data,
        deadline=deadline,
        dest=frozenset(dest),
        injected_at=injected_at,
    )


def mk_message(
    src: int = 0,
    dst: int = 1,
    service: str = ServiceTags.BASELINE,
    payload=None,
    size: int = 1,
    channel: str = "test",
) -> Message:
    return Message(
        src=src, dst=dst, service=service, payload=payload, size=size, channel=channel
    )


def deliver(auditor, round_no: int, *messages: Message) -> None:
    """Hand ``messages`` to ``auditor`` as the engine would: cut into
    fan-outs."""
    auditor.on_fanouts(round_no, fanouts(messages))


def atom_holders(auditor, rids=None) -> dict:
    """Every knowledge atom of ``rids`` (default: the auditor's registered
    rumors) that some process holds -> its holders, as the auditor's
    ``holders`` reports them."""
    rids = auditor.rumors if rids is None else rids
    atoms = [plaintext_atom(rid) for rid in rids] + [
        fragment_atom(rid, partition, group)
        for rid in rids
        for partition in range(auditor.num_partitions)
        for group in range(auditor.num_groups)
    ]
    held = {atom: auditor.holders(atom) for atom in atoms}
    return {atom: pids for atom, pids in held.items() if pids}


class DeliveryEdges(SimObserver):
    """Collects ``(round, src, dst)`` of every delivered message."""

    def __init__(self):
        self.edges = set()

    def on_deliver(self, round_no: int, message: Message) -> None:
        self.edges.add((round_no, message.src, message.dst))
