"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.gossip.rumor import Rumor, RumorId
from repro.sim.engine import SimObserver
from repro.sim.messages import Message, ServiceTags


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


class DeliveryEdges(SimObserver):
    """Collects ``(round, src, dst)`` of every delivered message."""

    def __init__(self):
        self.edges = set()

    def on_deliver(self, round_no: int, message: Message) -> None:
        self.edges.add((round_no, message.src, message.dst))
