"""Synchronous crash/restart simulation substrate (Section 2 of the paper)."""

from repro.sim.clock import BlockSchedule, RoundClock
from repro.sim.engine import AdversaryView, Engine, SimObserver
from repro.sim.events import (
    CrashEvent,
    EventLog,
    InjectEvent,
    MidRoundDecision,
    RestartEvent,
    RoundDecision,
)
from repro.sim.messages import (
    KnowledgeAtom,
    Message,
    ServiceTags,
    fragment_atom,
    plaintext_atom,
    reveals_of,
    total_size,
)
from repro.sim.metrics import MessageStats, RoundRecord
from repro.sim.network import DeliveryOutcome, Network
from repro.sim.process import NodeBehavior, ProcessShell
from repro.sim.rng import SeedSequence, derive_rng, derive_seed

__all__ = [
    "AdversaryView",
    "BlockSchedule",
    "CrashEvent",
    "DeliveryOutcome",
    "Engine",
    "EventLog",
    "InjectEvent",
    "KnowledgeAtom",
    "Message",
    "MessageStats",
    "MidRoundDecision",
    "Network",
    "NodeBehavior",
    "ProcessShell",
    "RestartEvent",
    "RoundClock",
    "RoundDecision",
    "RoundRecord",
    "SeedSequence",
    "ServiceTags",
    "SimObserver",
    "derive_rng",
    "derive_seed",
    "fragment_atom",
    "plaintext_atom",
    "reveals_of",
    "total_size",
]
