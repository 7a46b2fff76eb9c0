"""CRRI adversaries: workloads, fault models, adaptive attackers, coalitions."""

from repro.adversary.adaptive import (
    GroupKillerAdversary,
    IsolatorAdversary,
    ProxyKillerAdversary,
    SourceKillerAdversary,
)
from repro.adversary.base import Adversary, ComposedAdversary, NullAdversary
from repro.adversary.collusion import (
    CoalitionStrategy,
    GreedyCoalition,
    StaticRandomCoalition,
    min_cover_size,
)
from repro.adversary.injection import (
    BurstWorkload,
    InjectionWorkload,
    ScriptedWorkload,
    SteadyWorkload,
    Theorem1Workload,
    theorem1_density,
)
from repro.adversary.patterns import AlternatingPartitionFaults, ScriptedFaults
from repro.adversary.random_crash import (
    BurstCrashAdversary,
    ChurnAdversary,
    CrashOnceAdversary,
)

__all__ = [
    "Adversary",
    "AlternatingPartitionFaults",
    "BurstCrashAdversary",
    "BurstWorkload",
    "ChurnAdversary",
    "CoalitionStrategy",
    "ComposedAdversary",
    "CrashOnceAdversary",
    "GreedyCoalition",
    "GroupKillerAdversary",
    "InjectionWorkload",
    "IsolatorAdversary",
    "NullAdversary",
    "ProxyKillerAdversary",
    "ScriptedFaults",
    "ScriptedWorkload",
    "SourceKillerAdversary",
    "StaticRandomCoalition",
    "SteadyWorkload",
    "Theorem1Workload",
    "min_cover_size",
    "theorem1_density",
]
