"""Adversaries as data: a workload or fault model named by kind and args.

Builders set :class:`AdversarySpec` values as a scenario's
``workload_factory`` / ``fault_factory``, so the scenario compares equal
on rebuild, pickles, and its repr says what the run faces.  Workloads are
injection-only adversaries (:mod:`repro.adversary.base`), so one type
covers both fields.  Adding a kind: write the class, add a :data:`KINDS`
entry.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.adversary.adaptive import (
    GroupKillerAdversary,
    ProxyKillerAdversary,
    SourceKillerAdversary,
)
from repro.adversary.base import Adversary
from repro.adversary.injection import (
    BurstWorkload,
    GroupTrafficWorkload,
    ScriptedWorkload,
    SteadyWorkload,
    Theorem1Workload,
)
from repro.adversary.patterns import AlternatingPartitionFaults, ScriptedFaults
from repro.adversary.random_crash import ChurnAdversary
from repro.core.partitions import PartitionSet
from repro.load.workload import OpenWorkload

__all__ = ["AdversarySpec", "KINDS"]

KINDS: Dict[str, Callable[..., Adversary]] = {
    # Workloads.
    "steady": SteadyWorkload,
    "open": OpenWorkload,
    "burst": BurstWorkload,
    "group-traffic": GroupTrafficWorkload,
    "scripted": ScriptedWorkload,
    "theorem1": Theorem1Workload,
    # Fault models.
    "churn": ChurnAdversary,
    "proxy-killer": ProxyKillerAdversary,
    "group-killer": GroupKillerAdversary.of_group,
    "source-killer": SourceKillerAdversary,
    "rolling-blackout": AlternatingPartitionFaults,
    "scripted-faults": ScriptedFaults,
}

# Constructor parameters the call supplies, never the spec's args.
_SUPPLIED = ("rng", "partitions")


@dataclass(frozen=True)
class AdversarySpec:
    """Build ``KINDS[kind](**args)``; a bad kind or arg fails here, not in
    a pool worker."""

    kind: str
    args: Dict[str, object]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                "unknown adversary kind {!r}; known: {}".format(
                    self.kind, ", ".join(sorted(KINDS))
                )
            )
        signature = inspect.signature(KINDS[self.kind])
        supplied = {k: None for k in _SUPPLIED if k in signature.parameters}
        try:
            signature.bind(**self.args, **supplied)
        except TypeError as exc:
            raise ValueError(
                "bad args for adversary kind {!r}: {}".format(self.kind, exc)
            ) from None

    def __call__(
        self,
        rng: random.Random,
        partitions: Optional[PartitionSet] = None,
        n: Optional[int] = None,
    ) -> Adversary:
        """``spec(rng)`` for a workload, ``spec(rng, partitions, n)`` for a
        fault model — the calls ``harness.runner.assemble`` makes."""
        build = KINDS[self.kind]
        accepted = inspect.signature(build).parameters
        supplied = {"rng": rng, "partitions": partitions}
        return build(
            **self.args, **{k: v for k, v in supplied.items() if k in accepted}
        )
