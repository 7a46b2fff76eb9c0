"""Experiment runner: build an audited simulation, run it, collect verdicts.

:func:`assemble` owns the wiring every execution path shares — tests,
examples and benches included:

* the partition set and the :class:`~repro.audit.delivery.DeliveryAuditor`
  (the delivery callback of every node factory);
* the confidentiality auditor observing every delivered message;
* a :class:`~repro.adversary.base.ComposedAdversary` of the scenario's
  workload and fault model;
* the fail-fast monitor and the observer list.

:func:`run_congos_scenario` assembles once and hands the
:class:`RunSetup` to the backend the scenario names: :func:`engine_for`
builds the in-process engine (object or array) from the setup, and the
sharded backend builds its own.  Either runs the rounds and returns
``setup.result(engine)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.adversary.base import Adversary, ComposedAdversary
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor, QoDReport
from repro.audit.failfast import FailFastMonitor
from repro.chaos.plane import ChaosFaultPlane
from repro.chaos.spec import FaultSpec
from repro.chaos.targeted import TargetedSpec, build_fault_plane
from repro.core.config import CongosParams
from repro.core.congos import build_partition_set, congos_factory
from repro.core.partitions import PartitionSet
from repro.sim.engine import Engine, RoundEngine, SimObserver, UnsupportedScenario
from repro.sim.metrics import MessageStats
from repro.sim.rng import derive_rng

__all__ = [
    "Scenario",
    "RunResult",
    "RunSetup",
    "assemble",
    "engine_for",
    "run_congos_scenario",
    "run_with_factory",
]

WorkloadFactory = Callable[[random.Random], Adversary]
FaultFactory = Callable[[random.Random, PartitionSet, int], Adversary]


@dataclass
class Scenario:
    """A named, reproducible experiment configuration."""

    name: str
    n: int
    rounds: int
    seed: int
    params: CongosParams = field(default_factory=CongosParams)
    # Builders set repro.adversary.spec.AdversarySpec values (equal on
    # rebuild, picklable); any callable of the factory's shape works.
    workload_factory: Optional[WorkloadFactory] = None
    fault_factory: Optional[FaultFactory] = None
    # Chaos extension (None = the paper's reliable network): a FaultSpec
    # as a plain dict, so scenarios stay JSON-representable in RunSpecs.
    chaos: Optional[Dict[str, object]] = None
    # Fail-fast invariant monitoring: None, "confidentiality" or "qod"
    # ("qod" implies the confidentiality check too).
    failfast: Optional[str] = None
    # Execution backend: "inproc" (default, one engine in this process)
    # or "sharded" (pids split over worker processes on a real transport,
    # see repro.net).  Both produce identical audited results.
    backend: str = "inproc"
    # Sharded-backend options (workers/transport/timeout), validated by
    # repro.net.coordinator.NetOptions.  Ignored by the inproc backend.
    net: Optional[Dict[str, object]] = None
    chaos_keyed: bool = False  # accepted and ignored: chaos fates are always keyed
    # Targeted chaos extension (None = no rumor-aware adversary): a
    # TargetedSpec as a plain dict.  Composes with ``chaos`` — the
    # targeted policy decides first, the oblivious schedule after.
    targeted: Optional[Dict[str, object]] = None
    # Round kernel: "object" (default, the per-pid object model) or
    # "array" (repro.fastcore's vectorized numpy kernel; needs the
    # repro[fast] extra and models fault-free runs only).
    engine: str = "object"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("scenarios need at least two processes")
        if self.rounds < 1:
            raise ValueError("scenarios need at least one round")
        if self.failfast not in (None, "confidentiality", "qod"):
            raise ValueError(
                "failfast must be None, 'confidentiality' or 'qod'"
            )
        if self.backend not in ("inproc", "sharded"):
            raise ValueError("backend must be 'inproc' or 'sharded'")
        if self.engine not in ("object", "array"):
            raise ValueError("engine must be 'object' or 'array'")
        if self.chaos is not None:
            FaultSpec.from_dict(self.chaos)  # validate eagerly
        if self.targeted is not None:
            TargetedSpec.from_dict(self.targeted)  # validate eagerly

    def fault_spec(self) -> Optional[FaultSpec]:
        if self.chaos is None:
            return None
        spec = FaultSpec.from_dict(self.chaos)
        return None if spec.is_null() else spec

    def targeted_spec(self) -> Optional[TargetedSpec]:
        if self.targeted is None:
            return None
        return TargetedSpec.from_dict(self.targeted)


@dataclass
class RunResult:
    """Everything a bench or test wants to know about one run."""

    scenario: Scenario
    engine: RoundEngine
    stats: MessageStats
    qod: QoDReport
    confidentiality: ConfidentialityAuditor
    delivery: DeliveryAuditor
    workload: Optional[Adversary]
    partition_set: PartitionSet
    fault_plane: Optional[ChaosFaultPlane] = None

    @property
    def rumors_injected(self) -> int:
        return len(self.delivery.rumors)

    def chaos_summary(self) -> Optional[Dict[str, int]]:
        """Injected-fault counts, or ``None`` for reliable-network runs."""
        if self.fault_plane is None:
            return None
        return self.fault_plane.counts_summary()

    def chaos_stage_summary(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Fault counts by pipeline stage (proxy/gd/gossip/direct), or
        ``None`` for reliable-network runs."""
        if self.fault_plane is None:
            return None
        return self.fault_plane.counts_by_service()

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenario": self.scenario.name,
            "n": self.scenario.n,
            "rounds": self.scenario.rounds,
            "rumors": self.rumors_injected,
            "messages": self.stats.summary(),
            "qod": self.qod.summary(),
            "confidentiality": self.confidentiality.summary(),
            "faults": self.engine.event_log.summary(),
        }
        chaos = self.chaos_summary()
        if chaos is not None:
            # Only present on chaos runs — default-run summaries (and the
            # bench payloads built from them) are unchanged.
            out["chaos"] = chaos
            out["chaos_by_stage"] = self.chaos_stage_summary()
        summarize = getattr(self.fault_plane, "targeted_summary", None)
        if summarize is not None:
            out["targeted"] = summarize()
        if getattr(self.workload, "load_summary", None) is not None:
            # Only open-workload runs carry a load/SLO section; closed
            # scenarios keep their summaries byte-identical.  Imported
            # lazily so default runs never touch repro.load.
            from repro.load.slo import slo_summary

            out["load"] = slo_summary(self)
        return out


@dataclass
class RunSetup:
    """One run's shared wiring, as :func:`assemble` built it."""

    scenario: Scenario
    partition_set: PartitionSet
    delivery: DeliveryAuditor
    confidentiality: object
    workload: Optional[Adversary]
    adversary: Adversary
    observers: List[SimObserver]
    telemetry: object = None

    def result(self, engine: RoundEngine) -> RunResult:
        """The audited outcome of ``engine``'s finished run."""
        finalize = getattr(engine, "finalize", None)
        if finalize is not None:
            finalize()  # the array engine audits the rumors still live
        return RunResult(
            scenario=self.scenario,
            engine=engine,
            stats=engine.stats,
            qod=self.delivery.report(engine),
            confidentiality=self.confidentiality,
            delivery=self.delivery,
            workload=self.workload,
            partition_set=self.partition_set,
            fault_plane=engine.fault_plane,
        )


def assemble(
    scenario: Scenario,
    partition_set: Optional[PartitionSet] = None,
    observers: Iterable[SimObserver] = (),
    telemetry=None,
    delivery: Optional[DeliveryAuditor] = None,
) -> RunSetup:
    """Build everything about a run that does not depend on its backend.

    ``telemetry`` (a :class:`repro.obs.instrument.Telemetry`) is bound to
    workloads with admission accounting here and threaded through the
    protocol stack by the backend; ``None`` keeps the zero-overhead null
    telemetry.
    ``delivery`` lets a baseline factory bring the auditor it already
    wired as its delivery callback.
    """
    partitions = (
        partition_set
        if partition_set is not None
        else build_partition_set(scenario.n, scenario.params, scenario.seed)
    )
    observers = list(observers)
    if scenario.engine == "array":
        # Imported lazily: repro.fastcore needs numpy (the repro[fast]
        # extra) and raises a pointed ImportError when it is missing.
        from repro.fastcore.runner import array_auditor

        confidentiality = array_auditor(scenario, partitions, telemetry)
    else:
        confidentiality = ConfidentialityAuditor(
            num_partitions=partitions.count,
            num_groups=partitions.num_groups,
        )
    resolved_delivery = delivery if delivery is not None else DeliveryAuditor()
    parts: List[Adversary] = []
    workload: Optional[Adversary] = None
    if scenario.workload_factory is not None:
        workload = scenario.workload_factory(
            derive_rng(scenario.seed, "workload", scenario.name)
        )
        if telemetry is not None:
            # Workloads with admission accounting (repro.load) mirror it
            # into the metrics registry; binding never affects the rng
            # stream, so traced and untraced runs stay bit-identical.
            bind = getattr(workload, "bind_telemetry", None)
            if bind is not None:
                bind(telemetry)
        parts.append(workload)
    if scenario.fault_factory is not None:
        parts.append(
            scenario.fault_factory(
                derive_rng(scenario.seed, "faults", scenario.name),
                partitions,
                scenario.n,
            )
        )
    all_observers: List[SimObserver] = [
        resolved_delivery, confidentiality, *observers
    ]
    if scenario.failfast is not None:
        all_observers.append(
            FailFastMonitor(
                confidentiality,
                delivery=resolved_delivery if scenario.failfast == "qod" else None,
            )
        )
    return RunSetup(
        scenario=scenario,
        partition_set=partitions,
        delivery=resolved_delivery,
        confidentiality=confidentiality,
        workload=workload,
        adversary=ComposedAdversary(parts),
        observers=all_observers,
        telemetry=telemetry,
    )


def run_congos_scenario(
    scenario: Scenario,
    observers: Iterable[SimObserver] = (),
    partition_set: Optional[PartitionSet] = None,
    telemetry=None,
) -> RunResult:
    """Run CONGOS under the scenario's workload and faults, fully audited."""
    setup = assemble(scenario, partition_set, observers, telemetry)
    if scenario.backend == "sharded":
        # Imported lazily: repro.net pulls in multiprocessing machinery
        # that default in-process runs never need.
        from repro.net.coordinator import run_sharded_scenario

        return run_sharded_scenario(setup)
    return _run(setup, engine_for(setup))


def run_with_factory(
    scenario: Scenario,
    node_factory: Callable[[int], object],
    delivery: Optional[DeliveryAuditor] = None,
    observers: Iterable[SimObserver] = (),
    partition_set: Optional[PartitionSet] = None,
    telemetry=None,
) -> RunResult:
    """Run any protocol factory (CONGOS or a baseline) under a scenario,
    on the in-process object engine.

    Baselines that do not use partitions still get a partition set for the
    confidentiality auditor's bookkeeping (fragment checks are vacuous for
    protocols that never fragment).
    """
    setup = assemble(scenario, partition_set, observers, telemetry, delivery)
    return _run(setup, engine_for(setup, node_factory))


def engine_for(
    setup: RunSetup, node_factory: Optional[Callable[[int], object]] = None
) -> RoundEngine:
    """The engine, not yet run, for an assembled in-process setup.

    An array scenario gets the :class:`~repro.fastcore.engine.ArrayEngine`
    (CONGOS only); any other gets the object :class:`Engine` over
    ``node_factory`` (default: CONGOS reporting to ``setup.delivery``).
    Everything the engine holds is data (telemetry sinks aside), so
    ``(setup, engine)`` pickles between rounds and resumes to the same
    result.
    """
    scenario = setup.scenario
    if scenario.engine == "array":
        if node_factory is not None:
            raise UnsupportedScenario("engine='array' runs CONGOS only")
        from repro.fastcore.engine import ArrayEngine

        return ArrayEngine(
            n=scenario.n,
            params=scenario.params,
            partition_set=setup.partition_set,
            seed=scenario.seed,
            adversary=setup.adversary,
            record_delivery=setup.delivery.record_delivery,
            auditor=setup.confidentiality,
            observers=setup.observers,
        )
    if node_factory is None:
        node_factory = congos_factory(
            scenario.n,
            params=scenario.params,
            seed=scenario.seed,
            deliver_callback=setup.delivery.record_delivery,
            partition_set=setup.partition_set,
            telemetry=setup.telemetry,
        )
    # The plane's schedule is keyed on the scenario seed alone, so "same
    # seed => same fault schedule" holds across builders and at any
    # --jobs setting.
    fault_plane = build_fault_plane(
        scenario.seed,
        scenario.n,
        scenario.fault_spec(),
        scenario.targeted_spec(),
        telemetry=setup.telemetry,
    )
    return Engine(
        n=scenario.n,
        node_factory=node_factory,
        adversary=setup.adversary,
        observers=setup.observers,
        seed=scenario.seed,
        fault_plane=fault_plane,
    )


def _run(setup: RunSetup, engine: RoundEngine) -> RunResult:
    engine.run(setup.scenario.rounds)
    return setup.result(engine)
