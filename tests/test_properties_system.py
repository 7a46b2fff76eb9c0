"""System-level property-based tests, judged on every execution path.

Hypothesis draws a system size, a deadline, a fault plan and an
injection plan, and builds one :class:`Scenario` from them; whatever it
generates, the paper's two probability-1 invariants must hold:

* no confidentiality violation, ever;
* no admissible (rumor, destination) pair missed, ever.

and the path contract (``repro.harness.parity.compare_paths``) must hold
between the object in-process reference and every other path: the
object engine sharded over two workers always, and the array engine
(numpy-gated) on fault-free examples.  The array engine refuses a fault
plan with ``UnsupportedScenario``, which is asserted and ends that leg.

These are the strongest tests in the suite — they explore corners no
hand-written scenario covers (crashes straddling block boundaries,
restarts immediately re-crashed, rumors injected the round before a
blackout, deadlines either side of the direct-send threshold, ...).
"""

import dataclasses
from typing import List, NamedTuple, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.base import Adversary
from repro.adversary.injection import ScriptedWorkload
from repro.fastcore import numpy_available
from repro.harness.parity import compare_paths
from repro.harness.runner import Scenario, run_congos_scenario
from repro.sim.engine import UnsupportedScenario
from repro.sim.events import RoundDecision

NS = (8, 12, 16)
# Either side of direct_send_threshold (48) and PIPELINE_FLOOR (64):
# 32, 48 and 49 (trimmed down to 32) go direct, 64 and 100 (trimmed to
# 64) run the Proxy/GD/gossip pipeline.
DEADLINES = (32, 48, 49, 64, 100)
# Rounds in which rumors may be injected, after a warm-up of one
# deadline (the Proxy and GD uptime of the drawn class) and before a
# drain of one deadline (so the QoD report judges every rumor).
WINDOW = 110

SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class HypothesisFaults(Adversary):
    """Replays a hypothesis-generated fault plan, keeping it legal."""

    def __init__(self, plan):
        # plan: list of (round, pid, "crash"|"restart")
        self.plan = {}
        for round_no, pid, kind in plan:
            self.plan.setdefault(round_no, []).append((pid, kind))

    def round_start(self, view):
        decision = RoundDecision()
        for pid, kind in self.plan.get(view.round, []):
            if pid in decision.crashes or pid in decision.restarts:
                continue
            if kind == "crash" and view.is_alive(pid):
                decision.crashes.add(pid)
            elif kind == "restart" and not view.is_alive(pid):
                decision.restarts.add(pid)
        return decision


class System(NamedTuple):
    n: int
    deadline: int
    faults_plan: List[Tuple[int, int, str]]
    inject_plan: List[Tuple[int, int, frozenset]]
    seed: int

    @property
    def rounds(self) -> int:
        return 2 * self.deadline + WINDOW + 2

    def scenario(self) -> Scenario:
        # One injection per (round, source) at most; hypothesis may repeat.
        seen = set()
        script = []
        for round_no, src, dest in self.inject_plan:
            if (round_no, src) in seen:
                continue
            seen.add((round_no, src))
            script.append((round_no, src, self.deadline, dest))
        faults = self.faults_plan
        return Scenario(
            name="hypothesis-system",
            n=self.n,
            rounds=self.rounds,
            seed=self.seed,
            workload_factory=lambda rng: ScriptedWorkload(script, rng),
            fault_factory=(
                (lambda rng, partitions, n: HypothesisFaults(faults))
                if faults
                else None
            ),
        )


@st.composite
def systems(draw, max_faults=24, max_seed=50):
    n = draw(st.sampled_from(NS))
    deadline = draw(st.sampled_from(DEADLINES))
    pids = st.integers(min_value=0, max_value=n - 1)
    faults_plan = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2 * deadline + WINDOW + 1),
                pids,
                st.sampled_from(["crash", "restart"]),
            ),
            max_size=max_faults,
        )
    )
    inject_plan = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=deadline, max_value=deadline + WINDOW),
                pids,  # source
                st.frozensets(pids, min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=6,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=max_seed))
    return System(n, deadline, faults_plan, inject_plan, seed)


def run_on_every_path(system: System):
    """Run the object in-process reference, hold the other paths to the
    path contract against it, and return the reference run."""
    scenario = system.scenario()
    reference = run_congos_scenario(scenario)
    sharded = run_congos_scenario(
        dataclasses.replace(scenario, backend="sharded", net={"workers": 2})
    )
    report = compare_paths(scenario.name, reference, sharded)
    assert report.passed, report.failures
    if numpy_available():
        array = dataclasses.replace(scenario, engine="array")
        if scenario.fault_factory is not None:
            with pytest.raises(UnsupportedScenario, match="fault_factory"):
                run_congos_scenario(array)
        else:
            report = compare_paths(
                scenario.name, reference, run_congos_scenario(array)
            )
            assert report.passed, report.failures
    return reference


@settings(max_examples=12, **SETTINGS)
@given(system=systems())
def test_invariants_under_random_faults(system):
    reference = run_on_every_path(system)
    assert reference.qod.satisfied, reference.qod.summary()
    confidentiality = reference.confidentiality
    assert confidentiality.is_clean(), confidentiality.violation_counts()
    assert confidentiality.violation_counts()["multiplicity"] == 0


@settings(max_examples=6, **SETTINGS)
@given(system=systems(max_faults=0, max_seed=20))
def test_fault_free_runs_never_fall_back(system):
    """With no faults, the pipeline (not the fallback) serves everything
    injected after warm-up — w.h.p., but at these sizes effectively
    always; a fallback here would flag a protocol regression."""
    reference = run_on_every_path(system)
    assert reference.qod.satisfied
    paths = reference.qod.path_counts()
    assert paths.get("shoot", 0) == 0, paths
