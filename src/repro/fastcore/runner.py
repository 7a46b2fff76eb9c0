"""The array engine as a backend of ``run_congos_scenario``.

:func:`repro.harness.runner.assemble` builds the run's shared wiring —
the real delivery auditor, workload, adversary, fail-fast monitor and
observer list — and asks :func:`array_auditor` for the one piece that
differs: the bitset confidentiality auditor, which audits the array
engine's delivered stream directly.  :func:`run_array_scenario` then
builds an :class:`~repro.fastcore.engine.ArrayEngine` from the setup and
runs it.

Scenario features outside the array engine's scope raise
:class:`UnsupportedScenario` eagerly, before anything is built, with a
pointer back to the object engine, so a mis-routed run fails loudly
instead of quietly diverging.  :func:`_check_scope` is the whole list.
Observers are never refused: when one takes deliveries, the engine
lowers its sends into the skeleton's fan-outs, with payload-free
:class:`~repro.audit.metadata.Facts` payloads, so a content auditor
handed to it fails at its first fact instead of reading nothing.
"""

from __future__ import annotations

from repro.fastcore import require_numpy
from repro.sim.engine import UnsupportedScenario

__all__ = ["array_auditor", "run_array_scenario"]


_UNSUPPORTED = "engine='array' does not support {}; use the object engine"


def _check_scope(scenario, telemetry) -> None:
    params = scenario.params
    reasons = []
    if scenario.fault_factory is not None:
        reasons.append("fault_factory adversaries")
    if scenario.fault_spec() is not None:
        reasons.append("the chaos fault plane")
    if scenario.targeted_spec() is not None:
        reasons.append("targeted fault policies")
    if scenario.backend != "inproc":
        reasons.append("backend={!r}".format(scenario.backend))
    if params.gossip_schedule != "random":
        reasons.append("gossip_schedule={!r}".format(params.gossip_schedule))
    if params.hardened:
        reasons.append("hardened")
    if params.gd_target_pool != "destinations":
        reasons.append("gd_target_pool={!r}".format(params.gd_target_pool))
    if telemetry is not None and getattr(telemetry, "enabled", False):
        reasons.append("per-message telemetry hooks")
    if reasons:
        raise UnsupportedScenario(_UNSUPPORTED.format(", ".join(reasons)))


def array_auditor(scenario, partition_set, telemetry):
    """The array path's confidentiality auditor, once the scenario is
    known to be in scope (nothing refused, numpy importable)."""
    _check_scope(scenario, telemetry)
    require_numpy()
    # Imported behind the numpy gate: tier-1 without the ``repro[fast]``
    # extra must never touch this module.
    from repro.fastcore.engine import FastConfidentialityAuditor

    return FastConfidentialityAuditor(
        num_partitions=partition_set.count,
        num_groups=partition_set.num_groups,
    )


def run_array_scenario(setup):
    """Run an assembled fault-free CONGOS scenario on the array engine."""
    from repro.fastcore.engine import ArrayEngine

    scenario = setup.scenario
    engine = ArrayEngine(
        n=scenario.n,
        params=scenario.params,
        partition_set=setup.partition_set,
        seed=scenario.seed,
        adversary=setup.adversary,
        record_delivery=setup.delivery.record_delivery,
        auditor=setup.confidentiality,
        observers=setup.observers,
    )
    engine.run(scenario.rounds)
    engine.finalize()
    return setup.result(engine)
