"""repro.chaos — deterministic fault injection beyond the paper's model.

The paper (Section 2) assumes a reliable synchronous network; this
package deliberately breaks that assumption in a seed-keyed, reproducible
way so CONGOS's confidentiality and QoD behavior can be soak-tested under
production-like loss, delay, duplication, reordering and partitions.

* :mod:`repro.chaos.spec` — :class:`FaultSpec`, plain-data intensity knobs.
* :mod:`repro.chaos.schedule` — :class:`FaultSchedule`, seed → decisions.
* :mod:`repro.chaos.plane` — :class:`ChaosFaultPlane`, the network hook.
* :mod:`repro.chaos.soak` — fault-matrix sweeps and the E15 payload.
* :mod:`repro.chaos.direct` — direct-send reliability matrix (E16).
* :mod:`repro.chaos.targeted` — budgeted rumor-aware fault policies.
* :mod:`repro.chaos.targeted_soak` — the E19 targeted-vs-oblivious matrix.
"""

from repro.chaos.plane import ChaosFaultPlane, FaultEvent, FaultPlane, pipeline_stage
from repro.chaos.schedule import FaultSchedule
from repro.chaos.spec import FaultSpec
from repro.chaos.targeted import (
    BudgetLedger,
    TargetedFaultPlane,
    TargetedFaultPolicy,
    TargetedSpec,
    get_policy,
    policy_names,
)

__all__ = [
    "BudgetLedger",
    "ChaosFaultPlane",
    "FaultEvent",
    "FaultPlane",
    "FaultSchedule",
    "FaultSpec",
    "TargetedFaultPlane",
    "TargetedFaultPolicy",
    "TargetedSpec",
    "get_policy",
    "pipeline_stage",
    "policy_names",
]
