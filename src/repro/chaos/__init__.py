"""repro.chaos — deterministic fault injection beyond the paper's model.

The paper (Section 2) assumes a reliable synchronous network; this
package deliberately breaks that assumption in a seed-keyed, reproducible
way so CONGOS's confidentiality and QoD behavior can be soak-tested under
production-like loss, delay, duplication, reordering and partitions.

* :mod:`repro.chaos.spec` — :class:`FaultSpec`, plain-data intensity knobs.
* :mod:`repro.chaos.schedule` — :class:`FaultSchedule`, seed → per-message fates.
* :mod:`repro.chaos.plane` — :class:`ChaosFaultPlane`, the network hook.
* :mod:`repro.chaos.soak` — fault-matrix sweeps and the E15 payload.
* :mod:`repro.chaos.direct` — direct-send reliability matrix (E16).
* :mod:`repro.chaos.targeted` — budgeted rumor-aware fault policies.
* :mod:`repro.chaos.targeted_soak` — the E19 targeted-vs-oblivious matrix.
"""
