"""Fail-fast invariant monitoring.

The auditors collect evidence and judge at the end of a run; during
protocol development you usually want the opposite — stop the simulation
at the *first* round in which an invariant breaks, with the offending
round number in hand.  :class:`FailFastMonitor` wraps a
:class:`~repro.audit.confidentiality.ConfidentialityAuditor` and raises
:class:`InvariantViolation` from within the engine loop the moment a
violation is recorded.

Given a :class:`~repro.audit.delivery.DeliveryAuditor` as well, the
monitor also covers Quality of Delivery: at the end of the round in which
a rumor's deadline elapses, every admissible destination must already
hold a correct, on-time delivery — a miss raises immediately instead of
surfacing in the end-of-run report.  QoD checking is opt-in because under
the chaos fault plane QoD is *expected* to degrade (the paper's Lemma 4
assumes the reliable network); soak runs keep the confidentiality check
fatal and merely report QoD.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.audit.confidentiality import ConfidentialityAuditor, Violation
from repro.audit.delivery import DeliveryAuditor
from repro.sim.engine import Engine, SimObserver

__all__ = ["InvariantViolation", "FailFastMonitor"]


class InvariantViolation(AssertionError):
    """Raised when a monitored invariant breaks mid-run."""

    def __init__(self, round_no: int, violations: Sequence[Violation]):
        self.round_no = round_no
        self.violations = list(violations)
        kinds = sorted({v.kind for v in self.violations})
        super().__init__(
            "round {}: {} violation(s) [{}], first: {}".format(
                round_no,
                len(self.violations),
                ", ".join(kinds),
                self.violations[0] if self.violations else None,
            )
        )

    def __reduce__(self):
        # Exec-pool workers re-raise this across process boundaries; the
        # default BaseException reduction would replay the formatted
        # message into round_no and crash unpickling.
        return (self.__class__, (self.round_no, self.violations))


class FailFastMonitor(SimObserver):
    """Stops the run at the first confidentiality (or QoD) violation.

    ``strict`` additionally treats multiplicity breaches (an outsider
    holding two fragments of one partition — not yet a reconstruction,
    but always a protocol bug) as fatal.  ``delivery`` opts into QoD
    coverage: rumors are judged in the round their deadline elapses.
    """

    def __init__(
        self,
        auditor: ConfidentialityAuditor,
        strict: bool = True,
        delivery: Optional[DeliveryAuditor] = None,
    ):
        self.auditor = auditor
        self.strict = strict
        self.delivery = delivery
        self._seen = 0
        self._judged: set = set()

    def _fatal(self, violation: Violation) -> bool:
        # ack_leak: the hardened direct-send layer's control messages
        # must never carry knowledge — always fatal, like a plaintext leak.
        if violation.kind in ("plaintext", "reconstruction", "ack_leak"):
            return True
        return self.strict and violation.kind == "multiplicity"

    def on_round_end(self, round_no: int, engine: Engine) -> None:
        new = self.auditor.violations[self._seen:]
        self._seen = len(self.auditor.violations)
        fatal = [v for v in new if self._fatal(v)]
        if fatal:
            raise InvariantViolation(round_no, fatal)
        if self.delivery is not None:
            missed = self._qod_violations(round_no, engine)
            if missed:
                raise InvariantViolation(round_no, missed)

    def _qod_violations(self, round_no: int, engine: Engine) -> Sequence[Violation]:
        """Missed pairs of the rumors whose deadline elapsed this round."""
        delivery = self.delivery
        violations = []
        for rid in delivery.rumors:
            if rid in self._judged or delivery.deadline_round(rid) > round_no:
                continue
            self._judged.add(rid)
            violations.extend(
                Violation(
                    kind="qod",
                    rid=rid,
                    pid=outcome.pid,
                    round_no=round_no,
                    detail=delivery.miss_detail(outcome),
                )
                for outcome in delivery.judge(rid, engine.event_log)
                if outcome.missed
            )
        return violations
