"""The path contract: is a candidate run the same run on another path?

A CONGOS run executes on the object engine in one process, the object
engine sharded over worker processes (``backend="sharded"``) or the
numpy array engine (``engine="array"``).  :func:`compare_paths` judges a
candidate run against a reference run of the same scenario.  On every
path: the same injected rumors in the same rounds, the same delivered
and the same missed (rid, pid) pairs, and a clean confidentiality audit
on both runs.  Where a path promises more, that too: the object engine
on any backend promises the reference's bits (:func:`promises_bits`),
so its ``RunRecord.digest()`` must be equal; the array engine promises
statistics, so for it the latency and round-count KS distances and the
total and per-service message errors are measured.
:func:`run_parity_gate` holds those to the ``MAX_*`` bounds on its
pinned E6/E11 cells only: on small random cells they measure noise (a
few ``confidential`` fallback messages more on either engine).
:func:`check_path` runs the object in-process reference and the path
named by ``engine`` / ``backend`` / ``net``; the parity gate,
``net verify`` and the cross-path tests call these two functions.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CongosParams
from repro.exec.results import RunRecord
from repro.harness.runner import RunResult, Scenario, run_congos_scenario
from repro.harness.scenarios import steady_scenario

__all__ = [
    "ParityReport", "check_path", "compare_paths", "default_parity_cells",
    "ks_distance", "promises_bits", "run_parity_gate",
]

# The parity gate's bounds on the array engine's statistics.  Seed to
# seed within the object engine the latency KS is ~0 and the round-count
# KS ~0.1 on the pinned cells: these reject drift, not sampling noise.
MAX_LATENCY_KS = 0.2
MAX_ROUND_COUNT_KS = 0.25
MAX_TOTAL_REL_ERR = 0.05
MAX_SERVICE_REL_ERR = 0.10


def promises_bits(engine: str) -> bool:
    """True when a run on ``engine`` must give the reference's bits (the
    object engine does, on any backend; the array engine does not)."""
    return engine == "object"


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov distance (max ECDF gap), pure python."""
    if not a or not b:
        return 1.0 if a or b else 0.0
    xs, ys = sorted(a), sorted(b)
    gap = 0.0
    i = j = 0
    while i < len(xs) or j < len(ys):
        if j >= len(ys) or (i < len(xs) and xs[i] <= ys[j]):
            value = xs[i]
        else:
            value = ys[j]
        # Step both ECDFs past every sample tied at this value before
        # measuring the gap — ties must move together or identical
        # distributions show phantom distance.
        while i < len(xs) and xs[i] == value:
            i += 1
        while j < len(ys) and ys[j] == value:
            j += 1
        gap = max(gap, abs(i / len(xs) - j / len(ys)))
    return gap


def _latencies(result: RunResult) -> List[int]:
    """Delivery-round offsets for every delivered (rid, pid) pair."""
    injected = result.delivery.injection_rounds
    return sorted(
        round_no - injected[rid]
        for (rid, _pid), (round_no, _data, _path) in
        result.delivery.deliveries.items()
        if rid in injected
    )


def _round_counts(result: RunResult) -> List[int]:
    """Per-round total message counts (observed rounds only)."""
    totals = result.stats._round_totals
    return [totals[r] for r in sorted(totals)]


@dataclass
class ParityReport:
    """Verdict of one candidate run (``path`` = its ``engine-backend``)
    against its reference.  Digests (and the sharded ``net`` split) are
    set where the candidate promises the reference's bits, statistics
    where it does not; ``service_counts`` maps every service either run
    sent to its ``(reference, candidate)`` message counts."""

    cell: str
    path: str
    qod_satisfied: bool
    failures: List[str] = field(default_factory=list)
    reference_digest: Optional[str] = None
    candidate_digest: Optional[str] = None
    net: Dict[str, object] = field(default_factory=dict)
    latency_ks: Optional[float] = None
    round_count_ks: Optional[float] = None
    total_rel_err: Optional[float] = None
    service_counts: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    service_rel_err: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        body = {
            name: round(value, 4) if isinstance(value, float) else value
            for name, value in dataclasses.asdict(self).items()
            if value is not None
        }
        body["service_rel_err"] = {
            k: round(v, 4) for k, v in self.service_rel_err.items()
        }
        body["passed"] = self.passed
        return body


# The facts every path must share, each with the failure naming it.
_SHARED_FACTS = (
    (lambda r: r.delivery.injection_rounds, "injected rumors or their rounds differ"),
    (lambda r: set(r.delivery.deliveries), "delivered (rid, pid) pair sets differ"),
    (lambda r: {(o.rid, o.pid) for o in r.qod.missed}, "QoD missed pairs differ"),
)


def compare_paths(
    cell: str, reference: RunResult, candidate: RunResult
) -> ParityReport:
    """Judge whether ``candidate`` is ``reference``'s run on another path."""
    scenario = candidate.scenario
    report = ParityReport(
        cell=cell,
        path="{}-{}".format(scenario.engine, scenario.backend),
        qod_satisfied=reference.qod.satisfied,
    )
    failures = report.failures
    failures += [
        failure for fact, failure in _SHARED_FACTS
        if fact(reference) != fact(candidate)
    ]
    if not (reference.confidentiality.is_clean()
            and candidate.confidentiality.is_clean()):
        failures.append("confidentiality audit not clean")
    if promises_bits(scenario.engine):
        report.reference_digest = RunRecord.from_result(reference).digest()
        report.candidate_digest = RunRecord.from_result(candidate).digest()
        if report.candidate_digest != report.reference_digest:
            failures.append("RunRecord digests differ")
        net_summary = getattr(candidate.engine, "net_summary", None)
        if net_summary is not None:
            report.net = net_summary()
        return report
    report.latency_ks = ks_distance(_latencies(reference), _latencies(candidate))
    report.round_count_ks = ks_distance(
        _round_counts(reference), _round_counts(candidate)
    )
    report.total_rel_err = abs(
        candidate.stats.total - reference.stats.total
    ) / max(1, reference.stats.total)
    ref_services = reference.stats.by_service()
    cand_services = candidate.stats.by_service()
    report.service_counts = {
        service: (ref_services.get(service, 0), cand_services.get(service, 0))
        for service in sorted(set(ref_services) | set(cand_services))
    }
    # Judged over the services the reference sent: a handful of fallback
    # messages only one run sent is noise, not drift (see the module doc).
    report.service_rel_err = {
        service: abs(cand - ref) / ref
        for service, (ref, cand) in report.service_counts.items()
        if ref
    }
    return report


def check_path(
    scenario: Scenario, engine="object", backend="inproc", net=None
) -> ParityReport:
    """Run ``scenario`` on the object in-process reference and on the
    candidate path; compare the two runs."""
    reference = run_congos_scenario(
        dataclasses.replace(scenario, engine="object", backend="inproc")
    )
    candidate = run_congos_scenario(
        dataclasses.replace(scenario, engine=engine, backend=backend, net=net)
    )
    return compare_paths(scenario.name, reference, candidate)


def default_parity_cells(seeds: Tuple[int, ...] = (0,)) -> List[Scenario]:
    """The pinned cells: E6's steady lean cells at n = 16, 32, 64 and
    E11's steady default cell (n=16, 360 rounds), all at deadline 64 —
    dline >= 256 blocks use the documented census approximation, so only
    the schedule-exact deadline-64 config gates."""
    steady = functools.partial(
        steady_scenario, deadline=64, rate=1, period=4, dest_size=4
    )
    lean = CongosParams.preset("lean")
    cells: List[Scenario] = []
    for seed in seeds:
        cells += [
            steady(n=n, rounds=3 * 64 + 128, seed=seed, params=lean,
                   name="e6-parity-n{}-s{}".format(n, seed))
            for n in (16, 32, 64)
        ]
        cells.append(
            steady(n=16, rounds=360, seed=seed, name="e11-parity-s{}".format(seed))
        )
    return cells


def _bound_failures(report: ParityReport) -> List[str]:
    bounded = [
        ("latency KS", report.latency_ks, MAX_LATENCY_KS),
        ("round-count KS", report.round_count_ks, MAX_ROUND_COUNT_KS),
        ("total messages rel. error", report.total_rel_err, MAX_TOTAL_REL_ERR),
    ] + [
        ("{} messages rel. error".format(service), err, MAX_SERVICE_REL_ERR)
        for service, err in report.service_rel_err.items()
    ]
    failures = [] if report.qod_satisfied else ["QoD missed deliveries"]
    failures += [
        "{} {:.3f} > {}".format(label, value, bound)
        for label, value, bound in bounded
        if value > bound
    ]
    return failures


def run_parity_gate(cells: Optional[Sequence[Scenario]] = None) -> List[ParityReport]:
    """Hold the array engine to the path contract and the ``MAX_*``
    bounds on the pinned cells; raises AssertionError listing every
    failure."""
    reports = []
    for cell in cells if cells is not None else default_parity_cells():
        report = check_path(cell, engine="array")
        report.failures.extend(_bound_failures(report))
        reports.append(report)
    broken = ["{}: {}".format(r.cell, ", ".join(r.failures))
              for r in reports if not r.passed]
    if broken:
        raise AssertionError("path contract failed: " + "; ".join(broken))
    return reports
