"""Statistical-parity gate: array engine vs object engine.

The array engine's correctness contract is *equivalence mode* (DESIGN.md
§11): same protocol schedule, statistically indistinguishable dynamics.
This module is the reusable gate behind that contract — it runs the same
pinned-seed scenario on both engines and compares

* the **delivery-latency distribution** (delivery round − injection
  round, over all admissible (rumor, pid) pairs) with a two-sample
  Kolmogorov–Smirnov distance,
* the **per-round message-count distribution** (KS again, over rounds),
* per-service message totals (relative error), and
* the hard invariants: both runs deliver the same (rid, pid) pairs with
  zero QoD misses and a clean confidentiality audit.

Thresholds were calibrated on the E6/E11 deadline-64 cells: seed-to-seed
*within* the object engine the latency KS is ~0 (latency is pinned by
the block schedule) and the round-count KS lands around 0.1 for these
run lengths, so the defaults (0.2 / 0.25) reject engine-level drift
without flagging ordinary sampling noise.  Future engines (or a future
exact-parity mode) can reuse :class:`ParityGate` with tighter bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CongosParams
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario

__all__ = [
    "ParityGate",
    "ParityReport",
    "default_parity_cells",
    "ks_distance",
    "run_parity_gate",
]


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov distance (max ECDF gap), pure python."""
    if not a or not b:
        return 1.0 if a or b else 0.0
    xs = sorted(a)
    ys = sorted(b)
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


def _latencies(result) -> List[int]:
    """Delivery-round offsets for every delivered (rid, pid) pair."""
    injected = result.delivery.injection_rounds
    return sorted(
        round_no - injected[rid]
        for (rid, _pid), (round_no, _data, _path) in
        result.delivery.deliveries.items()
        if rid in injected
    )


def _round_counts(result) -> List[int]:
    """Per-round total message counts (observed rounds only)."""
    totals = result.stats._round_totals
    return [totals[r] for r in sorted(totals)]


@dataclass
class ParityReport:
    """Verdict of one cell's object-vs-array comparison."""

    cell: str
    latency_ks: float
    round_count_ks: float
    total_rel_err: float
    service_rel_err: Dict[str, float]
    delivered_pairs_equal: bool
    qod_clean: bool
    confidentiality_clean: bool
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell,
            "latency_ks": round(self.latency_ks, 4),
            "round_count_ks": round(self.round_count_ks, 4),
            "total_rel_err": round(self.total_rel_err, 4),
            "service_rel_err": {
                k: round(v, 4) for k, v in sorted(self.service_rel_err.items())
            },
            "delivered_pairs_equal": self.delivered_pairs_equal,
            "qod_clean": self.qod_clean,
            "confidentiality_clean": self.confidentiality_clean,
            "passed": self.passed,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class ParityGate:
    """Thresholded comparison of two engines on one scenario.

    Reusable by future engines: anything that runs a ``Scenario`` and
    returns a ``RunResult`` can be gated by swapping ``engine``.
    """

    max_latency_ks: float = 0.2
    max_round_count_ks: float = 0.25
    max_total_rel_err: float = 0.05
    max_service_rel_err: float = 0.10
    engine: str = "array"

    def check(self, scenario) -> ParityReport:
        reference = run_congos_scenario(scenario)
        candidate = run_congos_scenario(
            dataclasses.replace(scenario, engine=self.engine)
        )
        return self.compare(scenario.name, reference, candidate)

    def compare(self, cell: str, reference, candidate) -> ParityReport:
        lat_ks = ks_distance(_latencies(reference), _latencies(candidate))
        cnt_ks = ks_distance(_round_counts(reference), _round_counts(candidate))
        ref_total = max(1, reference.stats.total)
        total_err = abs(candidate.stats.total - reference.stats.total) / ref_total
        ref_services = reference.stats.summary()["by_service"]
        cand_services = candidate.stats.summary()["by_service"]
        service_err = {
            service: abs(cand_services.get(service, 0) - count) / max(1, count)
            for service, count in ref_services.items()
        }
        pairs_equal = (
            set(reference.delivery.deliveries) == set(candidate.delivery.deliveries)
        )
        qod_clean = bool(reference.qod.satisfied and candidate.qod.satisfied)
        conf_clean = (
            reference.confidentiality.is_clean()
            and candidate.confidentiality.is_clean()
        )
        failures: List[str] = []
        if lat_ks > self.max_latency_ks:
            failures.append(
                "latency KS {:.3f} > {}".format(lat_ks, self.max_latency_ks)
            )
        if cnt_ks > self.max_round_count_ks:
            failures.append(
                "round-count KS {:.3f} > {}".format(cnt_ks, self.max_round_count_ks)
            )
        if total_err > self.max_total_rel_err:
            failures.append(
                "total messages off by {:.1%}".format(total_err)
            )
        for service, err in sorted(service_err.items()):
            if err > self.max_service_rel_err:
                failures.append(
                    "{} messages off by {:.1%}".format(service, err)
                )
        if not pairs_equal:
            failures.append("delivered (rid, pid) pair sets differ")
        if not qod_clean:
            failures.append("QoD missed deliveries")
        if not conf_clean:
            failures.append("confidentiality audit not clean")
        return ParityReport(
            cell=cell,
            latency_ks=lat_ks,
            round_count_ks=cnt_ks,
            total_rel_err=total_err,
            service_rel_err=service_err,
            delivered_pairs_equal=pairs_equal,
            qod_clean=qod_clean,
            confidentiality_clean=conf_clean,
            failures=failures,
        )


def default_parity_cells(seeds: Tuple[int, ...] = (0,)) -> List[object]:
    """The pinned E6/E11 deadline-64 parity cells.

    E6's per-round scaling cells (steady workload, lean params) at small
    and medium n, plus E11's price-of-confidentiality steady cell
    (default params, n=16, 360 rounds).  Deadline-256 cells are excluded
    by design: multi-iteration GD blocks use the documented census
    approximation, so only the schedule-exact deadline-64 config gates.
    """
    cells: List[object] = []
    for seed in seeds:
        for n in (16, 32, 64):
            cells.append(
                steady_scenario(
                    n=n,
                    rounds=3 * 64 + 128,
                    seed=seed,
                    deadline=64,
                    rate=1,
                    period=4,
                    dest_size=4,
                    params=CongosParams.preset("lean"),
                    name="e6-parity-n{}-s{}".format(n, seed),
                )
            )
        cells.append(
            steady_scenario(
                n=16,
                rounds=360,
                seed=seed,
                deadline=64,
                rate=1,
                period=4,
                dest_size=4,
                name="e11-parity-s{}".format(seed),
            )
        )
    return cells


def run_parity_gate(
    cells: Optional[Sequence[object]] = None,
    gate: Optional[ParityGate] = None,
) -> List[ParityReport]:
    """Run the full gate; raises AssertionError listing every failure."""
    resolved_gate = gate if gate is not None else ParityGate()
    reports = [
        resolved_gate.check(cell)
        for cell in (cells if cells is not None else default_parity_cells())
    ]
    broken = [r for r in reports if not r.passed]
    if broken:
        raise AssertionError(
            "statistical parity gate failed: "
            + "; ".join(
                "{}: {}".format(r.cell, ", ".join(r.failures)) for r in broken
            )
        )
    return reports
