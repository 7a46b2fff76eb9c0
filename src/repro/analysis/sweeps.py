"""Parameter sweeps with seed replication, on the exec pool.

The benches each hand-roll one sweep; this module provides the general
machinery for interactive exploration: run a scenario family over a
parameter grid, replicate each cell across seeds, and aggregate the
metrics the paper cares about (per-round peak, totals, QoD verdicts,
fallback rates) into :class:`~repro.analysis.stats.Summary` rows.

Since the exec subsystem landed, a sweep is a list of picklable
:class:`~repro.exec.tasks.RunSpec` tasks: ``jobs>1`` fans them out over
worker processes, ``jobs=1`` (the default) is a strictly serial
fallback, and both produce bit-identical aggregates because every run
derives its randomness from its own spec.  Passing a
:class:`~repro.exec.cache.ResultCache` makes interrupted sweeps
resumable: completed cells are read back from disk instead of re-run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.stats import Summary, summarize
from repro.exec.cache import ResultCache
from repro.exec.pool import run_specs
from repro.exec.progress import Progress
from repro.exec.results import RunRecord
from repro.exec.tasks import RunSpec
from repro.harness.scenarios import ScenarioBuilder

__all__ = [
    "CELL_KEYS",
    "CellResult",
    "SWEEP_KEYS",
    "SweepResult",
    "delivery_rate",
    "sweep_congos",
    "sweep_specs",
    "grid",
]


def grid(**axes: Sequence) -> List[Dict[str, object]]:
    """Cartesian product of named axes as a list of kwargs dicts.

    >>> grid(n=[8, 16], deadline=[64])
    [{'n': 8, 'deadline': 64}, {'n': 16, 'deadline': 64}]
    """
    names = sorted(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def delivery_rate(admissible: int, missed: int) -> Optional[float]:
    """Share of admissible pairs served on time, ``None`` if there were none."""
    return round((admissible - missed) / admissible, 6) if admissible else None


def _fault_totals(runs: Iterable[RunRecord]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for run in runs:
        for kind, count in run.faults.items():
            totals[kind] = totals.get(kind, 0) + count
    return {kind: totals[kind] for kind in sorted(totals)}


def _fault_totals_by_stage(runs: Iterable[RunRecord]) -> Dict[str, Dict[str, int]]:
    totals: Dict[str, Dict[str, int]] = {}
    for run in runs:
        for stage, kinds in run.faults_by_stage.items():
            bucket = totals.setdefault(stage, {})
            for kind, count in kinds.items():
                bucket[kind] = bucket.get(kind, 0) + count
    return {
        stage: {kind: kinds[kind] for kind in sorted(kinds)}
        for stage, kinds in sorted(totals.items())
    }


@dataclass
class CellResult:
    """Aggregated metrics of one grid cell across its seed replicates.

    ``runs`` holds the slim :class:`RunRecord` extracts — never engines —
    so a cell looks the same whether its runs happened in this process,
    in a worker pool, or in a previous (cached) invocation.
    """

    cell: Dict[str, object]
    runs: List[RunRecord] = field(default_factory=list)

    @property
    def seeds(self) -> int:
        return len(self.runs)

    def all_satisfied(self) -> bool:
        return all(run.qod_satisfied for run in self.runs)

    def all_clean(self) -> bool:
        return all(run.clean for run in self.runs)

    def peak_summary(self) -> Summary:
        return summarize([run.peak for run in self.runs])

    def total_summary(self) -> Summary:
        return summarize([run.total for run in self.runs])

    def fallback_rate(self) -> float:
        shots = sum(run.fallback_shots() for run in self.runs)
        served = sum(run.served_pairs() for run in self.runs)
        return shots / served if served else 0.0

    def latency_summary(self) -> Optional[Summary]:
        """Latency stats across all replicates, ``None`` if nothing was
        delivered (an empty sample is not a count-1 zero-latency one)."""
        latencies: List[float] = []
        for run in self.runs:
            latencies.extend(run.latencies)
        return summarize(latencies) if latencies else None

    def admissible_pairs(self) -> int:
        return sum(run.admissible_pairs for run in self.runs)

    def missed(self) -> int:
        return sum(run.missed for run in self.runs)

    def delivery_rate(self) -> Optional[float]:
        return delivery_rate(self.admissible_pairs(), self.missed())

    def fault_totals(self) -> Dict[str, int]:
        """Injected faults per kind, summed over the replicates."""
        return _fault_totals(self.runs)

    def fault_totals_by_stage(self) -> Dict[str, Dict[str, int]]:
        """The same counts split by pipeline stage (proxy/gd/gossip/direct)."""
        return _fault_totals_by_stage(self.runs)

    def verdict(self, *keys: str) -> Dict[str, object]:
        """The named shared keys of this cell's sidecar entry, in order.

        Every experiment's reducer takes the keys its artifact shares with
        the others from here (see :data:`CELL_KEYS`) and adds its own.
        """
        return {key: CELL_KEYS[key](self) for key in keys}


@dataclass
class SweepResult:
    """All cells of a sweep."""

    cells: List[CellResult]

    def all_satisfied(self) -> bool:
        return all(cell.all_satisfied() for cell in self.cells)

    def all_clean(self) -> bool:
        return all(cell.all_clean() for cell in self.cells)

    def runs(self) -> List[RunRecord]:
        """Every record of the sweep, cell by cell."""
        return [run for cell in self.cells for run in cell.runs]

    def fault_totals(self) -> Dict[str, int]:
        return _fault_totals(self.runs())

    def fault_totals_by_stage(self) -> Dict[str, Dict[str, int]]:
        return _fault_totals_by_stage(self.runs())

    def verdict(self, *keys: str) -> Dict[str, object]:
        """The named sweep-level sidecar keys (:data:`SWEEP_KEYS`), in order."""
        return {key: SWEEP_KEYS[key](self) for key in keys}

    def series(
        self, x_axis: str, metric: Callable[[CellResult], float]
    ) -> List[Tuple[object, float]]:
        """Project the sweep onto ``(cell[x_axis], metric(cell))`` pairs."""
        return [(cell.cell[x_axis], metric(cell)) for cell in self.cells]

    def table_rows(self) -> List[List[object]]:
        rows = []
        for cell in self.cells:
            peak = cell.peak_summary()
            latency = cell.latency_summary()
            rows.append(
                [
                    *[cell.cell[key] for key in sorted(cell.cell)],
                    cell.seeds,
                    round(peak.mean, 1),
                    int(peak.maximum),
                    round(latency.mean, 1) if latency is not None else "-",
                    round(cell.fallback_rate(), 4),
                    cell.all_satisfied(),
                    cell.all_clean(),
                ]
            )
        return rows

    def table_headers(self) -> List[str]:
        if not self.cells:
            return []
        return [
            *sorted(self.cells[0].cell),
            "seeds",
            "peak mean",
            "peak max",
            "latency",
            "fallback",
            "qod",
            "clean",
        ]


def _latency(cell: CellResult) -> Optional[Dict[str, float]]:
    latency = cell.latency_summary()
    return latency.as_dict() if latency is not None else None


# The per-cell keys the experiment sidecars share, each reduced one way.
# An artifact names the ones it carries; none carries them all.
CELL_KEYS: Dict[str, Callable[[CellResult], object]] = {
    "cell": lambda cell: dict(cell.cell),
    "seeds": lambda cell: cell.seeds,
    "faults": CellResult.fault_totals,
    "faults_by_stage": CellResult.fault_totals_by_stage,
    "admissible_pairs": CellResult.admissible_pairs,
    "missed": CellResult.missed,
    "delivery_rate": CellResult.delivery_rate,
    "qod_satisfied": CellResult.all_satisfied,
    "fallback_rate": lambda cell: round(cell.fallback_rate(), 6),
    "clean": CellResult.all_clean,
    "peak": lambda cell: cell.peak_summary().as_dict(),
    "total": lambda cell: cell.total_summary().as_dict(),
    "latency": _latency,
}

SWEEP_KEYS: Dict[str, Callable[[SweepResult], object]] = {
    "all_clean": SweepResult.all_clean,
    "all_satisfied": SweepResult.all_satisfied,
    "total_faults": SweepResult.fault_totals,
    "total_faults_by_stage": SweepResult.fault_totals_by_stage,
}


def sweep_specs(
    builder: Union[str, ScenarioBuilder],
    cells: Iterable[Mapping[str, object]],
    seeds: Sequence[int] = (0, 1),
    **fixed: object,
) -> List[Tuple[Dict[str, object], List[RunSpec]]]:
    """The picklable task list of a sweep: one RunSpec per cell × seed."""
    out: List[Tuple[Dict[str, object], List[RunSpec]]] = []
    for cell in cells:
        cell_dict = dict(cell)
        specs = [
            RunSpec.make(builder, seed=seed, **fixed, **cell_dict)
            for seed in seeds
        ]
        out.append((cell_dict, specs))
    return out


def sweep_congos(
    builder: Union[str, ScenarioBuilder],
    cells: Iterable[Mapping[str, object]],
    seeds: Sequence[int] = (0, 1),
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Progress] = None,
    **fixed: object,
) -> SweepResult:
    """Run ``builder(**fixed, **cell, seed=s)`` for every cell and seed.

    ``builder`` is a registry name from
    :data:`repro.harness.scenarios.BUILDERS` or the builder callable
    itself (they all accept ``n``, ``rounds``, ``seed`` plus their own
    knobs).  ``jobs`` controls process-pool fan-out (1 = serial in this
    process); ``cache``/``resume`` skip cells already on disk.
    """
    tasks = sweep_specs(builder, cells, seeds=seeds, **fixed)
    flat = [spec for _, specs in tasks for spec in specs]
    records = run_specs(
        flat,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        cache=cache,
        resume=resume,
        progress=progress,
    )
    results: List[CellResult] = []
    cursor = 0
    for cell_dict, specs in tasks:
        cell_records = records[cursor : cursor + len(specs)]
        cursor += len(specs)
        results.append(CellResult(cell=cell_dict, runs=list(cell_records)))
    return SweepResult(cells=results)
