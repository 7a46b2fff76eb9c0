"""Untraced measurement of one workload: the source of every end-to-end
number.

The only instrumentation is :class:`RoundClock`, an observer handed to
the facade through its public ``observers=`` argument: two
``perf_counter`` reads per round.  Everything else is read off the
returned result after the clock has stopped.  The correctness gate runs
inside every iteration; :func:`summarize` refuses to produce metrics
from a run that failed a check.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exec.cache import ResultCache
from repro.exec.progress import Progress
from repro.exec.results import RunRecord
from repro.exec.tasks import canonical_json

from metrics import quantile
from workloads import Workload

__all__ = [
    "RoundClock",
    "SetupDone",
    "Sample",
    "cpu_seconds",
    "peak_rss_mb",
    "summary_digest",
    "measure_iteration",
    "probe_setup",
    "measure",
    "summarize",
]


PROBE_BUDGET_S = 1.0  # how long one batch of set-up probes may go on
PROBE_CAP = 16  # and how many it takes at most


class SetupDone(Exception):
    """Raised by a set-up probe's clock at the first ``on_round_begin``."""


class RoundClock:
    """Duck-typed engine observer: one timestamp at each round boundary.

    ``stop_after_setup`` turns the run into a set-up probe: the same
    facade call, abandoned the moment the first round would start.
    """

    def __init__(self, stop_after_setup: bool = False):
        self.begins: List[float] = []
        self.ends: List[float] = []
        self._stop = stop_after_setup

    def on_round_begin(self, round_no: int) -> None:
        self.begins.append(time.perf_counter())
        if self._stop:
            raise SetupDone()

    def on_round_end(self, round_no: int, engine: object) -> None:
        self.ends.append(time.perf_counter())


def cpu_seconds() -> float:
    """user+sys CPU of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child.

    Own peak is ``VmHWM``: ``ru_maxrss`` would also count the spawning
    process's image from before ``exec``, so a run started by the suite
    would read higher than the same run started from a shell.  Children
    only offer ``ru_maxrss``, which for exec'd workers is at least this
    process's RSS when it spawned them — an upper bound, but a stable one.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
                    break
    except OSError:
        pass
    kids_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + kids_kib) / 1024.0


def summary_digest(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class Sample:
    """What one facade call cost and what it produced."""

    wall_s: float
    cpu_s: float
    setup_s: float
    round_ms: Optional[List[float]]  # active rounds only; None for sweeps
    total_msgs: int
    peak_msgs: int
    delivered_pairs: int  # judged (rumor, destination) pairs that were delivered
    latency_p99: float
    attempted: int
    failed: int
    fallback_shots: int
    served_pairs: int
    digest: str
    checks: Dict[str, bool] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)


class _FirstTask(Progress):
    """Progress hook that notes when the first executed task landed and
    how long that task ran: its start is the end of the pool's set-up."""

    first_done: Optional[float] = None
    first_wall: float = 0.0

    def task_done(self, cached: bool = False, wall_time: Optional[float] = None) -> None:
        if self.first_done is None and not cached:
            self.first_done = time.perf_counter()
            self.first_wall = wall_time or 0.0
        super().task_done(cached=cached, wall_time=wall_time)


def _pairs(records, dest_size: int = 0) -> Dict[str, int]:
    """Operation counts over run records: an operation is one admissible
    (rumor, destination) pair offered (``dest_size`` pairs per shed
    arrival); it fails if shed, missed, or delivered with a
    confidentiality violation."""
    attempted = failed = shots = served = 0
    for record in records:
        shed_pairs = int((record.load or {}).get("shed_total", 0)) * dest_size
        leaks = record.violations.get("plaintext", 0) + record.violations.get(
            "reconstruction", 0
        )
        attempted += record.admissible_pairs + shed_pairs
        failed += min(
            record.admissible_pairs + shed_pairs,
            record.missed + shed_pairs + leaks,
        )
        shots += record.fallback_shots()
        served += record.served_pairs()
    return {"attempted": attempted, "failed": failed, "shots": shots, "served": served}


def _record_checks(records) -> Dict[str, bool]:
    return {
        "qod_satisfied": all(r.qod_satisfied for r in records),
        "confidentiality_clean": all(r.clean for r in records),
        "delivered_equals_admissible": all(
            len(r.latencies) == r.admissible_pairs and r.missed == 0 for r in records
        ),
        "work_was_done": all(r.admissible_pairs > 0 and r.total > 0 for r in records),
    }


def _facade_iteration(workload: Workload, seed: int, smoke: bool) -> Sample:
    clock = RoundClock()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    result = workload.run(seed, observers=[clock], smoke=smoke)
    summary = result.summary()
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    record = RunRecord.from_result(result)
    stats = result.stats
    round_ms = [
        (clock.ends[r] - clock.begins[r]) * 1e3
        for r in range(len(clock.ends))
        if stats.per_round(r) >= 1
    ]
    latency_p99 = quantile(record.latencies, 0.99) if record.latencies else 0.0
    checks = _record_checks([record])
    dest_size = 0
    if workload.kind == "open":
        # Open loop in simulated time: latency counts from the arrival
        # round, so the admission queue's wait is part of it.
        load = summary["load"]
        latency_p99 = float(load["e2e_latency"]["p99"])
        checks["shed_leak_free"] = bool(load["shed_leak_free"])
        dest_size = result.workload.spec.dest_size
    counts = _pairs([record], dest_size)
    return Sample(
        wall_s=wall,
        cpu_s=cpu,
        setup_s=clock.begins[0] - t0,
        round_ms=round_ms,
        total_msgs=stats.total,
        peak_msgs=stats.max_per_round(),
        # Inadmissible pairs (an endpoint crashed within the deadline) that
        # were served anyway are throughput too, and steadier across seeds
        # than the admissible count on chaos_object.
        delivered_pairs=sum(1 for o in result.qod.outcomes if o.delivered),
        latency_p99=latency_p99,
        attempted=counts["attempted"],
        failed=counts["failed"],
        fallback_shots=counts["shots"],
        served_pairs=counts["served"],
        digest=summary_digest(summary),
        checks=checks,
    )


def _timed_sweep(workload: Workload, seed: int, smoke: bool, cache_root: str,
                 rounds: Optional[int] = None, warm: bool = False):
    """One cold sweep into a fresh cache (optionally followed by the warm
    resume); returns ``(records, timings)``."""
    cache_dir = tempfile.mkdtemp(prefix="cache_", dir=cache_root)
    try:
        cache = ResultCache(cache_dir)
        probe = _FirstTask(workload.task_count(smoke))
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        swept = workload.sweep(seed, cache, progress=probe, smoke=smoke, rounds=rounds)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        records = [run for cell in swept.cells for run in cell.runs]
        timings = {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_s": max(0.0, probe.first_done - probe.first_wall - t0),
            "cells_ok": swept.all_satisfied() and swept.all_clean(),
        }
        if warm:
            t1 = time.perf_counter()
            again = workload.sweep(seed, cache, smoke=smoke, rounds=rounds)
            timings["cache_rerun_s"] = time.perf_counter() - t1
            rerun = [run for cell in again.cells for run in cell.runs]
            timings["cache_hits"] = sum(1 for run in rerun if run.cache_hit)
            timings["rerun_identical"] = [
                r.without_profile() for r in rerun
            ] == [r.without_profile() for r in records]
        return records, timings
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _sweep_iteration(workload: Workload, seed: int, smoke: bool,
                     cache_root: str) -> Sample:
    records, timings = _timed_sweep(workload, seed, smoke, cache_root, warm=True)
    tasks = workload.task_count(smoke)
    checks = _record_checks(records)
    checks["every_cell_satisfied_and_clean"] = bool(timings["cells_ok"])
    checks["all_tasks_ran"] = len(records) == tasks and not any(
        r.cache_hit for r in records
    )
    checks["warm_rerun_all_cache_hits"] = timings["cache_hits"] == tasks
    checks["warm_rerun_identical_records"] = bool(timings["rerun_identical"])
    latencies = [lat for record in records for lat in record.latencies]
    counts = _pairs(records)
    return Sample(
        wall_s=timings["wall_s"],
        cpu_s=timings["cpu_s"],
        setup_s=timings["setup_s"],
        round_ms=None,
        total_msgs=sum(r.total for r in records),
        peak_msgs=max(r.peak for r in records),
        delivered_pairs=len(latencies),  # fault-free: every pair is admissible
        latency_p99=quantile(latencies, 0.99) if latencies else 0.0,
        attempted=counts["attempted"],
        failed=counts["failed"],
        fallback_shots=counts["shots"],
        served_pairs=counts["served"],
        digest=summary_digest([r.without_profile().to_dict() for r in records]),
        checks=checks,
        extra={
            "task_walls": [r.wall_time for r in records],
            "by_service": {
                service: sum(r.by_service.get(service, 0) for r in records)
                for service in sorted({s for r in records for s in r.by_service})
            },
            "cache_rerun_s": timings["cache_rerun_s"],
            "cache_hits": timings["cache_hits"],
        },
    )


def measure_iteration(workload: Workload, seed: int, smoke: bool,
                      scratch: str) -> Sample:
    """One full, untraced, correctness-gated run of ``workload``."""
    if workload.kind == "sweep":
        return _sweep_iteration(workload, seed, smoke, scratch)
    return _facade_iteration(workload, seed, smoke)


def probe_setup(workload: Workload, seed: int, smoke: bool, scratch: str) -> float:
    """Set-up time alone: the workload's own facade call, stopped where
    the first round would begin (sweep: the same sweep at one round, whose
    pool start and first-task pickling are those of the real one)."""
    if workload.kind == "sweep":
        _, timings = _timed_sweep(workload, seed, smoke, scratch, rounds=1)
        return timings["setup_s"]
    clock = RoundClock(stop_after_setup=True)
    t0 = time.perf_counter()
    try:
        workload.run(seed, observers=[clock], smoke=smoke)
    except SetupDone:
        pass
    return clock.begins[0] - t0


def inproc_digest(workload: Workload, seed: int, smoke: bool) -> Dict[str, object]:
    """Digest and wall time of ``workload``'s identical spec on the
    in-process backend (the sharded run must reproduce it bit for bit)."""
    clock = RoundClock()
    t0 = time.perf_counter()
    result = workload.run(seed, observers=[clock], smoke=smoke, inproc=True)
    digest = summary_digest(result.summary())
    return {
        "digest": digest,
        "wall_s": time.perf_counter() - t0,
        "setup_s": clock.begins[0] - t0,
    }


def measure(workload: Workload, seed: int, seconds: float, smoke: bool,
            scratch: str, probes: int) -> Dict[str, object]:
    """Run full iterations until ``seconds`` of measuring have passed, and
    at least two (``seconds=0``: exactly one — the suite's repeats are
    the iterations then).  Set-up is probed before the first iteration and
    after each: spread over the run, a slow spell of the host cannot sit
    on every set-up sample at once.  Each time it is probed at least
    ``probes`` times and on for ``PROBE_BUDGET_S`` (at most ``PROBE_CAP``
    times): a millisecond set-up scatters by a factor of two from one call
    to the next, and only many samples pin its median."""
    least = 2 if seconds > 0 else 1
    budget = 0.0 if smoke else PROBE_BUDGET_S  # smoke only checks the plumbing

    def probe() -> List[float]:
        began = time.perf_counter()
        taken: List[float] = []
        while len(taken) < probes or (
            len(taken) < PROBE_CAP and time.perf_counter() - began < budget
        ):
            gc.collect()  # an abandoned engine must not count towards peak RSS
            taken.append(probe_setup(workload, seed, smoke, scratch))
        return taken

    setups = probe()
    samples: List[Sample] = []
    started = time.perf_counter()
    while len(samples) < least or time.perf_counter() - started < seconds:
        # The previous iteration's engine is cyclic garbage; drop it so peak
        # RSS is one run's footprint however many iterations fit.
        gc.collect()
        samples.append(measure_iteration(workload, seed, smoke, scratch))
        setups.extend(probe())
    extra_checks: Dict[str, bool] = {}
    if workload.backend == "sharded":
        reference = inproc_digest(workload, seed, smoke)
        extra_checks["sharded_digest_equals_inproc"] = all(
            s.digest == reference["digest"] for s in samples
        )
    return summarize(workload, seed, samples, setups, extra_checks)


def summarize(workload: Workload, seed: int, samples: List[Sample],
              setups: List[float], extra_checks: Dict[str, bool]) -> Dict[str, object]:
    """Fold iterations into the run record the ledger stores.  Metrics are
    withheld (``None``) unless every check of every iteration passed."""
    checks = dict(extra_checks)
    for sample in samples:
        for name, ok in sample.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["iterations_agree"] = len({s.digest for s in samples}) == 1
    correct = all(checks.values())
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    # Identical work every iteration, and noise only ever adds time: the
    # fastest iteration is the least contaminated one (the rule
    # repro.perf.bench uses).  A shared box stalls for seconds at a time,
    # which a mean or a two-sample median would swallow whole.
    best = min(samples, key=lambda s: s.wall_s)
    setup_samples = setups + [s.setup_s for s in samples]
    record: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "iterations": len(samples),
        "correct": correct,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "sim_digest": best.digest,
        "samples": {
            "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "setup_s": setup_samples,
            "round_ms": best.round_ms,
        },
        "extra": best.extra,
        "metrics": None,
    }
    if not correct:
        return record
    round_ms = best.round_ms
    record["metrics"] = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": best.wall_s,
        "cpu_s": best.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim_msgs_per_s": best.total_msgs / best.wall_s,
        "pairs_per_s": best.delivered_pairs / best.wall_s,
        "round_ms_p50": None if round_ms is None else quantile(round_ms, 0.50),
        "round_ms_p95": None if round_ms is None else quantile(round_ms, 0.95),
        "failed_share": failed / attempted if attempted else 1.0,
        "sim_peak_msgs_per_round": best.peak_msgs,
        "sim_total_msgs": best.total_msgs,
        "sim_latency_p99_rounds": best.latency_p99,
        "fallback_rate": (
            best.fallback_shots / best.served_pairs if best.served_pairs else 0.0
        ),
    }
    return record
