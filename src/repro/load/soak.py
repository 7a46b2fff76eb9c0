"""E20: the open-workload saturation matrix.

Sweeps arrival rate x n x preset (x arrival process) over the ``open``
scenario builder on the exec pool and reduces the records into the
``BENCH_e20_open_workload.json`` sidecar: per-cell service metrics
(delivery-latency p50/p99/p999, arrival-to-delivery worst-seed
quantiles, shed/fallback rates, admitted throughput) plus, per
``(n, process, preset)`` series, the **saturation knee** — the highest
swept arrival rate the admission budget sustains with zero shedding —
and the sustained-throughput ceiling at that knee.

The payload follows the E15/E16/E19 split: everything here is
deterministic (cacheable, jobs-invariant); wall-clock throughput
(rumors/sec) is attached from the runs' exec-pool profiles and lives
next to the ``profile`` section's caveat — real time, not simulated
rounds, so it varies machine to machine.  :data:`LOAD_SOAK` declares the
matrix for the experiment runner (the ``load-soak`` command), whose exit
code also fails on any shed-rumor leak.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweeps import CellResult, SweepResult, grid
from repro.core.config import CongosParams
from repro.harness.experiment import Experiment, Table, columns, pick
from repro.load.arrivals import PROCESSES
from repro.load.workload import hist_summary
from repro.obs.registry import Histogram

__all__ = ["BENCH_NAME", "LOAD_SOAK", "load_cells", "load_payload"]

BENCH_NAME = "e20_open_workload"

_SERIES_AXES = ("n", "process", "preset", "engine")


def load_cells(
    rates: Sequence[float],
    ns: Sequence[int],
    processes: Sequence[str] = ("poisson",),
    presets: Sequence[str] = ("default",),
    engines: Sequence[str] = ("object",),
) -> List[Dict[str, object]]:
    """The E20 matrix: arrival rate x n x preset x process (x engine).

    ``engine`` is a first-class series axis: ``"array"`` cells run the
    vectorized :mod:`repro.fastcore` kernel (needs the ``repro[fast]``
    extra), so the knee hunt scales to system sizes the object engine
    cannot sweep.  The admission layer is engine-independent — matching
    knees across engines is itself a statistical-parity check.
    """
    return grid(
        process=[str(p) for p in processes],
        rate=[float(r) for r in rates],
        n=[int(n) for n in ns],
        preset=[str(p) for p in presets],
        engine=[str(e) for e in engines],
    )


def _pooled_latency(runs) -> Dict[str, object]:
    """Exact pooled delivery-latency quantiles across a cell's seeds."""
    hist = Histogram()
    for run in runs:
        for latency in run.latencies:
            hist.observe(latency)
    return hist_summary(hist)


def _worst_seed_latency(runs, section: str) -> Dict[str, object]:
    """Per-quantile max across seeds (raw e2e samples stay in-worker)."""
    out: Dict[str, object] = {}
    for key in ("count", "max", "p50", "p99", "p999"):
        values = [
            run.load.get(section, {}).get(key)
            for run in runs
            if run.load.get(section, {}).get(key) is not None
        ]
        out[key] = max(values) if values else None
    return out


def _cell_entry(cell: CellResult) -> Dict[str, object]:
    runs = cell.runs
    offered = sum(run.load.get("offered", 0) for run in runs)
    admitted = sum(run.load.get("admitted", 0) for run in runs)
    shed = sum(run.load.get("shed_total", 0) for run in runs)
    rounds = runs[0].rounds if runs else 0
    wall = sum(run.wall_time for run in runs)
    return dict(
        cell.verdict(
            "cell", "seeds", "admissible_pairs", "missed", "delivery_rate",
            "fallback_rate", "qod_satisfied", "clean",
        ),
        budget=runs[0].load.get("budget") if runs else None,
        offered=offered,
        admitted=admitted,
        shed=shed,
        shed_rate=round(shed / offered, 6) if offered else 0.0,
        admitted_per_round=(
            round(admitted / (len(runs) * rounds), 6) if runs and rounds else 0.0
        ),
        queue_depth_max=max(
            (run.load.get("queue_depth", {}).get("max", 0) or 0 for run in runs),
            default=0,
        ),
        wait_p99_max=max(
            (run.load.get("wait_rounds", {}).get("p99", 0) or 0 for run in runs),
            default=0,
        ),
        delivery_latency=_pooled_latency(runs),
        e2e_latency_worst_seed=_worst_seed_latency(runs, "e2e_latency"),
        shed_leak_free=all(
            run.load.get("shed_leak_free", False) for run in runs
        ),
        # Wall-clock, not simulated time — machine-dependent, see the
        # payload's profile caveat.
        rumors_per_sec=round(admitted / wall, 2) if wall > 0 else None,
    )


def _knees(entries: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Locate the saturation knee per (n, process, preset) series.

    The knee is the highest swept rate with zero shedding and QoD intact;
    every rate above it must shed (the queue is bounded), so the knee's
    admitted throughput is the series' sustained ceiling.
    """
    series: Dict[Tuple, List[Dict[str, object]]] = {}
    for entry in entries:
        key = tuple(entry["cell"].get(axis) for axis in _SERIES_AXES)
        series.setdefault(key, []).append(entry)
    knees: List[Dict[str, object]] = []
    for key in sorted(series, key=str):
        ordered = sorted(series[key], key=lambda e: e["cell"]["rate"])
        knee = None
        for entry in ordered:
            if entry["shed_rate"] == 0.0 and entry["qod_satisfied"]:
                knee = entry
        saturated = [e for e in ordered if e["shed_rate"] > 0.0]
        n, process, preset, engine = key
        knees.append(
            {
                "n": n,
                "process": process,
                "preset": preset,
                "engine": engine if engine is not None else "object",
                "rates": [e["cell"]["rate"] for e in ordered],
                "knee_rate": knee["cell"]["rate"] if knee else None,
                "ceiling_admitted_per_round": (
                    knee["admitted_per_round"] if knee else None
                ),
                "rumors_per_sec_at_knee": (
                    knee["rumors_per_sec"] if knee else None
                ),
                "first_saturated_rate": (
                    saturated[0]["cell"]["rate"] if saturated else None
                ),
                "shed_rate_at_peak": ordered[-1]["shed_rate"],
                "e2e_p99_at_knee": (
                    knee["e2e_latency_worst_seed"]["p99"] if knee else None
                ),
            }
        )
    return knees


def load_payload(
    sweep: SweepResult, fixed: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """The deterministic portion of the E20 artifact (plus wall-clock
    rumors/sec, flagged as such)."""
    entries = [_cell_entry(cell) for cell in sweep.cells]
    return {
        "fixed": dict(fixed or {}),
        "cells": entries,
        "knees": _knees(entries),
        "all_clean": sweep.all_clean(),
        "all_shed_leak_free": all(e["shed_leak_free"] for e in entries),
        "total_offered": sum(e["offered"] for e in entries),
        "total_admitted": sum(e["admitted"] for e in entries),
        "total_shed": sum(e["shed"] for e in entries),
    }


def _flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, nargs="+", default=[64], metavar="N")
    # 200 rounds leaves a 50-round arrival window for deadline 64 with
    # the default wait cap (32): warmup 50, arrivals [50, 100), queue
    # drain by 132, last expiry 196.
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[1.0, 2.0, 4.0, 8.0],
        metavar="RATE",
        help="peak mean arrivals per round (the swept load axis)",
    )
    parser.add_argument(
        "--processes",
        nargs="+",
        default=["poisson"],
        choices=list(PROCESSES),
        metavar="PROCESS",
        help="arrival processes to sweep (poisson/bursty/diurnal)",
    )
    parser.add_argument(
        "--presets",
        nargs="+",
        default=["default"],
        choices=CongosParams.preset_names(),
        help="CongosParams presets to sweep",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        default=["object"],
        choices=("object", "array"),
        metavar="ENGINE",
        help="round kernels to sweep (array needs the repro[fast] extra)",
    )
    parser.add_argument(
        "--deadline",
        type=int,
        default=64,
        help="rumor deadline (above direct_send_threshold=48 exercises "
        "the full pipeline)",
    )
    parser.add_argument(
        "--dest-size", type=int, default=3, help="destination-set size per rumor"
    )
    parser.add_argument(
        "--zipf-groups",
        type=int,
        default=0,
        help="hotspot destination blocks (0 = uniform destinations)",
    )
    parser.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf exponent over the hotspot blocks",
    )
    parser.add_argument(
        "--queue-cap",
        type=int,
        default=256,
        help="admission queue bound (arrivals beyond it are shed)",
    )
    parser.add_argument(
        "--max-wait",
        type=int,
        default=None,
        help="shed queued arrivals waiting longer than this "
        "(default: half the deadline)",
    )
    parser.add_argument(
        "--per-round",
        type=int,
        default=None,
        help="per-round injection budget "
        "(default: CongosParams.injection_budget(n))",
    )


def _fixed(args: argparse.Namespace) -> Dict[str, object]:
    fixed = pick(
        args, "rounds", "deadline", "dest_size", "zipf_groups", "zipf_s",
        "queue_cap",
    )
    # Unset: the builder derives them (half the deadline, the budget of n).
    for name in ("max_wait", "per_round"):
        if getattr(args, name) is not None:
            fixed[name] = getattr(args, name)
    return fixed


LOAD_SOAK = Experiment(
    command="load-soak",
    help="sweep the open workload over an arrival-rate x n x preset "
    "matrix (E20)",
    bench=BENCH_NAME,
    txt="load_soak",
    builder="open",
    flags=_flags,
    cells=lambda args: load_cells(
        args.rates,
        args.n,
        processes=args.processes,
        presets=args.presets,
        engines=args.engines,
    ),
    fixed=_fixed,
    payload=load_payload,
    verdict=lambda sweep, payload: (
        payload["all_clean"] and payload["all_shed_leak_free"]
    ),
    tables=(
        Table(
            "load soak ({cells} cells x {seeds} seeds)",
            columns(
                ("process", "cell.process"),
                ("rate", "cell.rate"),
                ("n", "cell.n"),
                ("preset", "cell.preset"),
                ("engine", "cell.engine"),
                ("budget", "budget"),
                ("offered", "offered"),
                ("admitted", "admitted"),
                ("shed", "shed_rate"),
                ("p99", "delivery_latency.p99"),
                ("e2e p99", "e2e_latency_worst_seed.p99"),
                ("fallback", "fallback_rate"),
                ("qod", "qod_satisfied"),
                (
                    "clean",
                    lambda entry: entry["clean"] and entry["shed_leak_free"],
                ),
            ),
        ),
        Table(
            "saturation knees",
            columns(
                ("n", "n"),
                ("process", "process"),
                ("preset", "preset"),
                ("engine", "engine"),
                ("knee rate", "knee_rate"),
                ("ceiling/round", "ceiling_admitted_per_round"),
                ("rumors/sec", "rumors_per_sec_at_knee"),
                ("saturates at", "first_saturated_rate"),
                rows="knees",
            ),
        ),
    ),
)
