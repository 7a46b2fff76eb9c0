"""Chaos soak harness: fault-intensity matrices on the exec pool.

A soak run sweeps the ``chaos`` scenario builder over a drop × delay
intensity grid (with duplicate/reorder/partition/churn knobs held fixed
across the matrix), replicates every cell across seeds, and aggregates
what the robustness story cares about: how much was injected (fault
counts per kind), what survived (delivery rate against admissible
pairs), what it cost (fallback escalations, message peak), and the one
invariant that must *never* bend — confidentiality stays clean at every
intensity.

Everything here is deterministic: the fault schedule is keyed on each
run's scenario seed (see :class:`~repro.chaos.schedule.FaultSchedule`),
the sweep runs on the :mod:`repro.exec` pool whose records are
bit-identical at any ``jobs`` setting, and :func:`soak_payload` excludes
wall-clock/profiling fields — the experiment runner attaches those
separately.  :data:`CHAOS_SOAK` declares the matrix for
:func:`repro.harness.experiment.run_experiment` (the ``chaos-soak``
command); the artifact is ``BENCH_e15_chaos_matrix.json``.
"""

from __future__ import annotations

import argparse
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.sweeps import SweepResult, grid
from repro.chaos.spec import FaultSpec
from repro.chaos.targeted import policy_names
from repro.harness.experiment import Experiment, Table, columns, pick
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import get_builder
from repro.obs import JsonlSink, RumorTimeline, Telemetry

__all__ = [
    "BENCH_NAME",
    "CHAOS_SOAK",
    "cell_spec",
    "chaos_cells",
    "soak_payload",
]

BENCH_NAME = "e15_chaos_matrix"

_SPEC_FIELDS = frozenset(f.name for f in dataclass_fields(FaultSpec))


def chaos_cells(
    drop: Sequence[float], delay: Sequence[float]
) -> List[Dict[str, object]]:
    """The intensity matrix: cartesian product of drop and delay axes."""
    return grid(drop=list(drop), delay=list(delay))


def cell_spec(
    cell: Mapping[str, object], fixed: Optional[Mapping[str, object]] = None
) -> FaultSpec:
    """The :class:`FaultSpec` a matrix cell runs under (cell overrides
    fixed; non-spec sweep kwargs like ``rounds`` are ignored)."""
    merged: Dict[str, object] = {}
    for source in (fixed or {}), cell:
        for key, value in source.items():
            if key in _SPEC_FIELDS:
                merged[key] = value
    return FaultSpec(**merged)  # type: ignore[arg-type]


def soak_payload(
    sweep: SweepResult, fixed: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """The deterministic portion of the E15 artifact.

    Same seed set and matrix => byte-identical payload at any ``jobs``
    setting; callers add nondeterministic timing/profile keys on top.
    """
    cells: List[Dict[str, object]] = []
    for cell in sweep.cells:
        cells.append(
            {
                "cell": dict(cell.cell),
                "intensity": cell_spec(cell.cell, fixed).intensity(),
                "seeds": cell.seeds,
                "faults": cell.fault_totals(),
                "faults_by_stage": cell.fault_totals_by_stage(),
                "admissible_pairs": cell.admissible_pairs(),
                "missed": cell.missed(),
                "delivery_rate": cell.delivery_rate(),
                "qod_satisfied": cell.all_satisfied(),
                "fallback_rate": round(cell.fallback_rate(), 6),
                "clean": cell.all_clean(),
                "peak": cell.peak_summary().as_dict(),
            }
        )
    return {
        "cells": cells,
        "all_clean": sweep.all_clean(),
        "all_satisfied": sweep.all_satisfied(),
        "total_faults": sweep.fault_totals(),
        "total_faults_by_stage": sweep.fault_totals_by_stage(),
    }


def _flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, default=16, help="process count")
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument(
        "--deadline",
        type=int,
        default=None,
        help="rumor deadline (default 64, or the --policy's own): above "
        "direct_send_threshold=48 exercises the full CONGOS pipeline; at or "
        "below it rumors take the direct-send path, which the hardened "
        "ack/retransmit/k-copy knobs protect (see the direct-soak command)",
    )
    parser.add_argument(
        "--drop",
        type=float,
        nargs="+",
        default=[0.0, 0.05, 0.15],
        metavar="P",
        help="drop-probability axis of the matrix",
    )
    parser.add_argument(
        "--delay",
        type=float,
        nargs="+",
        default=[0.0, 0.1],
        metavar="P",
        help="delay-probability axis of the matrix",
    )
    parser.add_argument("--max-delay", type=int, default=4)
    parser.add_argument("--duplicate", type=float, default=0.0)
    parser.add_argument("--reorder", type=float, default=0.0)
    parser.add_argument("--partition-period", type=int, default=0)
    parser.add_argument("--partition-width", type=int, default=0)
    parser.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="per-round crash probability of a composed CRRI adversary",
    )
    parser.add_argument(
        "--hardened",
        action="store_true",
        help="run with the graceful-degradation knobs (CongosParams.hardened)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="re-run the highest-intensity cell with telemetry to this JSONL",
    )
    parser.add_argument(
        "--policy",
        default=None,
        choices=policy_names(),
        help="layer a budgeted rumor-aware policy over every cell "
        "(routes through the 'targeted' builder; see targeted-soak for "
        "the full E19 matrix)",
    )
    parser.add_argument(
        "--per-round",
        type=int,
        default=4,
        help="targeted budget per destination per round (--policy only)",
    )
    parser.add_argument(
        "--total",
        type=int,
        default=64,
        help="targeted budget per destination per run (--policy only)",
    )
    parser.add_argument(
        "--blind",
        action="store_true",
        help="rumor-blind variant of --policy (matched-budget baseline)",
    )


def _fixed(args: argparse.Namespace) -> Dict[str, object]:
    fixed = pick(
        args, "n", "rounds", "deadline", "max_delay", "duplicate", "reorder",
        "partition_period", "partition_width", "churn", "hardened",
    )
    if args.policy is not None:
        # Same intensity matrix, with a budgeted rumor-aware policy
        # layered over every cell's oblivious spec.
        fixed.update(pick(args, "policy", "per_round", "total", "blind"))
    if args.deadline is None:
        if args.policy is None:
            fixed["deadline"] = 64
        else:
            # The targeted builder picks its own default per policy.
            del fixed["deadline"]
    return fixed


def _trace_worst_cell(
    args: argparse.Namespace, payload: Dict[str, object], sweep: SweepResult
) -> None:
    """``--trace FILE``: re-run the highest-intensity cell in-process with
    full telemetry, so the timelines show which fault broke a delivery."""
    if not args.trace:
        return
    fixed = payload["fixed"]
    worst = max(
        sweep.cells,
        key=lambda cell: (
            cell_spec(cell.cell, fixed).intensity(),
            sorted(cell.cell.items()),
        ),
    )
    timeline = RumorTimeline()
    with JsonlSink(path=args.trace) as sink:
        telemetry = Telemetry(sinks=[sink])
        telemetry.subscribe(timeline)
        scenario = get_builder(payload["scenario"])(seed=0, **fixed, **worst.cell)
        run_congos_scenario(
            scenario, observers=[timeline], telemetry=telemetry
        )
        timeline.export(sink)
        emitted = sink.emitted
    print(
        "trace of worst cell {}: {} events -> {}".format(
            worst.cell, emitted, args.trace
        )
    )
    lifecycles = timeline.lifecycles()
    faulted = [record for record in lifecycles if record.faults]
    target = faulted[0] if faulted else (lifecycles[0] if lifecycles else None)
    if target is not None:
        print()
        print(
            "timeline of rumor {} ({} faults hit its messages)".format(
                target.rid, len(target.faults)
            )
        )
        for line in timeline.replay(target.rid):
            print("  " + line)


CHAOS_SOAK = Experiment(
    command="chaos-soak",
    help="sweep a fault-intensity matrix with fail-fast invariants",
    bench=BENCH_NAME,
    txt="chaos_soak",
    builder=lambda args: "chaos" if args.policy is None else "targeted",
    flags=_flags,
    cells=lambda args: chaos_cells(args.drop, args.delay),
    fixed=_fixed,
    payload=lambda sweep, fixed: dict(
        soak_payload(sweep, fixed), fixed=dict(fixed)
    ),
    tables=(
        Table(
            lambda args, cells: "chaos soak ({} cells x {} seeds{}{})".format(
                cells,
                args.seeds,
                ", hardened" if args.hardened else "",
                ", policy " + args.policy if args.policy else "",
            ),
            columns(
                ("drop", "cell.drop"),
                ("delay", "cell.delay"),
                ("intensity", "intensity"),
                ("faults", lambda entry: sum(entry["faults"].values())),
                ("delivery", "delivery_rate"),
                ("fallback", "fallback_rate"),
                ("qod", "qod_satisfied"),
                ("clean", "clean"),
            ),
        ),
    ),
    epilogue=_trace_worst_cell,
)
