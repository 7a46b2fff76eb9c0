"""Direct-send soak harness: the E16 reliability matrix.

E15 soaks the full pipeline; this module isolates the one stage E15
showed degrading fastest — rumors with deadline at or below
``direct_send_threshold``, which bypass proxy/GD/gossip and, at paper
parameters, get exactly one unacknowledged send (69.9% delivery at
drop=0.3).  The E16 matrix sweeps the ``direct`` scenario builder over a
drop × hardened grid: the ``hardened`` axis turns on the
ack/retransmit/k-copy layer (``CongosParams.preset("hardened")``), and
the payload reports delivery per cell so the before/after story is one
artifact — ``BENCH_e16_direct_matrix.json``.

Confidentiality is monitored fail-fast in every cell (the reliability
layer may add redundancy, never knowledge; its acks carry rumor ids and
acker pids only), and like E15 everything is deterministic: fault
schedules are seed-keyed, the sweep runs on the exec pool bit-identically
at any ``jobs``, and :func:`direct_payload` excludes wall-clock fields.
:data:`DIRECT_SOAK` declares the matrix for the experiment runner (the
``direct-soak`` command).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.sweeps import SweepResult, delivery_rate, grid
from repro.harness.experiment import Experiment, Table, columns, pick

__all__ = ["BENCH_NAME", "DIRECT_SOAK", "direct_cells", "direct_payload"]

BENCH_NAME = "e16_direct_matrix"


def direct_cells(
    drop: Sequence[float], hardened: Sequence[bool] = (False, True)
) -> List[Dict[str, object]]:
    """The reliability matrix: drop intensities × default/hardened."""
    return grid(drop=list(drop), hardened=[bool(flag) for flag in hardened])


def _mode(cell: Mapping[str, object]) -> str:
    return "hardened" if cell.get("hardened") else "default"


def direct_payload(
    sweep: SweepResult, fixed: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """The deterministic portion of the E16 artifact.

    Per cell: injected faults (total and by pipeline stage — all of them
    should land in the ``direct`` stage, that is the point of the
    scenario), delivery against admissible pairs, and the clean verdict.
    ``delivery_by_mode`` summarizes the tentpole claim: overall delivery
    of the default single-send rule vs the hardened reliability layer.
    """
    cells: List[Dict[str, object]] = []
    by_mode: Dict[str, List[int]] = {}
    for cell in sweep.cells:
        totals = by_mode.setdefault(_mode(cell.cell), [0, 0])
        totals[0] += cell.admissible_pairs()
        totals[1] += cell.missed()
        cells.append(
            {
                "cell": dict(cell.cell),
                "seeds": cell.seeds,
                "faults": cell.fault_totals(),
                "faults_by_stage": cell.fault_totals_by_stage(),
                "admissible_pairs": cell.admissible_pairs(),
                "missed": cell.missed(),
                "direct_pairs": sum(
                    run.paths.get("direct", 0) for run in cell.runs
                ),
                "delivery_rate": cell.delivery_rate(),
                "qod_satisfied": cell.all_satisfied(),
                "clean": cell.all_clean(),
                "peak": cell.peak_summary().as_dict(),
            }
        )
    return {
        "fixed": dict(fixed or {}),
        "cells": cells,
        "all_clean": sweep.all_clean(),
        "delivery_by_mode": {
            mode: delivery_rate(admissible, missed)
            for mode, (admissible, missed) in sorted(by_mode.items())
        },
        "total_faults": sweep.fault_totals(),
        "total_faults_by_stage": sweep.fault_totals_by_stage(),
    }


def _flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, default=16, help="process count")
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument(
        "--deadline",
        type=int,
        default=32,
        help="rumor deadline; must stay at or below "
        "direct_send_threshold=48 so only the direct-send path runs",
    )
    parser.add_argument(
        "--drop",
        type=float,
        nargs="+",
        default=[0.0, 0.1, 0.3],
        metavar="P",
        help="drop-probability axis of the matrix",
    )
    parser.add_argument(
        "--delay", type=float, default=0.0, help="delay probability (fixed)"
    )
    parser.add_argument("--max-delay", type=int, default=4)
    parser.add_argument("--duplicate", type=float, default=0.0)
    parser.add_argument("--reorder", type=float, default=0.0)


DIRECT_SOAK = Experiment(
    command="direct-soak",
    help="sweep the direct-send path over a drop x hardened matrix (E16)",
    bench=BENCH_NAME,
    txt="direct_soak",
    builder="direct",
    flags=_flags,
    cells=lambda args: direct_cells(args.drop),
    fixed=lambda args: pick(
        args, "n", "rounds", "deadline", "delay", "max_delay", "duplicate",
        "reorder",
    ),
    payload=direct_payload,
    tables=(
        Table(
            "direct soak ({cells} cells x {seeds} seeds)",
            columns(
                ("drop", "cell.drop"),
                ("mode", lambda entry: _mode(entry["cell"])),
                ("faults", lambda entry: sum(entry["faults"].values())),
                ("delivery", "delivery_rate"),
                ("qod", "qod_satisfied"),
                ("clean", "clean"),
            ),
        ),
    ),
)
