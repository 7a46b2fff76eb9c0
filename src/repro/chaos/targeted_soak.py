"""Targeted-adversary soak harness: the E19 worst-case matrix.

Sweeps policy x budget x n over the ``targeted`` scenario builder
(:mod:`repro.chaos.targeted`) on the exec pool, with each targeted cell
paired against its rumor-blind variant at the *same* ledger — the
matched-budget oblivious baseline — and the hardened preset on a
separate axis.  Like E15/E16 the payload is deterministic (seed-keyed
policies, ``jobs``-invariant pool); :data:`TARGETED_SOAK` declares the
matrix for the experiment runner (the ``targeted-soak`` command), whose
exit code also fails on any budget-ledger mismatch.  The artifact is
``BENCH_e19_targeted_matrix.json``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweeps import SweepResult, delivery_rate, grid
from repro.chaos.targeted import policy_names
from repro.harness.experiment import Experiment, Table, columns, pick

__all__ = ["BENCH_NAME", "TARGETED_SOAK", "targeted_cells", "targeted_payload"]

BENCH_NAME = "e19_targeted_matrix"

_PAIR_AXES = ("policy", "per_round", "total", "n", "hardened")


def targeted_cells(
    policies: Sequence[str],
    budgets: Sequence[Tuple[int, int]],
    ns: Sequence[int],
    hardened: Sequence[bool] = (False, True),
    blind: Sequence[bool] = (False, True),
) -> List[Dict[str, object]]:
    """The E19 matrix: policy x (per_round, total) x n x preset x blind."""
    cells: List[Dict[str, object]] = []
    for per_round, total in budgets:
        cells.extend(
            grid(
                policy=list(policies),
                per_round=[int(per_round)],
                total=[int(total)],
                n=[int(n) for n in ns],
                hardened=[bool(flag) for flag in hardened],
                blind=[bool(flag) for flag in blind],
            )
        )
    return cells


def _ledger_ok(record) -> bool:
    """Exact budget accounting for one run: spent == events, caps held."""
    targeted = record.targeted
    if not targeted:
        return False
    budget = targeted["budget"]
    spent_events = sum(targeted["counts"].values())
    return (
        budget["spent"] == spent_events
        and sum(budget["by_kind"].values()) == budget["spent"]
        and budget["max_round_spend"] <= budget["per_round"]
        and budget["max_dst_spend"] <= budget["total"]
    )


def _budget_total(runs, key: str) -> int:
    return sum(run.targeted.get("budget", {}).get(key, 0) for run in runs)


def targeted_payload(
    sweep: SweepResult, fixed: Optional[Mapping[str, object]] = None
) -> Dict[str, object]:
    """The deterministic portion of the E19 artifact.

    Per cell: fault totals, the merged budget ledger with its exact-
    accounting verdict, tracked-rumor delivery, and the usual QoD /
    confidentiality / fallback numbers.  ``comparisons`` pairs every
    targeted cell with its blind twin at the same (policy, budget, n,
    preset) — the matched-budget oblivious baseline — reporting the
    delivery and fallback-rate deltas the tentpole claim rests on.
    """
    cells: List[Dict[str, object]] = []
    by_key: Dict[Tuple, Dict[bool, Dict[str, object]]] = {}
    for cell in sweep.cells:
        tracked_admissible = sum(
            run.targeted.get("tracked_admissible", 0) for run in cell.runs
        )
        tracked_missed = sum(
            run.targeted.get("tracked_missed", 0) for run in cell.runs
        )
        entry = dict(
            cell.verdict(
                "cell", "seeds", "faults", "faults_by_stage",
                "admissible_pairs", "missed", "delivery_rate",
                "qod_satisfied", "fallback_rate", "clean", "peak",
            ),
            budget_spent=_budget_total(cell.runs, "spent"),
            budget_denied=_budget_total(cell.runs, "denied"),
            ledger_ok=all(_ledger_ok(run) for run in cell.runs),
            tracked_admissible=tracked_admissible,
            tracked_missed=tracked_missed,
            tracked_delivery_rate=delivery_rate(
                tracked_admissible, tracked_missed
            ),
        )
        cells.append(entry)
        key = tuple(cell.cell.get(axis) for axis in _PAIR_AXES)
        by_key.setdefault(key, {})[bool(cell.cell.get("blind"))] = entry

    comparisons: List[Dict[str, object]] = []
    for key in sorted(by_key, key=str):
        pair = by_key[key]
        if True not in pair or False not in pair:
            continue
        targeted, oblivious = pair[False], pair[True]
        t_rate = targeted["delivery_rate"]
        o_rate = oblivious["delivery_rate"]
        comparisons.append(
            {
                **dict(zip(_PAIR_AXES, key)),
                "targeted_delivery": t_rate,
                "oblivious_delivery": o_rate,
                "delivery_delta": (
                    round(t_rate - o_rate, 6)
                    if t_rate is not None and o_rate is not None
                    else None
                ),
                "targeted_tracked_delivery": targeted[
                    "tracked_delivery_rate"
                ],
                "targeted_spent": targeted["budget_spent"],
                "oblivious_spent": oblivious["budget_spent"],
                "targeted_fallback_rate": targeted["fallback_rate"],
                "oblivious_fallback_rate": oblivious["fallback_rate"],
            }
        )

    return {
        "fixed": dict(fixed or {}),
        "cells": cells,
        "comparisons": comparisons,
        **sweep.verdict("all_clean", "total_faults", "total_faults_by_stage"),
        "all_ledgers_ok": all(entry["ledger_ok"] for entry in cells),
        "total_budget_spent": _budget_total(sweep.runs(), "spent"),
    }


def _flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", type=int, nargs="+", default=[64], metavar="N")
    # 96 rounds fits the full injection window for deadline 64 (inject
    # in [24, 28), last expiry 92) while keeping the concurrent-rumor
    # population — the dominant cost at n=256 — small.
    parser.add_argument("--rounds", type=int, default=96)
    parser.add_argument(
        "--policies",
        nargs="+",
        default=None,
        choices=policy_names(),
        metavar="POLICY",
        help="policies to sweep (default: all registered)",
    )
    parser.add_argument(
        "--budgets",
        nargs="+",
        default=["4:64", "8:128"],
        metavar="PER_ROUND:TOTAL",
        help="per-destination budget pairs, e.g. 4:64 8:128",
    )
    parser.add_argument(
        "--kind",
        default="drop",
        choices=["drop", "delay"],
        help="what a spent budget unit does",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=8,
        help="deadline-chaser grace rounds after injection",
    )
    parser.add_argument(
        "--drop",
        type=float,
        default=0.0,
        help="background oblivious drop probability composed under the "
        "targeted layer",
    )
    parser.add_argument(
        "--presets",
        nargs="+",
        default=["default", "hardened"],
        choices=["default", "hardened"],
        help="CongosParams presets to sweep",
    )
    parser.add_argument(
        "--aware-only",
        action="store_true",
        help="skip the rumor-blind matched-budget baseline cells",
    )


def _parse_budgets(specs: Sequence[str]) -> List[Tuple[int, int]]:
    budgets = []
    for spec in specs:
        try:
            per_round, total = spec.split(":", 1)
            budgets.append((int(per_round), int(total)))
        except ValueError:
            raise SystemExit(
                "bad --budgets entry {!r}: expected PER_ROUND:TOTAL, "
                "e.g. 4:64".format(spec)
            )
    return budgets


def _policies(args: argparse.Namespace) -> List[str]:
    return list(args.policies) if args.policies else policy_names()


def _budget(entry: Mapping[str, object]) -> str:
    return "{}:{}".format(entry["per_round"], entry["total"])


def _preset(entry: Mapping[str, object]) -> str:
    return "hardened" if entry["hardened"] else "default"


TARGETED_SOAK = Experiment(
    command="targeted-soak",
    help="sweep the budgeted rumor-aware adversary matrix (E19)",
    bench=BENCH_NAME,
    txt="targeted_soak",
    builder="targeted",
    flags=_flags,
    cells=lambda args: targeted_cells(
        _policies(args),
        _parse_budgets(args.budgets),
        args.n,
        hardened=[preset == "hardened" for preset in args.presets],
        blind=(False,) if args.aware_only else (False, True),
    ),
    fixed=lambda args: pick(args, "rounds", "kind", "window", "drop"),
    payload=targeted_payload,
    extras=lambda args, payload: {
        "policies": _policies(args),
        "budgets": [
            "{}:{}".format(*pair) for pair in _parse_budgets(args.budgets)
        ],
    },
    verdict=lambda sweep, payload: (
        payload["all_clean"] and payload["all_ledgers_ok"]
    ),
    tables=(
        Table(
            "targeted soak ({cells} cells x {seeds} seeds)",
            columns(
                ("policy", "cell.policy"),
                ("budget", lambda entry: _budget(entry["cell"])),
                ("n", "cell.n"),
                ("preset", lambda entry: _preset(entry["cell"])),
                (
                    "mode",
                    lambda entry: "blind" if entry["cell"]["blind"] else "aware",
                ),
                ("spent", "budget_spent"),
                (
                    "ledger",
                    lambda entry: "ok" if entry["ledger_ok"] else "MISMATCH",
                ),
                ("delivery", "delivery_rate"),
                ("tracked", "tracked_delivery_rate"),
                ("fallback", "fallback_rate"),
                ("clean", "clean"),
            ),
        ),
        Table(
            "targeted vs matched-budget oblivious",
            columns(
                ("policy", "policy"),
                ("budget", _budget),
                ("n", "n"),
                ("preset", _preset),
                ("aware", "targeted_delivery"),
                ("blind", "oblivious_delivery"),
                ("delta", "delivery_delta"),
                ("aware spent", "targeted_spent"),
                ("blind spent", "oblivious_spent"),
                rows="comparisons",
            ),
        ),
    ),
)
