"""E17 engine-scaling and E17b chaos-scaling benches.

E17 answers "how fast is one default run, and how does that scale with
``n``?": it times the canonical steady-workload cell (seed 0, lean
params, 120 rounds) at several system sizes, records the payload digest
of every run (so the artifact itself proves the optimized engine still
produces bit-identical results), and reports speedups against
:data:`PRE_PR_BASELINE` — wall-clock numbers measured on the same
machine immediately before the hot-path overhaul landed.

The bench has an **engine axis**: every row carries the round kernel it
ran on (``"object"`` or the vectorized ``"array"`` engine from
:mod:`repro.fastcore`), and when one artifact holds both engines at the
same ``n`` the payload's ``engine_speedup`` section records the
array-vs-object ratio measured in the same invocation.  Array-engine
digests are *not* comparable to object-engine digests — the array
engine's contract is statistical parity (DESIGN.md §11), gated by
:mod:`repro.fastcore.parity`, not bit identity.

E17b closes ROADMAP item 2: the E15 chaos matrix was only ever run at
n=16, leaving open whether the drop=0.5 QoD cliff is a small-n artifact.
:data:`CHAOS_SCALING` is the E15 matrix with ``n`` as one more grid axis
(same builder, same cache entries), and ``chaos_scaling_payload``
locates the cliff — the lowest drop intensity at which
quality-of-delivery fails — per system size.

Artifacts: ``BENCH_e17_engine_scaling.json`` / ``BENCH_e17b_chaos_scaling.json``
(written by the ``perf scaling`` / ``perf chaos-scaling`` CLI commands).
"""

from __future__ import annotations

import argparse
import hashlib
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweeps import CellResult, SweepResult
from repro.chaos.soak import chaos_cells, soak_payload
from repro.core.config import CongosParams
from repro.exec.progress import Progress
from repro.exec.tasks import RunSpec, canonical_json, execute_spec
from repro.harness.experiment import Experiment, Table, columns

__all__ = [
    "E17_BENCH_NAME",
    "E17B_BENCH_NAME",
    "PRE_PR_BASELINE",
    "scaling_spec",
    "run_engine_scaling",
    "engine_scaling_payload",
    "CHAOS_SCALING",
    "chaos_scaling_payload",
]

E17_BENCH_NAME = "e17_engine_scaling"
E17B_BENCH_NAME = "e17b_chaos_scaling"

# Wall-clock seconds for scaling_spec(n) measured at commit 29cc6bd (the
# last commit before the hot-path overhaul), single process, warm
# interpreter.  These are the "before" numbers every E17 artifact compares
# against; they are fixed history, not re-measured.
PRE_PR_BASELINE: Dict[int, float] = {16: 0.226, 64: 11.277, 256: 147.361}

DEFAULT_NS: Tuple[int, ...] = (16, 64, 256)
CHAOS_NS: Tuple[int, ...] = (64, 256)


def scaling_spec(
    n: int, rounds: int = 120, deadline: int = 64, engine: str = "object"
) -> RunSpec:
    """The canonical E17 cell: steady workload, lean params, seed 0."""
    return RunSpec.make(
        "steady",
        seed=0,
        n=n,
        rounds=rounds,
        deadline=deadline,
        rate=1,
        period=4,
        params=CongosParams.lean(),
        engine=engine,
    )


def _payload_digest(record) -> str:
    clean = record.without_profile().to_dict()
    return hashlib.sha256(canonical_json(clean).encode("utf-8")).hexdigest()


def run_engine_scaling(
    ns: Sequence[int] = DEFAULT_NS,
    rounds: int = 120,
    deadline: int = 64,
    repeats: int = 1,
    engine: str = "object",
    progress: Optional[Progress] = None,
) -> List[Dict[str, object]]:
    """Time the canonical steady cell at each ``n``, in-process.

    Runs single-process on purpose: E17 measures per-run engine cost, not
    pool throughput.  ``repeats`` > 1 keeps the best wall time (same
    spec => identical record, so only timing varies).  ``engine`` selects
    the round kernel; pass rows from several engines to
    :func:`engine_scaling_payload` together and it computes the
    array-vs-object speedup at every shared ``n``.
    """
    rows: List[Dict[str, object]] = []
    for n in ns:
        spec = scaling_spec(n, rounds=rounds, deadline=deadline, engine=engine)
        record = None
        wall = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            record = execute_spec(spec)
            elapsed = time.perf_counter() - start
            if wall is None or elapsed < wall:
                wall = elapsed
        # The pinned pre-overhaul baseline is object-engine history; it is
        # the "before" column for every engine (for the array engine it is
        # the headline before-any-optimization speedup).
        baseline = PRE_PR_BASELINE.get(n)
        wall = round(wall, 3)
        rows.append(
            {
                "n": n,
                "engine": engine,
                "rounds": rounds,
                "deadline": deadline,
                "spec_key": spec.key,
                "digest": _payload_digest(record),
                "peak": record.peak,
                "total": record.total,
                "qod_satisfied": record.qod_satisfied,
                "clean": record.clean,
                "wall_s": wall,
                "baseline_s": baseline,
                "speedup": (
                    round(baseline / wall, 2) if baseline and wall else None
                ),
            }
        )
        if progress is not None:
            progress.task_done(wall_time=wall)
    return rows


def engine_scaling_payload(rows: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """The E17 artifact body.

    ``runs`` (spec keys, digests, delivery/confidentiality outcomes) is
    deterministic; ``timing`` holds the nondeterministic wall-clock and
    speedup numbers, mirroring the payload/"profile" split used by the
    other BENCH artifacts.
    """
    rows = list(rows)
    runs = [
        {
            key: row.get(key, "object" if key == "engine" else None)
            for key in (
                "n",
                "engine",
                "rounds",
                "deadline",
                "spec_key",
                "digest",
                "peak",
                "total",
                "qod_satisfied",
                "clean",
            )
        }
        for row in rows
    ]
    timing = [
        {
            "n": row["n"],
            "engine": row.get("engine", "object"),
            "wall_s": row["wall_s"],
            "baseline_s": row["baseline_s"],
            "speedup": row["speedup"],
        }
        for row in rows
    ]
    # Array-vs-object speedup at every n both engines covered in THIS
    # artifact (same machine, same invocation — unlike the pinned
    # historical baseline above).
    wall_by_engine: Dict[str, Dict[int, float]] = {}
    for entry in timing:
        wall_by_engine.setdefault(entry["engine"], {})[entry["n"]] = entry[
            "wall_s"
        ]
    object_wall = wall_by_engine.get("object", {})
    array_wall = wall_by_engine.get("array", {})
    engine_speedup = {
        str(n): round(object_wall[n] / array_wall[n], 2)
        for n in sorted(set(object_wall) & set(array_wall))
        if array_wall[n] > 0
    }
    return {
        "scenario": "steady",
        "engines": sorted({entry["engine"] for entry in timing}),
        "runs": runs,
        "baseline": {
            "commit": "29cc6bd",
            "wall_s": {str(n): PRE_PR_BASELINE[n] for n in sorted(PRE_PR_BASELINE)},
        },
        "timing": timing,
        "engine_speedup": engine_speedup,
    }


def _cliff_drop(
    cells: Sequence[Mapping[str, object]], threshold: float
) -> Optional[float]:
    """Lowest drop intensity where QoD fails or delivery dips below
    ``threshold`` (None if the whole axis holds)."""
    failing = [
        float(entry["cell"]["drop"])
        for entry in cells
        if not entry["qod_satisfied"]
        or (
            entry["delivery_rate"] is not None
            and entry["delivery_rate"] < threshold
        )
    ]
    return min(failing) if failing else None


def chaos_scaling_payload(
    sweep: SweepResult,
    fixed: Mapping[str, object],
    threshold: float = 0.999,
) -> Dict[str, object]:
    """The E17b artifact body: one E15 soak payload per ``n`` (the grid's
    ``n`` axis folded back into each body's fixed knobs) plus cliff
    placement."""
    by_n: Dict[int, List[CellResult]] = {}
    for cell in sweep.cells:
        axes = dict(cell.cell)
        by_n.setdefault(axes.pop("n"), []).append(
            CellResult(cell=axes, runs=cell.runs)
        )
    per_n: List[Dict[str, object]] = []
    cliff: Dict[str, object] = {}
    for n, cells in by_n.items():
        fixed_n = dict(fixed, n=n)
        body = soak_payload(SweepResult(cells=cells), fixed_n)
        body["n"] = n
        body["fixed"] = fixed_n
        per_n.append(body)
        cliff[str(n)] = _cliff_drop(body["cells"], threshold)
    return {
        "per_n": per_n,
        "cliff": {
            "threshold": threshold,
            "first_failing_drop": cliff,
        },
    }


def _chaos_scaling_cells(args: argparse.Namespace) -> List[Dict[str, object]]:
    # n-major, so a resumed run walks the sizes in the order it was cut.
    return [
        dict(cell, n=n)
        for n in (args.ns or CHAOS_NS)
        for cell in chaos_cells(args.drop, args.delay)
    ]


def _chaos_scaling_fixed(args: argparse.Namespace) -> Dict[str, object]:
    # The chaos-soak defaults (plus a 2% duplicate rate), so the n=16 E15
    # matrix stays directly comparable.
    return {
        "rounds": args.rounds,
        "deadline": args.deadline,
        "max_delay": 4,
        "duplicate": 0.02,
        "reorder": 0.0,
        "partition_period": 0,
        "partition_width": 0,
        "churn": 0.0,
        "hardened": False,
    }


def _print_cliffs(
    args: argparse.Namespace, payload: Dict[str, object], sweep: SweepResult
) -> None:
    if args.json:
        return
    cliff = payload["cliff"]["first_failing_drop"]
    for n in sorted(cliff, key=int):
        if cliff[n] is not None:
            print("n={}: QoD cliff at drop={}".format(n, cliff[n]))
        else:
            print("n={}: no cliff on this drop axis".format(n))


def _yes(flag: object) -> str:
    return "yes" if flag else "NO"


# Rides the hand-built ``perf`` parser (``perf chaos-scaling``), whose
# flags it shares with ``perf micro`` / ``perf scaling``.
CHAOS_SCALING = Experiment(
    command="perf chaos-scaling",
    help="E17b chaos matrix at larger n",
    bench=E17B_BENCH_NAME,
    txt="chaos_scaling",
    builder="chaos",
    cells=_chaos_scaling_cells,
    fixed=_chaos_scaling_fixed,
    payload=chaos_scaling_payload,
    tables=(
        Table(
            "E17b chaos scaling ({rounds} rounds)",
            columns(
                ("n", "n"),
                ("drop", "cell.drop"),
                ("delay", "cell.delay"),
                (
                    "delivery",
                    lambda entry: (
                        None
                        if entry["delivery_rate"] is None
                        else "{:.4f}".format(entry["delivery_rate"])
                    ),
                ),
                ("qod", lambda entry: _yes(entry["qod_satisfied"])),
                ("clean", lambda entry: _yes(entry["clean"])),
                rows=lambda payload: [
                    dict(entry, n=body["n"])
                    for body in payload["per_n"]
                    for entry in body["cells"]
                ],
            ),
        ),
    ),
    epilogue=_print_cliffs,
)
