"""Scaling benches: E17 / E18 over the execution paths, E17b over chaos.

E17 and E18 ask one question of two axes — "how fast is one run on each
execution path, and is it still the same run?" — so they are two
:class:`~repro.harness.experiment.Experiment` declarations over one
reducer.  Both run the canonical steady cell (lean params, one injection
per four rounds) at several system sizes:

* :data:`ENGINE_SCALING` (E17, ``perf scaling``) over the round kernels:
  cells ``{n, engine}`` with engine ``"object"`` or the vectorized
  ``"array"`` engine of :mod:`repro.fastcore`;
* :data:`SHARDED_SCALING` (E18, ``net bench``) over the backends: cells
  ``{n}`` and ``{n, backend: "sharded", net: {workers}}`` of
  :mod:`repro.net`.

:func:`path_scaling_payload` reads each cell's wall-clock from the
record's own ``wall_time`` — taken inside the task, around the run and
nothing else — and reports it as a ratio against the object-inproc row of
the same ``(n, seed)`` in the same invocation.  Every row carries its
:meth:`~repro.exec.results.RunRecord.digest`; rows that promise bit
identity with that reference (the object engine on another backend) must
equal it, which with a clean audit is the verdict.  Array-engine digests
are *not* comparable to object-engine ones — the array engine's contract
is statistical parity (DESIGN.md §11), gated by
:mod:`repro.fastcore.parity`.  Both declare one worker by default: cells
that share the CPU would time each other.

E17b closes ROADMAP item 2: the E15 chaos matrix was only ever run at
n=16, leaving open whether the drop=0.5 QoD cliff is a small-n artifact.
:data:`CHAOS_SCALING` is the E15 matrix with ``n`` as one more grid axis
(same builder, same cache entries), and ``chaos_scaling_payload``
locates the cliff — the lowest drop intensity at which
quality-of-delivery fails — per system size.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.sweeps import CellResult, SweepResult
from repro.chaos.soak import chaos_cells, soak_payload
from repro.core.config import CongosParams
from repro.harness.experiment import Experiment, Table, columns

__all__ = [
    "E17_BENCH_NAME",
    "E17B_BENCH_NAME",
    "ENGINE_SCALING",
    "SHARDED_SCALING",
    "path_scaling_payload",
    "CHAOS_SCALING",
    "chaos_scaling_payload",
]

E17_BENCH_NAME = "e17_engine_scaling"
E17B_BENCH_NAME = "e17b_chaos_scaling"

ENGINE_NS: Tuple[int, ...] = (16, 64, 256)
SHARDED_NS: Tuple[int, ...] = (64, 256)
CHAOS_NS: Tuple[int, ...] = (64, 256)

# The execution path every ratio and digest comparison is read against.
REFERENCE_PATH = ("object", "inproc")
# The parameter preset of the canonical cell.
PRESET = "lean"


def _path(cell: Mapping[str, object]) -> Tuple[str, str]:
    return (str(cell.get("engine", "object")), str(cell.get("backend", "inproc")))


def _scaling_fixed(args: argparse.Namespace) -> Dict[str, object]:
    """The canonical steady cell both benches hold fixed."""
    return {
        "rounds": args.rounds,
        "deadline": args.deadline,
        "rate": 1,
        "period": 4,
        "params": CongosParams.preset(PRESET),
    }


def path_scaling_payload(
    sweep: SweepResult, fixed: Mapping[str, object]
) -> Dict[str, object]:
    """The E17 / E18 artifact body, one row per cell and seed.

    ``runs`` is deterministic (spec keys, digests, delivery and
    confidentiality outcomes, the sharded backend's message split and wire
    bytes); ``timing`` holds everything wall-clock.  ``speedup`` is the
    reference row's wall time over this row's, ``cached`` marks a row whose
    wall time is the original run's, read back from the result cache.
    """
    records = [
        (_path(cell.cell), run, run.digest())
        for cell in sweep.cells
        for run in cell.runs
    ]
    reference = {
        (run.n, run.seed): (run.wall_time, digest)
        for path, run, digest in records
        if path == REFERENCE_PATH
    }
    runs: List[Dict[str, object]] = []
    timing: List[Dict[str, object]] = []
    for path, run, digest in records:
        engine, backend = path
        ref_wall, ref_digest = reference.get((run.n, run.seed), (None, None))
        net = dict(run.net)
        phase_latency = net.pop("phase_latency_s", None)
        key = {"n": run.n, "engine": engine, "backend": backend, "seed": run.seed}
        runs.append(
            {
                **key,
                "spec_key": run.spec_key,
                "digest": digest,
                # Only the object engine promises the reference's bits.
                "digest_match": (
                    digest == ref_digest
                    if ref_digest is not None
                    and engine == "object"
                    and path != REFERENCE_PATH
                    else None
                ),
                "peak": run.peak,
                "total": run.total,
                "rumors": run.rumors_injected,
                "qod_satisfied": run.qod_satisfied,
                "clean": run.clean,
                **net,
            }
        )
        timing.append(
            {
                **key,
                "wall_s": round(run.wall_time, 3),
                "cached": run.cache_hit,
                "speedup": (
                    round(ref_wall / run.wall_time, 4)
                    if ref_wall is not None and run.wall_time > 0
                    else None
                ),
                "msgs_per_s": (
                    round(run.total / run.wall_time)
                    if run.wall_time > 0
                    else None
                ),
                **({"phase_latency_s": phase_latency} if phase_latency else {}),
            }
        )
    return {
        "fixed": dict(fixed, params=PRESET),
        "runs": runs,
        "timing": timing,
        "all_digests_match": all(
            row["digest_match"] is not False for row in runs
        ),
        "all_clean": sweep.all_clean(),
    }


def _scaling_verdict(sweep: SweepResult, payload: Dict[str, object]) -> bool:
    return bool(payload["all_clean"] and payload["all_digests_match"])


def _yes(flag: object) -> str:
    return "yes" if flag else "NO"


def _times(ratio: Optional[float]) -> Optional[str]:
    return None if ratio is None else "{:.3g}x".format(ratio)


# One table shape for both benches; "-" where a column does not apply.
_SCALING_COLUMNS = columns(
    ("n", "n"),
    ("engine", "engine"),
    ("backend", "backend"),
    ("seed", "seed"),
    ("wall s", lambda row: "{:.3f}".format(row["wall_s"])),
    ("vs object-inproc", lambda row: _times(row["speedup"])),
    ("msgs", "total"),
    ("cross", lambda row: row.get("cross_fraction")),
    ("clean", lambda row: _yes(row["clean"])),
    (
        "match",
        lambda row: (
            None if row["digest_match"] is None else _yes(row["digest_match"])
        ),
    ),
    ("cached", lambda row: "yes" if row["cached"] else "no"),
    ("digest", lambda row: row["digest"][:12]),
    rows=lambda payload: [
        dict(run, **clock)
        for run, clock in zip(payload["runs"], payload["timing"])
    ],
)


def _engine_names(args: argparse.Namespace) -> Tuple[str, ...]:
    return tuple(args.engine or ("object",))


def _engine_artifact(args: argparse.Namespace) -> str:
    # An invocation without the object engine has no reference row to be
    # read against; it is its own artifact, not a rewrite of the one that
    # has.
    if "object" in _engine_names(args):
        return E17_BENCH_NAME
    return E17_BENCH_NAME + "_array"


# Both ride hand-built parsers (``perf`` / ``net``) next to commands that
# are not grid experiments.
ENGINE_SCALING = Experiment(
    command="perf scaling",
    help="E17 engine scaling: the steady cell per round kernel and n",
    bench=_engine_artifact,
    txt=_engine_artifact,
    builder="steady",
    jobs=1,
    cells=lambda args: [
        {"n": n, "engine": engine}
        for engine in _engine_names(args)
        for n in (args.ns or ENGINE_NS)
    ],
    fixed=_scaling_fixed,
    payload=path_scaling_payload,
    verdict=_scaling_verdict,
    tables=(
        Table(
            "E17 engine scaling ({rounds} rounds, steady/lean)", _SCALING_COLUMNS
        ),
    ),
)

SHARDED_SCALING = Experiment(
    command="net bench",
    help="E18 sharded scaling: the steady cell in-process vs sharded",
    bench="e18_sharded_scaling",
    txt="e18_sharded_scaling",
    builder="steady",
    jobs=1,
    cells=lambda args: [
        cell
        for n in (args.ns or SHARDED_NS)
        for cell in (
            {"n": n},
            {"n": n, "backend": "sharded", "net": {"workers": args.workers}},
        )
    ],
    fixed=_scaling_fixed,
    payload=path_scaling_payload,
    verdict=_scaling_verdict,
    tables=(
        Table(
            "E18 sharded scaling ({rounds} rounds, {workers} workers, "
            "single host)",
            _SCALING_COLUMNS,
        ),
    ),
)


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
