"""Command-line launcher: ``python -m repro.harness.cli <command>``.

Single runs
-----------
``run``
    Run an audited CONGOS scenario (optionally replicated across seeds,
    in parallel with ``--jobs``) and print its summary.  ``--metrics``
    appends a telemetry-registry dump.
``trace``
    Run one scenario with full telemetry and stream every event —
    rumor lifecycle stages, proxy crossings, GD fan-out — to a JSONL
    file, then print per-rumor timelines (``--rumor`` replays one).

Experiments
-----------
Each is one :class:`~repro.harness.experiment.Experiment` declaration
(:data:`EXPERIMENTS`) run by the one
:func:`~repro.harness.experiment.run_experiment`: a cell grid x
``--seeds`` on the exec pool (``--jobs``), a resumable result cache,
``<name>.txt`` and ``BENCH_<name>.json`` under ``--out`` (``--resume``
reuses its cache), ``--json`` instead of the table, and one set of exit
codes — 0 verdict holds, 1 it does not or a fail-fast invariant tripped,
2 usage, 130 interrupted (rerun with ``--resume``).

``sweep`` / ``profile-sweep``
    Any scenario family over an ``n`` x ``deadline`` grid; ``sweep``
    prints the aggregate table (``--metrics`` adds a registry dump),
    ``profile-sweep`` the per-task wall-clock / worker-pid / cache-hit
    breakdown.  Verdict: QoD satisfied and confidentiality clean.
``chaos-soak`` (E15, ``repro.chaos.soak``)
    The chaos scenario over a drop x delay fault-intensity matrix;
    ``--trace FILE`` re-runs the worst cell with full telemetry so the
    rumor timelines show which injected fault broke a delivery, and
    ``--policy`` layers a targeted policy over the same matrix.
``direct-soak`` (E16, ``repro.chaos.direct``)
    The short-deadline direct-send path over a drop x default/hardened
    matrix: with and without the ack/retransmit/k-copy layer.
``targeted-soak`` (E19, ``repro.chaos.targeted_soak``)
    Budgeted rumor-aware adversaries: policy x budget x n x preset, each
    cell paired with its rumor-blind twin at the same budget.  Verdict
    also fails on a budget-ledger mismatch.
``load-soak`` (E20, ``repro.load.soak``)
    The open workload over an arrival-rate x n x preset (x process)
    matrix, with per-cell SLO metrics and the saturation knee per
    series.  Verdict also fails on a shed-rumor leak.
``perf chaos-scaling`` (E17b, ``repro.perf.scaling``)
    The E15 matrix with ``n`` as one more grid axis, and where the QoD
    cliff sits per ``n``.
``perf scaling`` (E17) / ``net bench`` (E18, both ``repro.perf.scaling``)
    The canonical steady cell across system sizes on each execution
    path — per round kernel (``--engine object array``) resp. in-process
    vs sharded (``--workers``) — timed by each task's own clock and
    reported against the object-inproc row of the same invocation, with
    every row's payload digest.  ``--jobs`` defaults to 1: cells sharing
    the CPU would time each other.  Verdict: confidentiality clean and
    the sharded digests equal to the in-process ones.

The soaks' verdict is confidentiality alone: QoD misses under faults are
what they measure.

Not grids
---------
``perf micro``
    The stable-keyed microbenchmark suite (optionally with cProfile
    hotspot attribution): best-of-``--repeats`` of one callable in this
    process, no cells and no seeds (DESIGN.md Section 8).
``net verify``
    One scenario on both backends of DESIGN.md Section 9, judged by the
    path contract (``repro.harness.parity.check_path``).

A scenario outside the chosen path's scope (``UnsupportedScenario``)
exits 2 on every command, with the one-line reason.

Inspection
----------
``scenarios``
    List the registered scenario builders and their keyword arguments.
``partitions``
    Inspect the partition family a deployment would use.
``bounds``
    Print the paper's closed-form bounds for given parameters.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from typing import Callable, Dict, List

from repro.analysis.bounds import (
    collusion_lower_bound,
    collusion_upper_bound,
    congos_upper_bound,
    strong_confidentiality_lower_bound,
)
from repro.analysis.sweeps import SweepResult, grid
from repro.chaos.direct import DIRECT_SOAK
from repro.chaos.soak import CHAOS_SOAK
from repro.chaos.targeted_soak import TARGETED_SOAK
from repro.core.config import CongosParams
from repro.core.congos import build_partition_set
from repro.api import run_scenario
from repro.exec.bench_io import sweep_payload
from repro.exec.pool import run_specs
from repro.exec.tasks import RunSpec
from repro.harness.experiment import (
    Experiment,
    Table,
    add_shared_flags,
    run_experiment,
)
from repro.harness.parity import check_path
from repro.harness.report import dash, format_kv, format_table
from repro.harness.scenarios import BUILDERS
from repro.load.soak import LOAD_SOAK
from repro.obs.instrument import Telemetry
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import JsonlSink
from repro.obs.timeline import RumorTimeline
from repro.perf.bench import run_suite, suite_payload
from repro.perf.cases import get_case
from repro.perf.scaling import CHAOS_SCALING, ENGINE_SCALING, SHARDED_SCALING
from repro.sim.engine import UnsupportedScenario

SCENARIOS = BUILDERS


def _tau(text: str) -> int:
    """``--tau``: a collusion tolerance; below 1 is a usage error."""
    tau = int(text)
    if tau < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got {}".format(tau))
    return tau


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Confidential Gossip (ICDCS 2011) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an audited CONGOS scenario")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("-n", type=int, default=16, help="process count")
    run.add_argument("--rounds", type=int, default=400)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="SEED",
        help="replicate the run across these seeds (aggregated table)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for multi-seed runs (0 = cpu count)",
    )
    run.add_argument("--deadline", type=int, default=128)
    run.add_argument("--tau", type=_tau, default=1, help="collusion tolerance")
    run.add_argument("--json", action="store_true", help="emit JSON summary")
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print a telemetry-registry dump after the summary",
    )
    run.add_argument(
        "--backend",
        choices=("inproc", "sharded"),
        default="inproc",
        help="execution backend: one in-process engine, or pids sharded "
        "over worker processes on a real transport (identical results)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="sharded backend: worker process count",
    )
    run.add_argument(
        "--engine",
        choices=("object", "array"),
        default="object",
        help="round kernel: object (default), or the vectorized array "
        "engine (statistical parity, needs the repro[fast] extra)",
    )

    trace = sub.add_parser(
        "trace", help="run one scenario with full telemetry, stream JSONL"
    )
    trace.add_argument("scenario", choices=sorted(SCENARIOS))
    trace.add_argument("-n", type=int, default=16, help="process count")
    trace.add_argument("--rounds", type=int, default=400)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--deadline", type=int, default=128)
    trace.add_argument("--tau", type=_tau, default=1)
    trace.add_argument(
        "--lean", action="store_true", help='use the "lean" parameter preset'
    )
    trace.add_argument(
        "--out",
        default="events.jsonl",
        metavar="FILE",
        help="JSONL destination (events + one rumor_lifecycle per rumor)",
    )
    trace.add_argument(
        "--rumor",
        default=None,
        metavar="RID",
        help="replay one rumor's timeline (default: the first injected)",
    )
    trace.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry-registry dump after the timelines",
    )
    trace.add_argument(
        "--backend",
        choices=("inproc", "sharded"),
        default="inproc",
        help="trace the in-process engine, or the sharded backend with "
        "worker-side capture merged deterministically at the coordinator",
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=2,
        help="sharded backend: worker process count",
    )

    for experiment in EXPERIMENTS:
        if experiment.flags is not None:
            experiment_parser = sub.add_parser(
                experiment.command, help=experiment.help
            )
            experiment.flags(experiment_parser)
            add_shared_flags(experiment_parser)

    perf = sub.add_parser(
        "perf",
        help="microbenchmarks and n-scaling benches (E17/E17b)",
    )
    perf.add_argument(
        "suite",
        choices=("micro", "scaling", "chaos-scaling"),
        help="micro = PerfCase registry; scaling = E17 engine scaling; "
        "chaos-scaling = E17b chaos matrix at larger n",
    )
    perf.add_argument(
        "--case",
        action="append",
        default=None,
        metavar="KEY",
        help="micro: run only this case (repeatable; default all)",
    )
    perf.add_argument(
        "--repeats", type=int, default=5, help="micro: timed samples per case"
    )
    perf.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="micro: discarded warmup runs per case",
    )
    perf.add_argument(
        "--profile",
        action="store_true",
        help="micro: attach cProfile hotspot attribution per case",
    )
    perf.add_argument(
        "--ns",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="system sizes (default: 16 64 256 for scaling, 64 256 for "
        "chaos-scaling)",
    )
    perf.add_argument("--rounds", type=int, default=120)
    perf.add_argument("--deadline", type=int, default=64)
    perf.add_argument(
        "--engine",
        nargs="+",
        default=None,
        choices=("object", "array"),
        metavar="ENGINE",
        help="scaling: round kernels to time (default object; pass both "
        "to read the array engine against the object rows in one artifact)",
    )
    perf.add_argument(
        "--drop",
        type=float,
        nargs="+",
        default=[0.0, 0.15, 0.3, 0.5],
        metavar="P",
        help="chaos-scaling: drop-probability axis",
    )
    perf.add_argument(
        "--delay",
        type=float,
        nargs="+",
        default=[0.1],
        metavar="P",
        help="chaos-scaling: delay-probability axis",
    )
    # scaling and chaos-scaling are grid experiments; micro reads --json
    # too.
    add_shared_flags(perf)

    net = sub.add_parser(
        "net",
        help="sharded multi-process backend: digest verification and the "
        "E18 scaling bench",
    )
    net.add_argument(
        "suite",
        choices=("verify", "bench"),
        help="verify = run one scenario on both backends and judge them "
        "by the path contract; bench = E18 inproc-vs-sharded scaling",
    )
    net.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="steady",
        help="verify: scenario builder to compare",
    )
    net.add_argument("-n", type=int, default=16, help="verify: process count")
    net.add_argument("--rounds", type=int, default=96)
    net.add_argument("--seed", type=int, default=0)
    net.add_argument("--deadline", type=int, default=64)
    net.add_argument("--tau", type=_tau, default=1)
    net.add_argument(
        "--lean", action="store_true", help='use the "lean" parameter preset'
    )
    net.add_argument(
        "--workers", type=int, default=2, help="worker process count"
    )
    net.add_argument(
        "--ns",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="bench: system sizes (default: 64 256)",
    )
    # bench is a grid experiment; verify reads --json too.
    add_shared_flags(net)

    sub.add_parser("scenarios", help="list registered scenario builders")

    partitions = sub.add_parser("partitions", help="inspect a partition family")
    partitions.add_argument("-n", type=int, default=16)
    partitions.add_argument("--tau", type=_tau, default=1)
    partitions.add_argument("--seed", type=int, default=0)

    bounds = sub.add_parser("bounds", help="print the paper's bounds")
    bounds.add_argument("-n", type=int, default=64)
    bounds.add_argument("--dmin", type=int, default=128)
    bounds.add_argument("--dmax", type=int, default=128)
    bounds.add_argument("--tau", type=_tau, default=1)
    return parser


def _scenario_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Map CLI flags onto the builder's kwargs (axis-name quirks included)."""
    kwargs: Dict[str, object] = {"n": args.n, "rounds": args.rounds}
    if args.scenario == "theorem1":
        kwargs["dmax"] = args.deadline
    elif args.scenario == "collusion":
        kwargs["tau"] = args.tau
        kwargs["deadline"] = args.deadline
    else:
        kwargs["deadline"] = args.deadline
    return kwargs


def _path_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The execution-path flags as the facade's (and RunSpec's) overrides."""
    sharded = args.backend == "sharded"
    return {
        "backend": args.backend,
        "net": {"workers": args.workers} if sharded else None,
    }


def _registry_from_records(records) -> MetricsRegistry:
    """Aggregate a parent-side registry from RunRecords.

    Worker registries do not cross the process boundary; what the pool
    hands back are slim records, so the sweep-level ``--metrics`` view is
    rebuilt from those.
    """
    registry = MetricsRegistry()
    for record in records:
        registry.counter("exec.runs").inc()
        if record.cache_hit:
            registry.counter("exec.cache_hits").inc()
        elif record.wall_time > 0:
            registry.histogram("exec.task_seconds").observe(record.wall_time)
        registry.counter("messages.total").inc(record.total)
        registry.counter("messages.filtered").inc(record.filtered)
        for service, count in sorted(record.by_service.items()):
            registry.counter("messages.by_service", service=service).inc(count)
        for path, count in sorted(record.paths.items()):
            registry.counter("deliveries.by_path", path=path).inc(count)
        registry.counter("rumors.injected").inc(record.rumors_injected)
    return registry


def _params(args: argparse.Namespace) -> CongosParams:
    return CongosParams.preset("lean" if args.lean else "default", tau=args.tau)


# ----------------------------------------------------------------------
# The two generic experiments: any scenario family over n x deadline.
# ----------------------------------------------------------------------


def _grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument(
        "-n",
        type=int,
        nargs="+",
        default=[16],
        metavar="N",
        help="process-count axis of the grid",
    )
    parser.add_argument(
        "--deadline",
        type=int,
        nargs="+",
        default=[128],
        metavar="D",
        help="deadline axis of the grid",
    )
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--tau", type=_tau, default=1)
    parser.add_argument(
        "--lean", action="store_true", help='use the "lean" parameter preset'
    )


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    _grid_flags(parser)
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a registry dump aggregated from the run records",
    )


def _grid_cells(args: argparse.Namespace) -> List[Dict[str, object]]:
    axis = "dmax" if args.scenario == "theorem1" else "deadline"
    return grid(**{"n": args.n, axis: args.deadline})


def _grid_fixed(args: argparse.Namespace) -> Dict[str, object]:
    fixed: Dict[str, object] = {"rounds": args.rounds, "params": _params(args)}
    if args.scenario == "collusion":
        fixed["tau"] = args.tau
    return fixed


def _grid_verdict(sweep: SweepResult, payload: Dict[str, object]) -> bool:
    return sweep.all_satisfied() and sweep.all_clean()


def _print_sweep_metrics(
    args: argparse.Namespace, payload: Dict[str, object], sweep: SweepResult
) -> None:
    if args.metrics and not args.json:
        records = sweep.runs()
        print()
        print("Telemetry registry (aggregated from {} records)".format(
            len(records)
        ))
        print(_registry_from_records(records).render())


SWEEP = Experiment(
    command="sweep",
    help="run a scenario grid on the parallel exec pool",
    bench="{scenario}_sweep",
    txt="{scenario}_sweep",
    builder="{scenario}",
    flags=_sweep_flags,
    cells=_grid_cells,
    fixed=_grid_fixed,
    payload=lambda sweep, fixed: sweep_payload(sweep),
    verdict=_grid_verdict,
    tables=(
        Table(
            "sweep {scenario} ({cells} cells x {seeds} seeds)",
            lambda payload, sweep: (sweep.table_headers(), sweep.table_rows()),
        ),
    ),
    epilogue=_print_sweep_metrics,
)


def _profile_rows(payload: Dict[str, object], sweep: SweepResult):
    axis_names = sorted(sweep.cells[0].cell)
    rows = [
        [
            *[cell.cell[key] for key in axis_names],
            record.seed,
            round(record.wall_time, 3),
            dash(record.worker_pid),
            "yes" if record.cache_hit else "no",
        ]
        for cell in sweep.cells
        for record in cell.runs
    ]
    return [*axis_names, "seed", "wall s", "worker pid", "cached"], rows


def _profile_extras(
    args: argparse.Namespace, payload: Dict[str, object]
) -> Dict[str, object]:
    elapsed = payload["elapsed_seconds"]
    busy = payload["profile"]["task_seconds_total"]
    return {
        "jobs": args.jobs,
        "speedup": round(busy / elapsed, 2) if elapsed > 0 else 0.0,
    }


def _print_pool_profile(
    args: argparse.Namespace, payload: Dict[str, object], sweep: SweepResult
) -> None:
    if args.json:
        return
    profile = payload["profile"]
    print()
    print(
        format_kv(
            [
                ("tasks", profile["tasks"]),
                ("executed", profile["executed"]),
                ("cache hits", profile["cache_hits"]),
                ("workers", profile["workers"]),
                ("task seconds (total)", profile["task_seconds_total"]),
                ("task seconds (mean)", profile["task_seconds_mean"]),
                ("task seconds (max)", profile["task_seconds_max"]),
                ("elapsed seconds", payload["elapsed_seconds"]),
                ("parallel speedup", payload["speedup"]),
            ],
            title="Exec-pool profile",
        )
    )


PROFILE_SWEEP = Experiment(
    command="profile-sweep",
    help="run a sweep and print the per-task wall-clock breakdown",
    bench="{scenario}_profile",
    txt="{scenario}_profile",
    builder="{scenario}",
    flags=_grid_flags,
    cells=_grid_cells,
    fixed=_grid_fixed,
    # All timing: nothing about a profile is deterministic.
    payload=lambda sweep, fixed: {},
    extras=_profile_extras,
    verdict=_grid_verdict,
    tables=(
        Table(
            lambda args, cells: "profile-sweep {} ({} tasks)".format(
                args.scenario, cells * args.seeds
            ),
            _profile_rows,
        ),
    ),
    epilogue=_print_pool_profile,
)

# Every grid experiment the CLI runs.  One with ``flags`` gets its own
# subcommand (plus the shared flags); the ``perf`` ones and ``net bench``
# ride the hand-built ``perf`` / ``net`` parsers next to ``perf micro``
# and ``net verify``.
EXPERIMENTS = (
    SWEEP,
    PROFILE_SWEEP,
    CHAOS_SOAK,
    DIRECT_SOAK,
    TARGETED_SOAK,
    LOAD_SOAK,
    CHAOS_SCALING,
    ENGINE_SCALING,
    SHARDED_SCALING,
)


def cmd_run(args: argparse.Namespace) -> int:
    params = CongosParams(tau=args.tau)
    kwargs = _scenario_kwargs(args)
    if args.seeds is not None and len(args.seeds) > 1:
        return _run_multi_seed(args, params, kwargs)
    seed = args.seeds[0] if args.seeds else args.seed
    telemetry = Telemetry() if args.metrics else None
    result = run_scenario(
        args.scenario,
        seed=seed,
        telemetry=telemetry,
        engine=args.engine,
        params=params,
        **_path_kwargs(args),
        **kwargs,
    )
    summary = result.summary()
    if args.json:
        if telemetry is not None:
            summary["metrics"] = telemetry.metrics.dump()
        print(json.dumps(summary, indent=2, default=str))
    else:
        print(format_kv(sorted(summary["messages"].items()), title="Messages"))
        print()
        print(format_kv(sorted(summary["qod"].items()), title="Quality of Delivery"))
        print()
        print(
            format_kv(
                sorted(summary["confidentiality"].items()), title="Confidentiality"
            )
        )
        print()
        print(format_kv(sorted(summary["faults"].items()), title="CRRI events"))
        if telemetry is not None:
            print()
            print("Telemetry registry")
            print(telemetry.metrics.render())
    ok = result.qod.satisfied and result.confidentiality.is_clean()
    return 0 if ok else 1


def _run_multi_seed(
    args: argparse.Namespace, params: CongosParams, kwargs: Dict[str, object]
) -> int:
    """Replicate one scenario across seeds on the exec pool."""
    specs = [
        RunSpec.make(
            args.scenario,
            seed=seed,
            params=params,
            engine=args.engine,
            **_path_kwargs(args),
            **kwargs,
        )
        for seed in args.seeds
    ]
    records = run_specs(specs, jobs=args.jobs)
    if args.json:
        print(json.dumps([record.to_dict() for record in records], indent=2))
    else:
        rows: List[List[object]] = [
            [
                record.seed,
                record.peak,
                record.total,
                record.rumors_injected,
                record.qod_satisfied,
                record.clean,
            ]
            for record in records
        ]
        print(
            format_table(
                ["seed", "peak", "total msgs", "rumors", "qod", "clean"],
                rows,
                title="{} across {} seeds".format(args.scenario, len(records)),
            )
        )
        if args.metrics:
            print()
            print("Telemetry registry (aggregated from {} records)".format(
                len(records)
            ))
            print(_registry_from_records(records).render())
    ok = all(r.qod_satisfied for r in records) and all(r.clean for r in records)
    return 0 if ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    timeline = RumorTimeline()
    with JsonlSink(path=args.out) as sink:
        telemetry = Telemetry(sinks=[sink])
        telemetry.subscribe(timeline)
        result = run_scenario(
            args.scenario,
            seed=args.seed,
            observers=[timeline],
            telemetry=telemetry,
            params=_params(args),
            **_path_kwargs(args),
            **_scenario_kwargs(args),
        )
        timeline.export(sink)
        emitted = sink.emitted
    lifecycles = timeline.lifecycles()
    rows: List[List[object]] = [
        [
            rec.rid,
            rec.src,
            rec.inject_round,
            len(rec.dest),
            rec.fragments,
            rec.delivered_count,
            dash(rec.confirmed_round),
            dash(rec.fallback_round),
            (max(rec.latencies()) if rec.latencies() else "-"),
        ]
        for rec in lifecycles
    ]
    print(
        format_table(
            [
                "rumor",
                "src",
                "inject",
                "|D|",
                "frags",
                "delivered",
                "confirm",
                "fallback",
                "max lat",
            ],
            rows,
            title="trace {} [{} backend]: {} rumors, {} events -> {}".format(
                args.scenario, args.backend, len(lifecycles), emitted, args.out
            ),
        )
    )
    replay_rid = args.rumor if args.rumor is not None else (
        lifecycles[0].rid if lifecycles else None
    )
    if replay_rid is not None:
        print()
        print("timeline of rumor {}".format(replay_rid))
        for line in timeline.replay(replay_rid):
            print("  " + line)
    if args.metrics:
        print()
        print("Telemetry registry")
        print(telemetry.metrics.render())
    ok = result.qod.satisfied and result.confidentiality.is_clean()
    return 0 if ok else 1


def _builder_kwargs(builder) -> str:
    """Render a builder's keyword arguments for the listing."""
    parts: List[str] = []
    for parameter in inspect.signature(builder).parameters.values():
        if parameter.default is inspect.Parameter.empty:
            parts.append(parameter.name)
        else:
            parts.append("{}={!r}".format(parameter.name, parameter.default))
    return ", ".join(parts)


def _perf_micro(args: argparse.Namespace) -> int:
    if args.case:
        cases = [get_case(key) for key in args.case]
    else:
        cases = None
    results = run_suite(
        cases, repeats=args.repeats, warmup=args.warmup, profile=args.profile
    )
    if args.json:
        print(json.dumps(suite_payload(results), indent=2, sort_keys=True))
        return 0
    rows: List[List[object]] = []
    for result in results:
        rows.append(
            [
                result.key,
                "{:.4f}".format(result.best),
                "{:.4f}".format(result.mean),
                "{:.2f}".format(result.best_per_op * 1e6),
                result.repeats,
            ]
        )
    print(
        format_table(
            ["case", "best s", "mean s", "us/op", "repeats"],
            rows,
            title="Microbenchmarks ({} warmup, keys: {})".format(
                args.warmup, len(results)
            ),
        )
    )
    if args.profile:
        for result in results:
            if not result.hotspots:
                continue
            print("\n{} hotspots:".format(result.key))
            for spot in result.hotspots[:5]:
                print(
                    "  {cumtime_s:>8.4f}s cum  {calls:>8} calls  {function}".format(
                        **spot
                    )
                )
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    if args.suite == "micro":
        return _perf_micro(args)
    scaling = ENGINE_SCALING if args.suite == "scaling" else CHAOS_SCALING
    return run_experiment(scaling, args)


def _net_verify(args: argparse.Namespace) -> int:
    builder = SCENARIOS[args.scenario]
    base = builder(seed=args.seed, params=_params(args), **_scenario_kwargs(args))
    report = check_path(base, backend="sharded", net={"workers": args.workers})
    match = report.candidate_digest == report.reference_digest
    if args.json:
        payload = {
            "scenario": args.scenario,
            "n": args.n,
            "rounds": args.rounds,
            "seed": args.seed,
            "workers": args.workers,
            "inproc_digest": report.reference_digest,
            "sharded_digest": report.candidate_digest,
            "digest_match": match,
            "qod_satisfied": report.qod_satisfied,
            "passed": report.passed,
            "failures": report.failures,
            "net": report.net,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        yes = {True: "yes", False: "NO"}
        rows = [
            ("scenario", args.scenario),
            ("n / rounds / seed", "{} / {} / {}".format(
                args.n, args.rounds, args.seed
            )),
            ("workers", args.workers),
            ("inproc digest", report.reference_digest[:16]),
            ("sharded digest", report.candidate_digest[:16]),
            ("digests match", yes[match]),
            ("local / cross messages", "{} / {}".format(
                report.net["local_messages"], report.net["cross_messages"]
            )),
            ("cross fraction", report.net["cross_fraction"]),
            ("same run", yes[report.passed]),
        ]
        rows += [("failure", failure) for failure in report.failures]
        print(format_kv(rows, title="net verify"))
    return 0 if report.passed else 1


def cmd_net(args: argparse.Namespace) -> int:
    if args.suite == "verify":
        return _net_verify(args)
    return run_experiment(SHARDED_SCALING, args)


def cmd_scenarios(_: argparse.Namespace) -> int:
    rows = []
    for name, builder in sorted(SCENARIOS.items()):
        doc = (builder.__doc__ or "").strip().splitlines()
        rows.append([name, doc[0] if doc else "", _builder_kwargs(builder)])
    print(format_table(["scenario", "description", "kwargs"], rows))
    return 0


def cmd_partitions(args: argparse.Namespace) -> int:
    params = CongosParams(tau=args.tau)
    partitions = build_partition_set(args.n, params, args.seed)
    rows = []
    for index in range(partitions.count):
        sizes = [
            len(partitions.members(index, group))
            for group in range(partitions.num_groups)
        ]
        rows.append([index, sizes])
    print(
        format_table(
            ["partition", "group sizes"],
            rows,
            title="{} partitions of {} groups over n={}".format(
                partitions.count, partitions.num_groups, args.n
            ),
        )
    )
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    pairs = [
        (
            "Thm 11 upper (per round)",
            congos_upper_bound(args.n, args.dmin),
        ),
        (
            "Thm 16 upper (tau={})".format(args.tau),
            collusion_upper_bound(args.n, args.dmin, args.tau),
        ),
        (
            "Thm 1 lower (strong conf.)",
            strong_confidentiality_lower_bound(args.n, args.dmax),
        ),
        (
            "Thm 12 lower (tau={})".format(args.tau),
            collusion_lower_bound(args.n, args.dmax, args.tau),
        ),
    ]
    print(
        format_kv(
            pairs,
            title="Paper bounds at n={}, dmin={}, dmax={}".format(
                args.n, args.dmin, args.dmax
            ),
        )
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        experiment.command: functools.partial(run_experiment, experiment)
        for experiment in EXPERIMENTS
        if experiment.flags is not None
    }
    handlers.update({
        "run": cmd_run,
        "trace": cmd_trace,
        "perf": cmd_perf,
        "net": cmd_net,
        "scenarios": cmd_scenarios,
        "partitions": cmd_partitions,
        "bounds": cmd_bounds,
    })
    try:
        return handlers[args.command](args)
    except UnsupportedScenario as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
