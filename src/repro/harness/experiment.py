"""One experiment runner: grid -> pool -> reduce -> sidecar -> table -> exit code.

Every claim this repo makes beyond a single run has the same shape: a
grid of cells, replicated across seeds on the :mod:`repro.exec` pool,
reduced to a deterministic payload, written as ``BENCH_<name>.json`` next
to a text table, and judged by a verdict that becomes the exit code.  An
:class:`Experiment` declares what differs — the flags, the grid, the
reducer, the table columns, the verdict — and :func:`run_experiment` is
the one place that owns what does not: the ``--resume``/``--out`` check,
the result cache, progress, the pool call, the fail-fast and interrupt
exits, the timing/profile section of the sidecar, ``--json`` vs table
output, and the artifacts.

Declarations live beside their reducers and ``repro.harness.cli``
registers them; adding an experiment is one more declaration (DESIGN.md
Section 12).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.sweeps import SweepResult, sweep_congos
from repro.audit.failfast import InvariantViolation
from repro.exec.bench_io import profile_payload, write_bench_json
from repro.exec.cache import ResultCache
from repro.exec.progress import Progress
from repro.harness.report import dash, format_table

__all__ = [
    "Experiment",
    "Table",
    "add_shared_flags",
    "columns",
    "pick",
    "run_experiment",
]

Args = argparse.Namespace
Payload = Dict[str, object]
# A declared string: a ``str.format`` template over the parsed flags, or
# a callable of them for what a template cannot say.
Text = Union[str, Callable[..., str]]
# What a table shows: ``(headers, rows)`` from the payload and the sweep.
TableBody = Callable[[Payload, SweepResult], Tuple[Sequence[str], List[List[object]]]]


def _text(template: Text, args: Args, **extra: object) -> str:
    if callable(template):
        return template(args, **extra)
    return template.format(**vars(args), **extra)


def pick(args: Args, *names: str) -> Dict[str, object]:
    """The named flags as builder kwargs, in the order given."""
    return {name: getattr(args, name) for name in names}


def columns(
    *cols: Tuple[str, Union[str, Callable[[Dict[str, object]], object]]],
    rows: Union[str, Callable[[Payload], Sequence[Dict[str, object]]]] = "cells",
) -> TableBody:
    """A table body declared column by column over ``payload[rows]``.

    Each column is ``(header, getter)``: a dotted key path into the row's
    payload entry (``"cell.drop"``) or a callable of the entry.  Missing
    values (``None``) render as "-".
    """

    def value(entry: Dict[str, object], getter) -> object:
        if callable(getter):
            return getter(entry)
        for part in getter.split("."):
            entry = entry[part]  # type: ignore[assignment]
        return entry

    def body(payload: Payload, sweep: SweepResult):
        entries = rows(payload) if callable(rows) else payload[rows]
        return (
            [header for header, _ in cols],
            [[dash(value(entry, getter)) for _, getter in cols] for entry in entries],
        )

    return body


@dataclass(frozen=True)
class Table:
    """One rendered table; ``title`` may use ``{cells}`` (the grid size)."""

    title: Text
    body: TableBody

    def render(
        self, args: Args, payload: Payload, sweep: SweepResult, cells: int
    ) -> Optional[str]:
        headers, rows = self.body(payload, sweep)
        if not rows:
            return None
        return format_table(headers, rows, title=_text(self.title, args, cells=cells))


@dataclass(frozen=True)
class Experiment:
    """What one experiment is, as data; :func:`run_experiment` runs it."""

    # CLI subcommand: "chaos-soak", or "perf chaos-scaling" for a suite
    # nested under the ``perf`` parent command.
    command: str
    help: str
    # Artifact names under --out: BENCH_<bench>.json and <txt>.txt.
    bench: Text
    txt: Text
    # Registered scenario builder every cell runs.
    builder: Text
    # The experiment's own flags; the shared ones are added beside them.
    flags: Callable[[argparse.ArgumentParser], None]
    # The grid, and the builder kwargs held fixed across it.
    cells: Callable[[Args], List[Dict[str, object]]]
    fixed: Callable[[Args], Dict[str, object]]
    # The deterministic half of the sidecar (the fixed kwargs it was
    # reduced under included): same grid and seeds => same payload at any
    # --jobs, fresh or resumed.
    payload: Callable[[SweepResult, Dict[str, object]], Payload]
    # Tables printed unless --json; the first is also written to the TXT.
    tables: Sequence[Table]
    # Worker processes when --jobs is not given (0 = cpu count).  An
    # experiment whose result is each cell's wall-clock declares 1: cells
    # sharing the CPU would time each other.
    jobs: int = 0
    # Further sidecar keys, given the flags and the payload assembled so
    # far (timing included).
    extras: Optional[Callable[[Args, Payload], Payload]] = None
    # Exit 0 iff this holds.  QoD misses are what the soaks measure;
    # confidentiality is what none of them may lose.
    verdict: Callable[[SweepResult, Payload], bool] = (
        lambda sweep, payload: sweep.all_clean()
    )
    # Runs last, after the artifacts are written (closing report lines, a
    # follow-up traced run); checks ``args.json`` itself if it prints.
    epilogue: Optional[Callable[[Args, Payload, SweepResult], None]] = None


def add_shared_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every experiment takes, declared once."""
    parser.add_argument(
        "--seeds", type=int, default=2, help="seed replicates per cell"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = cpu count, 1 = serial; default: cpu "
        "count, 1 for the timed scaling benches)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="artifact directory: result cache, TXT table, BENCH JSON",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse cached cells under --out instead of re-running them",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON payload")


def run_experiment(exp: Experiment, args: Args) -> int:
    """Run ``exp`` as parsed ``args`` ask; returns the process exit code.

    0 the verdict holds, 1 it does not (or a worker's fail-fast monitor
    tripped), 2 a usage error, 130 interrupted.
    """
    if args.resume and not args.out:
        print("--resume needs --out (the cache lives there)", file=sys.stderr)
        return 2
    if args.jobs is None:
        args.jobs = exp.jobs
    cells = exp.cells(args)
    fixed = exp.fixed(args)
    builder = _text(exp.builder, args)
    cache = ResultCache(os.path.join(args.out, "cache")) if args.out else None
    total = len(cells) * args.seeds
    progress = Progress.for_tty(total, label=exp.command)
    try:
        sweep = sweep_congos(
            builder,
            cells,
            seeds=range(args.seeds),
            jobs=args.jobs,
            cache=cache,
            resume=args.resume,
            progress=progress,
            **fixed,
        )
    except InvariantViolation as violation:
        # Every experiment's red alert: faults, targeting and overload may
        # cost delivery, never confidentiality.
        print("\nINVARIANT VIOLATION: {}".format(violation), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(
            "\ninterrupted after {} of {} tasks{}".format(
                progress.done,
                total,
                " — rerun with --resume to continue" if args.out else "",
            ),
            file=sys.stderr,
        )
        return 130
    progress.finish()

    payload = exp.payload(sweep, fixed)
    payload["scenario"] = builder
    payload["seeds"] = args.seeds
    # Wall-clock and cache accounting: with "created", the keys an artifact
    # comparison drops before asserting the rest identical.
    payload["elapsed_seconds"] = round(progress.elapsed(), 3)
    payload["executed_tasks"] = progress.executed
    payload["cached_tasks"] = progress.cached
    payload["profile"] = profile_payload(sweep.runs())
    if exp.extras is not None:
        payload.update(exp.extras(args, payload))

    rendered = [
        table.render(args, payload, sweep, len(cells)) for table in exp.tables
    ]
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print("\n\n".join(text for text in rendered if text))
    if args.out:
        txt_path = os.path.join(args.out, _text(exp.txt, args) + ".txt")
        with open(txt_path, "w", encoding="utf-8") as handle:
            handle.write("{}\n".format(rendered[0]))
        artifact = write_bench_json(
            _text(exp.bench, args), payload, results_dir=args.out
        )
        print("artifacts: {}".format(artifact), file=sys.stderr)
    if exp.epilogue is not None:
        exp.epilogue(args, payload, sweep)
    return 0 if exp.verdict(sweep, payload) else 1
