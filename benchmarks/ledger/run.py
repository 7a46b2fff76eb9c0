"""The perf ledger: one benchmark for all three execution paths.

    python benchmarks/ledger/run.py [--seed S] [--repeats K] [--out DIR]
        the suite: six workloads x K untraced repeats (each a fresh
        process) + one traced run each -> DIR/ledger.json, every metric
        printed by name with its unit
    python benchmarks/ledger/run.py --smoke
        the same at toy sizes (< 30 s), then validates the ledger it wrote
    python benchmarks/ledger/run.py compare OLD.json NEW.json
        row per workload x metric with verdicts; nonzero on a regression
    python benchmarks/ledger/run.py --workload W --seed N --seconds T --trace 0|1
        one run of one workload (what the suite spawns and what
        BENCHMARK.json names): measures for T seconds, checks the outputs,
        prints one JSON object as its last line

See README.md beside this file for the metric tables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DEFAULT_OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3  # before the first iteration and after each


def _fail(message: str, code: int = 2) -> NoReturn:
    print("ledger: " + message, file=sys.stderr)
    sys.exit(code)


def _require_tree() -> float:
    """Put this checkout's ``src`` first on ``sys.path`` and import the
    facade from it; returns the import's wall time."""
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        _fail("no src/repro/api.py under {}; run from a checkout of the repo".format(ROOT))
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
    except ImportError:
        _fail("numpy is missing; the array workloads need it: pip install repro[fast]")
    t0 = time.perf_counter()
    import repro.api

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(repro.api.__file__).startswith(SRC + os.sep):
        _fail("imported repro from {} instead of {}".format(repro.api.__file__, SRC))
    return elapsed


def _children() -> list:
    """Pids whose parent is this process, zombies included (from /proc)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry), "r", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid ..." and comm may hold spaces
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_children(grace: float = 5.0) -> None:
    """Stop and wait for every process this one started, so that nothing
    outlives a run.  The spawn context behind ``repro.net`` starts a
    ``multiprocessing.resource_tracker`` that otherwise ends only after
    its parent has: closing its pipe ends it, and it ignores SIGTERM, so
    whatever is still there after ``grace`` seconds is killed."""
    import signal

    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()  # closes the pipe and waits for the tracker
        except Exception:
            pass
    for sig, wait_s in ((signal.SIGTERM, grace), (signal.SIGKILL, grace)):
        pending = _children()
        if not pending:
            return
        for pid in pending:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait_s
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        pending.remove(pid)
                except ChildProcessError:
                    pending.remove(pid)
            if pending:
                time.sleep(0.01)


def _single(args: argparse.Namespace) -> int:
    """One run of one workload, in this process; no process it started
    is left behind on any way out (a SIGTERM included: it becomes a
    SystemExit, so the ``finally`` below still runs)."""
    import signal

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run_single(args)
    finally:
        _stop_children()


def _run_single(args: argparse.Namespace) -> int:
    from workloads import get_workload

    try:
        workload = get_workload(args.workload)
    except KeyError as error:
        _fail(str(error.args[0]))
    import_s = _require_tree()
    import measure
    from metrics import DRIVER_END_TO_END, END_TO_END, PER_LAYER

    os.makedirs(args.out, exist_ok=True)
    if args.trace:
        import tracing

        record = tracing.traced_run(workload, args.seed, args.smoke, args.out, import_s)
        trace_path = os.path.join(args.out, "trace_{}.json".format(workload.name))
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"run": "{}/seed{}".format(workload.name, args.seed),
                       "spans": record.pop("spans")}, handle)
    else:
        record = measure.measure(
            workload, args.seed, args.seconds, args.smoke, args.out, SETUP_PROBES
        )
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    if not record["correct"]:
        failed = sorted(name for name, ok in record["checks"].items() if not ok)
        print("ledger: {} failed its correctness gate: {}".format(
            workload.name, ", ".join(failed)), file=sys.stderr)
        # No timing from a run that failed a check is ever reported.
        print(json.dumps({"correct": False, "attempted": max(1, record["attempted"]),
                          "failed": record["failed"], "metrics": {}}))
        return 1
    if args.trace:
        units = {spec.name: spec.unit for spec in PER_LAYER}
        reported = record["layers"]
    else:
        units = {spec.name: spec.unit for spec in END_TO_END}
        reported = {name: record["metrics"][name] for name in DRIVER_END_TO_END}
    print("{} seed={} iterations={} sim_digest={}".format(
        workload.name, args.seed, record["iterations"], record["sim_digest"]))
    for name, value in reported.items():
        print("  {:<40} {!r} {}".format(name, value, units[name]))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return 0


def _suite(args: argparse.Namespace) -> int:
    _require_tree()  # fail fast, before spawning anything
    import ledger

    repeats = 1 if args.smoke else args.repeats
    try:
        result, path = ledger.run_suite(
            os.path.abspath(__file__), ROOT, args.seed, repeats, args.seconds,
            args.smoke, args.out,
        )
    except RuntimeError as error:
        _fail(str(error), code=1)
    ledger.print_ledger(result)
    print("\nledger written to {}".format(path))
    if args.smoke:
        problems = ledger.validate_ledger(result, os.path.join(ROOT, "BENCHMARK.json"))
        for problem in problems:
            print("ledger: invalid: " + problem, file=sys.stderr)
        if problems:
            return 1
        print("smoke ledger is well-formed")
    return 0


def _compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    import ledger

    with open(args.old, "r", encoding="utf-8") as handle:
        old = json.load(handle)
    with open(args.new, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    return ledger.compare(old, new)


def main(argv) -> int:
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced fresh-process repeats per workload")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where ledger.json, trace_<workload>.json and scratch go")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one repeat, then validate the ledger")
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting full iterations until this much time "
                             "has been measured (always at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting the per-layer metrics")
    parser.add_argument("--record", help="also write the full run record here")
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.workload:
        return _single(args)
    return _suite(args)


# repro.net and the exec pool start processes that re-import this module.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
