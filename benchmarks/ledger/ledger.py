"""The ledger file: the suite that fills it, the fingerprint that heads
it, the validator ``--smoke`` runs on it, and ``compare``.

Needs nothing from ``repro``: the suite only spawns ``run.py
--workload ...`` once per repeat (a fresh process each, so peak RSS and
import cost are that run's own) and folds the run records they write.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from metrics import END_TO_END, PER_LAYER, EndToEnd, quantile
from workloads import WORKLOADS

__all__ = [
    "calibrate",
    "fingerprint",
    "run_suite",
    "validate_ledger",
    "compare",
    "print_ledger",
]

SCHEMA = 1
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
NOISY_CALIB_DRIFT = 0.10


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python + numpy loop: the box's speed right
    now, in the two kinds of work the workloads do."""
    import numpy

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i & 0xFF
    rng = numpy.random.default_rng(12345)
    data = rng.integers(0, 1 << 62, size=1_500_000, dtype=numpy.uint64)
    for _ in range(4):
        data = numpy.sort(data ^ (data >> numpy.uint64(7)))
    acc += int(data[0])
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: str) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "loadavg_start": list(os.getloadavg()),
        "calib_s_start": calibrate(),
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------


def _spawn_run(script: str, workload: str, seed: int, seconds: float, trace: int,
               smoke: bool, out_dir: str, record_path: str) -> Dict[str, object]:
    command = [
        sys.executable, script, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir,
        "--record", record_path,
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    if not os.path.exists(record_path):
        raise RuntimeError(
            "{} --trace {} wrote no record (exit {}):\n{}".format(
                workload, trace, done.returncode, done.stderr[-2000:]
            )
        )
    with open(record_path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    os.unlink(record_path)
    if done.returncode != 0 or not record["correct"]:
        failed = [name for name, ok in record["checks"].items() if not ok]
        raise RuntimeError(
            "{} --trace {} failed its correctness gate: {}".format(
                workload, trace, ", ".join(failed) or done.stderr[-2000:]
            )
        )
    return record


def _fold_end_to_end(repeats: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Per metric: median/min/max over the repeats' values; the round
    percentiles are taken over the rounds of all repeats pooled."""
    pooled: List[float] = []
    for record in repeats:
        pooled.extend(record["samples"]["round_ms"] or [])
    folded: Dict[str, Dict[str, object]] = {}
    for spec in END_TO_END:
        values = [record["metrics"][spec.name] for record in repeats]
        entry: Dict[str, object] = {
            "unit": spec.unit, "better": spec.better, "bound": spec.bound,
            "kind": spec.kind,
        }
        if any(value is None for value in values):
            entry.update(median=None, min=None, max=None, count=0)
        else:
            entry.update(
                median=statistics.median(values), min=min(values),
                max=max(values), count=len(values),
            )
            if spec.name in ("round_ms_p50", "round_ms_p95"):
                q = 0.50 if spec.name.endswith("p50") else 0.95
                entry["median"] = quantile(pooled, q)
                entry["count"] = len(pooled)
        folded[spec.name] = entry
    return folded


def run_suite(script: str, root: str, seed: int, repeats: int, seconds: float,
              smoke: bool, out_dir: str) -> Tuple[Dict[str, object], str]:
    """Run every workload ``repeats`` times untraced (round-robin, so a
    noisy minute does not land on one workload) and once traced; returns
    the ledger and the path it was written to."""
    os.makedirs(out_dir, exist_ok=True)
    header = fingerprint(root)
    untraced: Dict[str, List[Dict[str, object]]] = {w.name: [] for w in WORKLOADS}
    for repeat in range(repeats):
        for workload in WORKLOADS:
            path = os.path.join(out_dir, "run_{}_{}.json".format(workload.name, repeat))
            print("[ledger] {} repeat {}/{}".format(workload.name, repeat + 1, repeats),
                  file=sys.stderr)
            untraced[workload.name].append(_spawn_run(
                script, workload.name, seed, seconds, 0, smoke, out_dir, path
            ))
    traced: Dict[str, Dict[str, object]] = {}
    for workload in WORKLOADS:
        path = os.path.join(out_dir, "run_{}_traced.json".format(workload.name))
        print("[ledger] {} traced".format(workload.name), file=sys.stderr)
        traced[workload.name] = _spawn_run(
            script, workload.name, seed, 0.0, 1, smoke, out_dir, path
        )
    header["loadavg_end"] = list(os.getloadavg())
    header["calib_s_end"] = calibrate()
    drift = abs(header["calib_s_end"] - header["calib_s_start"]) / header["calib_s_start"]

    units = {spec.name: spec.unit for spec in PER_LAYER}
    workloads: Dict[str, object] = {}
    for workload in WORKLOADS:
        runs = untraced[workload.name]
        digests = {run["sim_digest"] for run in runs} | {traced[workload.name]["sim_digest"]}
        workloads[workload.name] = {
            "why": workload.why,
            "params": workload.sized(smoke),
            "sim_digest": runs[0]["sim_digest"],
            "sim_digest_stable": len(digests) == 1,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": _fold_end_to_end(runs),
            "per_layer": {
                name: {"unit": units[name], "value": value}
                for name, value in traced[workload.name]["layers"].items()
            },
            "trace_file": "trace_{}.json".format(workload.name),
        }
    ledger = {
        "schema": SCHEMA,
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "smoke": smoke,
        "fingerprint": header,
        "calib_drift": drift,
        "noisy_host": drift > NOISY_CALIB_DRIFT,
        "workloads": workloads,
    }
    path = os.path.join(out_dir, "ledger.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return ledger, path


def _fmt(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return "{:.6g}".format(value)
    return str(value)


def print_ledger(ledger: Dict[str, object]) -> None:
    """Every metric by name, with its unit."""
    header = ledger["fingerprint"]
    print("perf ledger  seed={} repeats={} smoke={}  {} x {}  python {} numpy {}  commit {}".format(
        ledger["seed"], ledger["repeats"], ledger["smoke"], header["nproc"],
        header["cpu_model"], header["python"], header["numpy"], header["git_commit"][:12],
    ))
    print("calib_s {:.4f} -> {:.4f} (drift {:.1%}) noisy_host={}".format(
        header["calib_s_start"], header["calib_s_end"], ledger["calib_drift"],
        ledger["noisy_host"],
    ))
    for name, entry in ledger["workloads"].items():
        print("\n== {}  attempted={} failed={}  sim_digest={}".format(
            name, entry["attempted"], entry["failed"], entry["sim_digest"][:16]
        ))
        for metric, row in entry["end_to_end"].items():
            print("  {:<26} {:>14} {:<8} [min {} max {} n={}] ({}, bound {:.0%})".format(
                metric, _fmt(row["median"]), row["unit"], _fmt(row["min"]),
                _fmt(row["max"]), row["count"], row["better"], row["bound"],
            ))
        for metric, row in entry["per_layer"].items():
            print("    {:<38} {:>14} {}".format(metric, _fmt(row["value"]), row["unit"]))


# ----------------------------------------------------------------------
# Validation (--smoke)
# ----------------------------------------------------------------------


def validate_ledger(ledger: Dict[str, object], benchmark_json: Optional[str] = None) -> List[str]:
    """Problems with a ledger's shape; empty means it is well-formed."""
    problems: List[str] = []
    names = [w.name for w in WORKLOADS]
    if sorted(ledger.get("workloads", {})) != sorted(names) or len(names) != 6:
        problems.append("expected the six workloads {}".format(names))
    if len(END_TO_END) > 16:
        problems.append("more than 16 end-to-end metrics")
    if len(PER_LAYER) > 128:
        problems.append("more than 128 per-layer metrics")
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit",
                "loadavg_start", "loadavg_end", "calib_s_start", "calib_s_end"):
        if key not in ledger.get("fingerprint", {}):
            problems.append("fingerprint lacks {}".format(key))
    for name, entry in ledger.get("workloads", {}).items():
        for spec in END_TO_END:
            row = entry["end_to_end"].get(spec.name)
            if row is None or not row.get("unit"):
                problems.append("{}: end-to-end {} missing or unitless".format(name, spec.name))
            elif row["median"] is None and not (
                name == "sweep_pool" and spec.name.startswith("round_ms")
            ):
                problems.append("{}: end-to-end {} is null".format(name, spec.name))
        for spec in PER_LAYER:
            row = entry["per_layer"].get(spec.name)
            if row is None or not row.get("unit") or row.get("value") is None:
                problems.append("{}: per-layer {} missing or unitless".format(name, spec.name))
        if entry["failed"] != 0:
            problems.append("{}: {} failed operations".format(name, entry["failed"]))
        if not entry["sim_digest_stable"]:
            problems.append("{}: sim_digest differs between runs".format(name))
    for spec in tuple(END_TO_END) + tuple(PER_LAYER):
        if not NAME_RE.match(spec.name):
            problems.append("bad metric name {!r}".format(spec.name))
    if benchmark_json is not None and os.path.exists(benchmark_json):
        with open(benchmark_json, "r", encoding="utf-8") as handle:
            declared = json.load(handle)
        if [w["name"] for w in declared["workloads"]] != names:
            problems.append("BENCHMARK.json workloads differ from the ledger's")
        known = {spec.name for spec in END_TO_END}
        for metric in declared["end_to_end"]:
            if metric["name"] not in known:
                problems.append("BENCHMARK.json end_to_end {} unknown".format(metric["name"]))
        if [m["name"] for m in declared["per_layer"]] != [spec.name for spec in PER_LAYER]:
            problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    return problems


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _worse_by(spec_better: str, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if old == 0:
        if new == 0:
            return 0.0
        return float("inf") if (new > 0) == (spec_better == "lower") else float("-inf")
    delta = (new - old) / abs(old)
    return delta if spec_better == "lower" else -delta


def _verdict(spec: EndToEnd, old: Dict[str, object], new: Dict[str, object],
             noisy: bool) -> str:
    worse = _worse_by(spec.better, old["median"], new["median"])
    if spec.exact:
        return "regressed" if worse > 0 else "ok"
    if noisy:
        return "unresolved"
    overlap = min(old["max"], new["max"]) - max(old["min"], new["min"])
    if old["median"] and overlap / abs(old["median"]) > spec.bound:
        return "unresolved"
    beyond_floor = abs(new["median"] - old["median"]) > spec.abs_floor
    return "regressed" if worse > spec.bound and beyond_floor else "ok"


def compare(old: Dict[str, object], new: Dict[str, object]) -> int:
    """Print the row-per-metric comparison; nonzero if anything regressed."""
    noisy = bool(old.get("noisy_host")) or bool(new.get("noisy_host"))
    if noisy:
        print("noisy_host: calibration drifted during a suite; every host-time "
              "verdict is unresolved")
    for label, ledger in (("old", old), ("new", new)):
        header = ledger["fingerprint"]
        print("{}: commit {} seed {} repeats {} {}x {} calib_s {:.4f}".format(
            label, header["git_commit"][:12], ledger["seed"], ledger["repeats"],
            header["nproc"], header["cpu_model"], header["calib_s_start"],
        ))
    regressed = 0
    for name, new_entry in new["workloads"].items():
        old_entry = old["workloads"].get(name)
        if old_entry is None:
            print("\n== {}: not in the old ledger".format(name))
            continue
        print("\n== {}".format(name))
        print("  {:<26} {:>13} {:>13} {:>9}  {:>6}  {}".format(
            "metric", "old", "new", "new/old", "bound", "verdict"))
        for spec in END_TO_END:
            old_row = old_entry["end_to_end"][spec.name]
            new_row = new_entry["end_to_end"][spec.name]
            if old_row["median"] is None or new_row["median"] is None:
                print("  {:<26} {:>13} {:>13}".format(spec.name, "null", "null"))
                continue
            verdict = _verdict(spec, old_row, new_row, noisy and spec.kind == "host")
            ratio = (
                "{:.3f}x".format(new_row["median"] / old_row["median"])
                if old_row["median"] else "-"
            )
            print("  {:<26} {:>13} {:>13} {:>9}  {:>6}  {}".format(
                spec.name, _fmt(old_row["median"]), _fmt(new_row["median"]), ratio,
                "exact" if spec.exact else "{:.0%}".format(spec.bound), verdict,
            ))
            if verdict == "regressed":
                regressed += 1
        digest_same = old_entry["sim_digest"] == new_entry["sim_digest"]
        print("  sim_digest: {}".format(
            "simulated statistics identical" if digest_same else "DIFFERENT"))
        print("  per-layer deltas (new/old, base = old):")
        for spec in PER_LAYER:
            old_value = old_entry["per_layer"].get(spec.name, {}).get("value")
            new_value = new_entry["per_layer"].get(spec.name, {}).get("value")
            if not old_value and not new_value:
                continue
            ratio = "{:.3f}x".format(new_value / old_value) if old_value and new_value is not None else "-"
            print("    {:<38} {:>13} {:>13} {:>9} {:<7} -> {}".format(
                spec.name, _fmt(old_value), _fmt(new_value), ratio, spec.unit, spec.moves))
    print("\n{} regressed row(s)".format(regressed))
    return 1 if regressed else 0
