"""Machine-readable bench artifacts: ``BENCH_<name>.json``.

Every bench historically emitted only an ASCII table; downstream tooling
(perf trajectories, regression dashboards) needs numbers it can parse.
This module writes one timestamped JSON document per bench next to the
``.txt`` table, with a uniform envelope::

    {
      "name": "...",          # bench name
      "created": "...",       # ISO-8601 UTC timestamp
      "schema": 1,
      ...payload...           # grid/cells, metrics, timing, table
    }
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

__all__ = [
    "artifact_path",
    "grid_payload",
    "profile_payload",
    "sweep_payload",
    "write_bench_json",
]

SCHEMA_VERSION = 1


def artifact_path(name: str, results_dir: str) -> str:
    return os.path.join(results_dir, "BENCH_{}.json".format(name))


def write_bench_json(
    name: str,
    payload: Dict[str, object],
    results_dir: str,
    created: Optional[str] = None,
) -> str:
    """Write the artifact atomically; returns its path.

    ``created`` overrides the timestamp (tests pin it for determinism).
    """
    os.makedirs(results_dir, exist_ok=True)
    document: Dict[str, object] = {
        "name": name,
        "created": created
        if created is not None
        else datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "schema": SCHEMA_VERSION,
    }
    for key, value in payload.items():
        if key not in document:
            document[key] = value
    path = artifact_path(name, results_dir)
    rendered = json.dumps(document, sort_keys=True, indent=1, default=str)
    fd, tmp_path = tempfile.mkstemp(dir=results_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return path


def grid_payload(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> List[Dict[str, object]]:
    """Zip table headers and rows into a list of JSON row objects."""
    out: List[Dict[str, object]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                "row width {} != header width {}".format(len(row), len(headers))
            )
        out.append({str(h): v for h, v in zip(headers, row)})
    return out


def profile_payload(records: Sequence[object]) -> Dict[str, object]:
    """Aggregate exec-pool profiling from a batch of ``RunRecord``s.

    Cache hits are excluded from the timing summary — their ``wall_time``
    is the *original* run's, not this batch's.
    """
    records = list(records)
    fresh = [r for r in records if not getattr(r, "cache_hit", False)]
    times = [
        r.wall_time for r in fresh if getattr(r, "wall_time", 0.0) > 0.0
    ]
    pids = sorted(
        {
            r.worker_pid
            for r in fresh
            if getattr(r, "worker_pid", None) is not None
        }
    )
    return {
        "tasks": len(records),
        "executed": len(fresh),
        "cache_hits": len(records) - len(fresh),
        "task_seconds_total": round(sum(times), 6),
        "task_seconds_max": round(max(times), 6) if times else 0.0,
        "task_seconds_mean": (
            round(sum(times) / len(times), 6) if times else 0.0
        ),
        "workers": len(pids),
        "worker_pids": pids,
    }


def sweep_payload(sweep) -> Dict[str, object]:
    """Serialize a :class:`~repro.analysis.sweeps.SweepResult`.

    ``fallback_rate`` is the cell's unrounded rate, as this artifact has
    always carried it (the soaks round theirs to six places).
    """
    return {
        "cells": [
            dict(
                cell.verdict(
                    "cell", "seeds", "peak", "total", "latency",
                    "qod_satisfied", "clean",
                ),
                fallback_rate=cell.fallback_rate(),
            )
            for cell in sweep.cells
        ],
        **sweep.verdict("all_satisfied", "all_clean"),
    }
