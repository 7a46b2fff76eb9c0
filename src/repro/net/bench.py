"""E18 sharded-scaling bench: the in-process engine vs ``repro.net``.

E18 answers two questions about the sharded backend:

* **Is it correct at scale?**  Every cell runs the canonical steady/lean
  cell (the E17 spec) on both backends and records the payload digest of
  each ``RunRecord.without_profile()``; ``digest_match`` asserts they are
  bit-identical, and ``clean`` asserts the ConfidentialityAuditor — fed
  the reassembled cross-shard delivered stream — saw zero violations.
* **What does the wire cost?**  Wall-clock for both backends, the
  local/cross message split from :meth:`ShardEngine.net_summary`, the
  shard plan's group locality, per-worker-pair cross-batch frame/byte
  counts (deterministic, in ``runs``), and per-round coordinator phase
  latencies — route/ship/barrier/merge p50/p99/p999 — in ``timing``.  On a single-core box the lockstep
  sharded run is strictly *slower* than in-process (every message pays
  codec + transport overhead and workers time-share one CPU); the
  artifact reports that slowdown honestly rather than a fabricated
  speedup — the bench measures the price of the process boundary, which
  is what multi-core placement would have to amortize.

Artifact: ``BENCH_e18_sharded_scaling.json`` (written by the ``net
bench`` CLI command).
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import CongosParams
from repro.exec.progress import Progress
from repro.exec.results import RunRecord
from repro.exec.tasks import RunSpec, canonical_json
from repro.harness.runner import run_congos_scenario

__all__ = [
    "E18_BENCH_NAME",
    "sharded_spec",
    "run_sharded_scaling",
    "sharded_scaling_payload",
]

E18_BENCH_NAME = "e18_sharded_scaling"

DEFAULT_NS: Tuple[int, ...] = (64, 256)


def sharded_spec(
    n: int,
    rounds: int = 40,
    deadline: int = 64,
    workers: int = 2,
) -> RunSpec:
    """The E17 steady/lean cell, retargeted at the sharded backend."""
    return RunSpec.make(
        "steady",
        seed=0,
        n=n,
        rounds=rounds,
        deadline=deadline,
        rate=1,
        period=4,
        params=CongosParams.lean(),
        backend="sharded",
        net={"workers": workers},
    )


def _payload_digest(result) -> str:
    # No spec_key on purpose: the two backends have different spec keys
    # (backend/net enter the content hash when non-default), and the
    # digest must compare the *simulation payload* alone.
    clean = RunRecord.from_result(result).without_profile().to_dict()
    return hashlib.sha256(canonical_json(clean).encode("utf-8")).hexdigest()


def _timed_run(spec: RunSpec):
    started = time.perf_counter()
    result = run_congos_scenario(spec.to_scenario())
    return result, round(time.perf_counter() - started, 3)


def run_sharded_scaling(
    ns: Sequence[int] = DEFAULT_NS,
    rounds: int = 40,
    deadline: int = 64,
    workers: int = 2,
    progress: Optional[Progress] = None,
) -> List[Dict[str, object]]:
    """Run each ``n`` on both backends; one comparison row per ``n``."""
    rows: List[Dict[str, object]] = []
    for n in ns:
        inproc_spec = RunSpec.make(
            "steady",
            seed=0,
            n=n,
            rounds=rounds,
            deadline=deadline,
            rate=1,
            period=4,
            params=CongosParams.lean(),
        )
        shard_spec = sharded_spec(
            n, rounds=rounds, deadline=deadline, workers=workers
        )
        inproc, inproc_wall = _timed_run(inproc_spec)
        sharded, sharded_wall = _timed_run(shard_spec)
        net = sharded.engine.net_summary()
        total = inproc.stats.total
        # Deterministic: batch contents come from the deterministic
        # codec, so frame/byte counts repeat run to run (unlike the
        # wall-clock phase percentiles, which stay in ``timing``).
        worker_pairs = sharded.engine.worker_pair_summary()
        phase_latency = {
            phase: {
                key: summary[key]
                for key in ("count", "mean", "p50", "p99", "p999", "max")
            }
            for phase, summary in sorted(
                sharded.engine.phase_summary().items()
            )
        }
        rows.append(
            {
                "n": n,
                "rounds": rounds,
                "deadline": deadline,
                "workers": workers,
                "transport": "tcp",
                "spec_key": inproc_spec.key,
                "sharded_spec_key": shard_spec.key,
                "digest": _payload_digest(inproc),
                "sharded_digest": _payload_digest(sharded),
                "digest_match": _payload_digest(inproc)
                == _payload_digest(sharded),
                "total": total,
                "rumors": sharded.rumors_injected,
                "qod_satisfied": sharded.qod.satisfied,
                "clean": sharded.confidentiality.is_clean(),
                "local_messages": net["local_messages"],
                "cross_messages": net["cross_messages"],
                "cross_fraction": net["cross_fraction"],
                "group_locality": round(
                    sharded.engine.plan.locality(sharded.partition_set), 4
                ),
                "worker_pairs": worker_pairs,
                "phase_latency_s": phase_latency,
                "wall_inproc_s": inproc_wall,
                "wall_sharded_s": sharded_wall,
                "slowdown": (
                    round(sharded_wall / inproc_wall, 2)
                    if inproc_wall
                    else None
                ),
                "msgs_per_s_sharded": (
                    round(total / sharded_wall) if sharded_wall else None
                ),
            }
        )
        if progress is not None:
            progress.task_done(wall_time=inproc_wall + sharded_wall)
    return rows


def sharded_scaling_payload(
    rows: Iterable[Mapping[str, object]],
) -> Dict[str, object]:
    """The E18 artifact body (deterministic ``runs`` / wall-clock
    ``timing`` split, as in the other BENCH artifacts)."""
    rows = list(rows)
    runs = [
        {
            key: row[key]
            for key in (
                "n",
                "rounds",
                "deadline",
                "workers",
                "transport",
                "spec_key",
                "sharded_spec_key",
                "digest",
                "sharded_digest",
                "digest_match",
                "total",
                "rumors",
                "qod_satisfied",
                "clean",
                "local_messages",
                "cross_messages",
                "cross_fraction",
                "group_locality",
                "worker_pairs",
            )
        }
        for row in rows
    ]
    timing = [
        {
            "n": row["n"],
            "wall_inproc_s": row["wall_inproc_s"],
            "wall_sharded_s": row["wall_sharded_s"],
            "slowdown": row["slowdown"],
            "msgs_per_s_sharded": row["msgs_per_s_sharded"],
            "phase_latency_s": row["phase_latency_s"],
        }
        for row in rows
    ]
    return {
        "scenario": "steady",
        "sync": "lockstep",
        "runs": runs,
        "timing": timing,
        "all_digests_match": all(row["digest_match"] for row in rows),
        "all_clean": all(row["clean"] for row in rows),
        "note": (
            "single-host measurement: workers time-share the CPU, so "
            "slowdown is the per-message codec+transport cost of the "
            "process boundary, not a parallel speedup"
        ),
    }
