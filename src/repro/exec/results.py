"""Slim, picklable run metrics.

A :class:`~repro.harness.runner.RunResult` drags the whole engine,
auditors and partition set along — exactly what a worker process must
*not* ship back to the parent.  :class:`RunRecord` is the flat extract
the sweeps and benches actually aggregate: message counts, the QoD
verdict with its latencies and delivery paths, and the confidentiality
verdict.  It round-trips through plain JSON so the on-disk result cache
can store it verbatim.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.exec.tasks import canonical_json

__all__ = ["RunRecord"]

# Dict-valued fields: copied on load, defaulting to empty so records
# cached before a field existed still load.
_DICT_FIELDS = (
    "by_service", "paths", "violations", "faults", "targeted", "load", "net",
)
# Left out of the dict form while empty: payloads (and golden digests) of
# runs without a targeted plane / an open workload / shard workers predate
# the sections.
_ABSENT_WHEN_EMPTY = ("targeted", "load", "net")


@dataclass(frozen=True)
class RunRecord:
    """Everything a sweep aggregates about one run, and nothing more."""

    scenario: str
    n: int
    rounds: int
    seed: int
    # message complexity
    peak: int
    total: int
    total_size: int
    mean_per_round: float
    filtered: int
    by_service: Dict[str, int] = field(default_factory=dict)
    # quality of delivery
    qod_satisfied: bool = True
    pairs: int = 0
    admissible_pairs: int = 0
    missed: int = 0
    paths: Dict[str, int] = field(default_factory=dict)
    latencies: Tuple[int, ...] = ()
    # confidentiality
    clean: bool = True
    violations: Dict[str, int] = field(default_factory=dict)
    border_messages: int = 0
    # chaos fault plane (empty for reliable-network runs); faults_by_stage
    # splits the same counts by pipeline stage (proxy/gd/gossip/direct)
    faults: Dict[str, int] = field(default_factory=dict)
    faults_by_stage: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # targeted adversary summary (empty unless a TargetedFaultPlane ran):
    # policy, budget ledger, tracked rids, and the tracked rumors' own
    # admissible/missed pair counts pulled from the QoD outcomes
    targeted: Dict[str, object] = field(default_factory=dict)
    # open-workload SLO summary (empty unless the run's workload was an
    # OpenWorkload): offered/admitted/shed accounting, delivery and
    # arrival-to-delivery latency quantiles, fallback rate, shed-leak
    # verdict (see repro.load.slo.slo_summary)
    load: Dict[str, object] = field(default_factory=dict)
    # sharded-backend accounting (empty unless shard workers ran it):
    # local/cross message split, group locality, per-worker-pair frame and
    # byte counts, per-round coordinator phase latencies.  It describes how
    # the run was executed, not what it simulated, so without_profile()
    # drops it with the other profiling fields.
    net: Dict[str, object] = field(default_factory=dict)
    # bookkeeping
    rumors_injected: int = 0
    spec_key: Optional[str] = None
    # exec-pool profiling (set by execute_spec / run_specs, not by the
    # simulation — nondeterministic, so comparisons that assert bit
    # identity must go through without_profile())
    wall_time: float = 0.0
    worker_pid: Optional[int] = None
    cache_hit: bool = False

    @classmethod
    def from_result(cls, result, spec_key: Optional[str] = None) -> "RunRecord":
        """Extract the record from a :class:`RunResult` (inside the worker)."""
        stats = result.stats
        qod = result.qod
        confidentiality = result.confidentiality
        targeted: Dict[str, object] = {}
        summarize = getattr(result.fault_plane, "targeted_summary", None)
        if summarize is not None:
            targeted = summarize()
            tracked = set(targeted.get("tracked", ()))
            outcomes = [o for o in qod.outcomes if str(o.rid) in tracked]
            targeted["tracked_pairs"] = len(outcomes)
            targeted["tracked_admissible"] = sum(
                1 for o in outcomes if o.admissible
            )
            targeted["tracked_missed"] = sum(
                1
                for o in outcomes
                if o.admissible
                and not (o.delivered and o.on_time and o.correct_data)
            )
        load: Dict[str, object] = {}
        if getattr(result.workload, "load_summary", None) is not None:
            # Imported lazily: closed-workload workers never touch
            # repro.load.
            from repro.load.slo import slo_summary

            load = slo_summary(result) or {}
        net: Dict[str, object] = {}
        engine = result.engine
        if getattr(engine, "net_summary", None) is not None:
            net = dict(
                engine.net_summary(),
                group_locality=round(
                    engine.plan.locality(result.partition_set), 4
                ),
                worker_pairs=engine.worker_pair_summary(),
                phase_latency_s=engine.phase_summary(),
            )
        return cls(
            scenario=result.scenario.name,
            n=result.scenario.n,
            rounds=result.scenario.rounds,
            seed=result.scenario.seed,
            peak=stats.max_per_round(),
            total=stats.total,
            total_size=stats.total_size,
            mean_per_round=stats.mean_per_round(),
            filtered=stats.filtered,
            by_service=dict(stats.by_service()),
            qod_satisfied=qod.satisfied,
            pairs=len(qod.outcomes),
            admissible_pairs=qod.admissible_pairs,
            missed=len(qod.missed),
            paths=dict(qod.path_counts(admissible_only=True)),
            latencies=tuple(qod.latencies()),
            clean=confidentiality.is_clean(),
            violations=dict(confidentiality.violation_counts()),
            border_messages=confidentiality.total_border_messages,
            faults=dict(result.chaos_summary() or {}),
            faults_by_stage={
                stage: dict(kinds)
                for stage, kinds in (result.chaos_stage_summary() or {}).items()
            },
            targeted=targeted,
            load=load,
            net=net,
            rumors_injected=result.rumors_injected,
            spec_key=spec_key,
        )

    # -- fallback accounting (Lemma 4's shoot path) ----------------------

    def fallback_shots(self) -> int:
        return self.paths.get("shoot", 0)

    def served_pairs(self) -> int:
        return sum(self.paths.values())

    # -- profiling -------------------------------------------------------

    def with_profile(
        self,
        wall_time: Optional[float] = None,
        worker_pid: Optional[int] = None,
        cache_hit: Optional[bool] = None,
    ) -> "RunRecord":
        """Copy with profiling fields updated (record is frozen)."""
        updates: Dict[str, object] = {}
        if wall_time is not None:
            updates["wall_time"] = wall_time
        if worker_pid is not None:
            updates["worker_pid"] = worker_pid
        if cache_hit is not None:
            updates["cache_hit"] = cache_hit
        return replace(self, **updates) if updates else self

    def without_profile(self) -> "RunRecord":
        """Copy with profiling fields zeroed — the deterministic payload.

        Parity tests (serial vs pooled, fresh vs cached, inproc vs
        sharded) compare these: wall-clock, worker pids and the sharded
        backend's wire accounting legitimately differ between runs.
        """
        return replace(
            self, wall_time=0.0, worker_pid=None, cache_hit=False, net={}
        )

    def digest(self) -> str:
        """sha256 of the simulation payload alone.

        Profile-free and without the spec key: two execution paths that
        promise bit identity (inproc and sharded) have different spec keys
        and must still collide here.
        """
        payload = replace(self.without_profile(), spec_key=None).to_dict()
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    # -- JSON round-trip -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["latencies"] = list(self.latencies)
        for name in _ABSENT_WHEN_EMPTY:
            if not data[name]:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        payload = dict(data)
        payload["latencies"] = tuple(payload.get("latencies", ()))
        for name in _DICT_FIELDS:
            payload[name] = dict(payload.get(name, {}))
        payload["faults_by_stage"] = {
            stage: dict(kinds)
            for stage, kinds in dict(payload.get("faults_by_stage", {})).items()
        }
        return cls(**payload)
