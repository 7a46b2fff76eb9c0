"""Metric catalogue of the perf ledger: names, units, direction, bounds.

One table each for the end-to-end and the per-layer metrics; the
measurement code, ``compare``, the ``--smoke`` validator and
``BENCHMARK.json`` all read these tables, so a metric is spelled in
exactly one place.

*Simulated* quantities (messages, rounds) are what the modelled protocol
costs and repeat exactly for a fixed seed; *host* quantities (seconds,
MB) are what the simulator costs and carry the box's noise.  ``exact``
marks the simulated ones: ``compare`` demands equality there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

__all__ = [
    "EndToEnd",
    "PerLayer",
    "END_TO_END",
    "DRIVER_END_TO_END",
    "PER_LAYER",
    "LEDGER_ONLY_MIRRORS",
    "quantile",
]


def quantile(values: Sequence[float], q: float) -> float:
    """Sample quantile with linear interpolation (the rule of
    ``repro.obs.registry.Histogram``, so ledger and SLO numbers agree)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the old median the new one may be worse by
    kind: str  # "host" | "simulated"
    abs_floor: float = 0.0  # a worsening below this (in `unit`) never counts
    what: str = ""

    @property
    def exact(self) -> bool:
        return self.bound == 0.0


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "host", 0.05,
             "facade call to first on_round_begin (sweep: to first task start)"),
    EndToEnd("wall_s", "s", "lower", 0.25, "host", 0.0,
             "the whole facade call through the QoD report and summary()"),
    EndToEnd("cpu_s", "s", "lower", 0.25, "host", 0.0,
             "user+sys CPU of the process tree over the same interval"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "host", 0.0,
             "max RSS of the run's process plus its largest child"),
    EndToEnd("sim_msgs_per_s", "msgs/s", "higher", 0.25, "host", 0.0,
             "sim_total_msgs / wall_s"),
    EndToEnd("pairs_per_s", "pairs/s", "higher", 0.25, "host", 0.0,
             "delivered (rumor, destination) pairs / wall_s"),
    EndToEnd("round_ms_p50", "ms", "lower", 0.25, "host", 0.0,
             "host ms per active simulated round, median"),
    EndToEnd("round_ms_p95", "ms", "lower", 0.25, "host", 0.0,
             "host ms per active simulated round, 95th percentile"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, "simulated", 0.0,
             "failed / attempted admissible pairs (shed, missed or leaked)"),
    EndToEnd("sim_peak_msgs_per_round", "msgs", "lower", 0.0, "simulated", 0.0,
             "Theorem 11's quantity, stats.max_per_round()"),
    EndToEnd("sim_total_msgs", "msgs", "lower", 0.0, "simulated", 0.0,
             "messages the modelled protocol sent"),
    EndToEnd("sim_latency_p99_rounds", "rounds", "lower", 0.0, "simulated", 0.0,
             "injection (open: arrival) to delivery, all delivered pairs"),
    EndToEnd("fallback_rate", "ratio", "lower", 0.0, "simulated", 0.0,
             "share of served pairs that needed the direct-send fallback"),
)

# What BENCHMARK.json can carry as end-to-end: defined on all six
# workloads, never 0, steady across seeds.  The exact simulated metrics
# change with the seed (bound 0 cannot hold across seeds), the two
# ratios are 0 by design, and round_ms_* is undefined for sweep_pool, so
# the driver sees those through LEDGER_ONLY_MIRRORS instead.
DRIVER_END_TO_END: Tuple[str, ...] = (
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "sim_msgs_per_s",
    "pairs_per_s",
)

# end-to-end name -> per-layer name under which a --trace 1 run reports
# the same quantity (taken from that run's own untraced iteration).
LEDGER_ONLY_MIRRORS: Dict[str, str] = {
    "round_ms_p50": "sim.round_ms_p50",
    "round_ms_p95": "sim.round_ms_p95",
    "failed_share": "sim.failed_share",
    "sim_peak_msgs_per_round": "sim.peak_msgs_per_round",
    "sim_total_msgs": "sim.total_msgs",
    "sim_latency_p99_rounds": "sim.latency_p99_rounds",
    "fallback_rate": "sim.fallback_rate",
}


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric (and workload) it should move


_OBJECT = "steady_object, chaos_object"
_ARRAY = "steady_array, open_array"

PER_LAYER: Tuple[PerLayer, ...] = (
    # harness
    PerLayer("harness.import_s", "s", "lower", "process start-up, all workloads"),
    PerLayer("harness.build_s", "s", "lower", "setup_s"),
    PerLayer("harness.report_s", "s", "lower", "wall_s"),
    # sim
    PerLayer("sim.engine_init_s", "s", "lower", "setup_s"),
    PerLayer("sim.route_s", "s", "lower", "wall_s on steady_object"),
    PerLayer("sim.routed_msgs", "msgs", "lower", "sim_total_msgs"),
    PerLayer("sim.engine_self_s", "s", "lower", "wall_s on " + _OBJECT),
    PerLayer("sim.kernel.network_route_us", "us", "lower", "sim.route_s"),
    PerLayer("sim.kernel.message_construct_us", "us", "lower", "core.send_phase_s"),
    PerLayer("sim.kernel.engine_round_noop_us", "us", "lower", "sim.engine_self_s"),
    PerLayer("sim.round_ms_p50", "ms", "lower", "ledger round_ms_p50"),
    PerLayer("sim.round_ms_p95", "ms", "lower", "ledger round_ms_p95"),
    PerLayer("sim.failed_share", "ratio", "lower", "ledger failed_share"),
    PerLayer("sim.peak_msgs_per_round", "msgs", "lower", "ledger sim_peak_msgs_per_round"),
    PerLayer("sim.total_msgs", "msgs", "lower", "ledger sim_total_msgs"),
    PerLayer("sim.latency_p99_rounds", "rounds", "lower", "ledger sim_latency_p99_rounds"),
    PerLayer("sim.fallback_rate", "ratio", "lower", "ledger fallback_rate"),
    # core
    PerLayer("core.on_inject_s", "s", "lower", "wall_s, cpu_s on " + _OBJECT),
    PerLayer("core.send_phase_s", "s", "lower", "wall_s, round_ms_p50 on " + _OBJECT),
    PerLayer("core.receive_phase_s", "s", "lower", "wall_s, round_ms_p50 on " + _OBJECT),
    PerLayer("core.proxy_msgs", "msgs", "lower", "sim_total_msgs"),
    PerLayer("core.gd_msgs", "msgs", "lower", "sim_total_msgs"),
    PerLayer("core.direct_msgs", "msgs", "lower", "sim_total_msgs, fallback_rate"),
    PerLayer("core.direct_ack_msgs", "msgs", "lower", "sim_total_msgs on chaos_object"),
    # gossip
    PerLayer("gossip.group_msgs", "msgs", "lower", "sim_total_msgs, sim_peak_msgs_per_round"),
    PerLayer("gossip.all_msgs", "msgs", "lower", "sim_total_msgs, sim_peak_msgs_per_round"),
    PerLayer("gossip.kernel.continuous_round_us", "us", "lower", "core.send_phase_s"),
    PerLayer("gossip.kernel.epidemic_targets_us", "us", "lower", "core.send_phase_s"),
    # audit
    PerLayer("audit.confidentiality_s", "s", "lower", "wall_s, sim_msgs_per_s on steady_object"),
    PerLayer("audit.confidentiality_calls", "count", "lower", "audit.confidentiality_s"),
    PerLayer("audit.delivery_s", "s", "lower", "wall_s"),
    PerLayer("audit.failfast_s", "s", "lower", "wall_s on chaos_object, open_array"),
    PerLayer("audit.share", "ratio", "lower", "wall_s on steady_object"),
    PerLayer("audit.kernel.audit_deliver_us", "us", "lower", "audit.confidentiality_s"),
    # adversary / load
    PerLayer("adversary.round_start_s", "s", "lower", "wall_s"),
    PerLayer("adversary.mid_round_s", "s", "lower", "wall_s on chaos_object"),
    PerLayer("adversary.injections", "count", "higher", "sim_total_msgs"),
    PerLayer("adversary.crashes", "count", "lower", "failed_share on chaos_object"),
    PerLayer("load.round_start_s", "s", "lower", "wall_s on open_array"),
    PerLayer("load.offered", "count", "higher", "pairs_per_s on open_array"),
    PerLayer("load.admitted", "count", "higher", "pairs_per_s on open_array"),
    PerLayer("load.shed", "count", "lower", "failed_share on open_array"),
    PerLayer("load.queue_depth_p99", "count", "lower", "sim_latency_p99_rounds on open_array"),
    PerLayer("load.wait_p99_rounds", "rounds", "lower", "sim_latency_p99_rounds on open_array"),
    # chaos
    PerLayer("chaos.plane_s", "s", "lower", "wall_s on chaos_object"),
    PerLayer("chaos.admit_calls", "count", "lower", "chaos.plane_s"),
    PerLayer("chaos.faults", "count", "lower", "sim_total_msgs on chaos_object"),
    PerLayer("chaos.drop", "count", "lower", "chaos.faults"),
    PerLayer("chaos.delay", "count", "lower", "chaos.faults"),
    PerLayer("chaos.duplicate", "count", "lower", "chaos.faults"),
    PerLayer("chaos.late_loss", "count", "lower", "chaos.faults"),
    # fastcore
    PerLayer("fastcore.round_self_s", "s", "lower", "wall_s, sim_msgs_per_s on " + _ARRAY),
    PerLayer("fastcore.auditor_s", "s", "lower", "wall_s on open_array"),
    PerLayer("fastcore.auditor_calls", "count", "lower", "fastcore.auditor_s"),
    PerLayer("fastcore.ns_per_sim_msg", "ns/msg", "lower", "sim_msgs_per_s on " + _ARRAY),
    PerLayer("fastcore.kernel.bitset_membership_us", "us", "lower", "round_ms_p95 on steady_array"),
    PerLayer("fastcore.kernel.fragment_xor_us", "us", "lower", "wall_s on open_array"),
    PerLayer("fastcore.kernel.fanout_sampling_us", "us", "lower", "wall_s on steady_array"),
    # net
    PerLayer("net.spawn_s", "s", "lower", "setup_s on sharded_object"),
    PerLayer("net.phase.route_s", "s", "lower", "wall_s on sharded_object"),
    PerLayer("net.phase.ship_s", "s", "lower", "wall_s on sharded_object"),
    PerLayer("net.phase.barrier_s", "s", "lower", "wall_s, cpu_s on sharded_object"),
    PerLayer("net.phase.merge_s", "s", "lower", "wall_s on sharded_object"),
    PerLayer("net.phase.barrier_p99_ms", "ms", "lower", "round_ms_p95 on sharded_object"),
    PerLayer("net.cross_msgs", "msgs", "lower", "net.wire_bytes"),
    PerLayer("net.cross_fraction", "ratio", "lower", "net.wire_bytes"),
    PerLayer("net.frames", "count", "lower", "net.phase.ship_s"),
    PerLayer("net.wire_bytes", "B", "lower", "wall_s, cpu_s on sharded_object"),
    PerLayer("net.wire_bytes_per_cross_msg", "B/msg", "lower", "wall_s, cpu_s on sharded_object"),
    PerLayer("net.codec.encode_us_per_msg", "us/msg", "lower", "cpu_s on sharded_object"),
    PerLayer("net.codec.decode_us_per_msg", "us/msg", "lower", "cpu_s on sharded_object"),
    PerLayer("net.slowdown_vs_inproc", "ratio", "lower", "wall_s on sharded_object"),
    # exec
    PerLayer("exec.tasks", "count", "higher", "wall_s on sweep_pool"),
    PerLayer("exec.task_s_p50", "s", "lower", "cpu_s on sweep_pool"),
    PerLayer("exec.task_s_max", "s", "lower", "wall_s on sweep_pool"),
    PerLayer("exec.task_seconds_total", "s", "lower", "cpu_s on sweep_pool"),
    PerLayer("exec.pool_overhead_s", "s", "lower", "wall_s on sweep_pool, cpu_s unchanged"),
    PerLayer("exec.parallel_efficiency", "ratio", "higher", "wall_s on sweep_pool, cpu_s unchanged"),
    PerLayer("exec.cache_rerun_s", "s", "lower", "warm re-run of sweep_pool"),
    PerLayer("exec.cache_hits", "count", "higher", "exec.cache_rerun_s"),
    # obs
    PerLayer("obs.trace_wall_s", "s", "lower", "repro.api.trace of the steady_object spec"),
    PerLayer("obs.events", "count", "lower", "obs.trace_wall_s"),
    PerLayer("obs.overhead_ratio", "ratio", "lower", "obs.trace_wall_s / wall_s"),
    # the benchmark's own tracing
    PerLayer("trace.overhead_ratio", "ratio", "lower", "traced wall / untraced wall_s"),
    PerLayer("trace.layer_coverage", "ratio", "higher", "layer self times / round spans (1.0 = accounted)"),
)
