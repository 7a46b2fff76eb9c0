"""The traced run: per-layer numbers from spans recorded by the
benchmark's own wrappers around each layer's public entry points.

A traced run builds the engine through the same public constructors the
harness uses and wraps, from here: the node factory
(``on_inject``/``send_phase``/``receive_phase``), ``engine.network.route``,
the fault plane handed to ``Engine``, every auditor/observer hook, the
adversary's ``round_start``/``mid_round``, and ``ArrayEngine``'s
``record_delivery`` callback and ``auditor=``.  Spans inside the engines
are a later change; until then ``*.engine_self_s``/``fastcore.round_self_s``
is the round span minus everything wrapped.

The wrappers add two ``perf_counter`` reads and a stack push per call,
so a traced run is never the source of an end-to-end number; it is
checked to reproduce the untraced run's ``sim_digest`` exactly.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from repro.adversary.base import ComposedAdversary
from repro.api import RunResult, get_builder, trace as api_trace
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor
from repro.audit.failfast import FailFastMonitor
from repro.chaos.plane import ChaosFaultPlane
from repro.core.congos import build_partition_set, congos_factory
from repro.net.codec import decode_tagged_messages, encode_tagged_messages
from repro.perf.bench import run_case
from repro.perf.cases import get_case
from repro.sim.engine import Engine, SimObserver
from repro.sim.messages import ServiceTags
from repro.sim.rng import derive_rng

import measure
from metrics import LEDGER_ONLY_MIRRORS, PER_LAYER, quantile
from workloads import JOBS, Workload

__all__ = ["Tracer", "traced_run", "KERNELS"]

_OBSERVER_HOOKS = Engine._HOOKS
_PHASES = ("route", "ship", "barrier", "merge")  # the coordinator's round phases, in order

# per-layer metric name -> stable key of the repro.perf.cases microbench
KERNELS: Dict[str, str] = {
    "sim.kernel.network_route_us": "network_route",
    "sim.kernel.message_construct_us": "message_construct",
    "sim.kernel.engine_round_noop_us": "engine_round_noop",
    "gossip.kernel.continuous_round_us": "continuous_round",
    "gossip.kernel.epidemic_targets_us": "epidemic_targets",
    "audit.kernel.audit_deliver_us": "audit_deliver",
    "fastcore.kernel.bitset_membership_us": "fastcore_bitset_membership",
    "fastcore.kernel.fragment_xor_us": "fastcore_fragment_xor",
    "fastcore.kernel.fanout_sampling_us": "fastcore_fanout_sampling",
}


class Tracer:
    """In-memory span recorder: one span per layer per round.

    Calls into a layer within a round are aggregated into that round's
    span for the layer (``busy_s`` is their summed duration, ``self_s``
    the same minus nested wrapped calls, ``calls`` how many).  Every
    layer span's parent is its round's span; all spans of a run share
    ``run``.  Nothing is written until the run ends (``run.py`` dumps ``spans``).
    """

    def __init__(self, run_id: str, residual_layer: str):
        self.run_id = run_id
        self.residual_layer = residual_layer
        self.spans: List[Dict[str, object]] = []
        self.totals: Dict[str, List[float]] = {}  # layer -> [busy, self, calls]
        self.round_seconds = 0.0
        self._origin = time.perf_counter()
        self._stack: List[List[float]] = [[0.0]]  # open calls' child seconds
        self._current: Dict[str, List[float]] = {}
        self._round_start = 0.0

    def wrap(self, fn: Callable, layer: str) -> Callable:
        stack = self._stack
        now = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = now()
            out = fn(*args, **kwargs)
            t1 = now()
            stack.pop()
            busy = t1 - t0
            stack[-1][0] += busy
            slot = tracer._current.get(layer)
            if slot is None:
                tracer._current[layer] = [t0, t1, busy, busy - frame[0], 1]
            else:
                slot[1] = t1
                slot[2] += busy
                slot[3] += busy - frame[0]
                slot[4] += 1
            return out

        return traced

    def wrap_methods(self, obj: object, names, layer: str) -> object:
        """Shadow ``obj``'s bound methods with traced ones (instance
        attributes, so the object keeps its type and every other method)."""
        for name in names:
            setattr(obj, name, self.wrap(getattr(obj, name), layer))
        return obj

    def wrap_observer(self, observer: object, layer: str) -> object:
        """Trace exactly the hooks the observer's class overrides, so the
        engine's dispatch tables stay what they are untraced."""
        names = [
            hook for hook in _OBSERVER_HOOKS
            if getattr(type(observer), hook, None)
            not in (None, getattr(SimObserver, hook))
        ]
        return self.wrap_methods(observer, names, layer)

    def begin_round(self) -> None:
        self._current = {}
        self._stack[0][0] = 0.0
        self._round_start = time.perf_counter()

    def end_round(self, round_no: int) -> None:
        end = time.perf_counter()
        start = self._round_start
        residual = (end - start) - self._stack[0][0]
        layers = dict(self._current)
        layers[self.residual_layer] = [start, end, residual, residual, 1]
        self.add_round(round_no, start, end, layers)

    def add_round(self, round_no: int, start: float, end: float,
                  layers: Dict[str, List[float]]) -> None:
        """Record one round span and its layer spans; ``layers`` maps a
        layer to ``[first start, last end, busy, self, calls]`` (clock
        readings, like ``start``/``end``)."""
        self.round_seconds += end - start
        round_id = len(self.spans)
        origin = self._origin
        self.spans.append({
            "id": round_id, "name": "round", "round": round_no,
            "start": start - origin, "end": end - origin,
            "parent": None, "run": self.run_id,
        })
        for layer, (first, last, busy, own, calls) in layers.items():
            self.spans.append({
                "id": len(self.spans), "name": layer, "round": round_no,
                "start": first - origin, "end": last - origin,
                "busy_s": busy, "self_s": own, "calls": int(calls),
                "parent": round_id, "run": self.run_id,
            })
            total = self.totals.setdefault(layer, [0.0, 0.0, 0])
            total[0] += busy
            total[1] += own
            total[2] += int(calls)

    def busy(self, layer: str) -> float:
        return self.totals.get(layer, (0.0, 0.0, 0))[0]

    def calls(self, layer: str) -> int:
        return int(self.totals.get(layer, (0.0, 0.0, 0))[2])

    def coverage(self) -> float:
        """Summed layer self times over summed round spans; 1.0 means every
        second of every round is attributed to exactly one layer (a
        double-counted layer drives the residual negative and this off 1)."""
        if not self.round_seconds:
            return 0.0
        return sum(own for _busy, own, _calls in self.totals.values()) / self.round_seconds


# ----------------------------------------------------------------------
# Traced engines
# ----------------------------------------------------------------------


def _adversary_layer(workload: Workload) -> str:
    return "load" if workload.kind == "open" else "adversary"


def _build(workload: Workload, seed: int, smoke: bool):
    """``(scenario, partition set, seconds it took)`` — harness.build_s."""
    t0 = time.perf_counter()
    scenario = get_builder(workload.builder)(seed=seed, **workload.builder_kwargs(smoke))
    partitions = build_partition_set(scenario.n, scenario.params, scenario.seed)
    return scenario, partitions, time.perf_counter() - t0


def _audit_observers(tracer: Tracer, scenario, delivery, confidentiality) -> List[object]:
    """The delivery auditor and, as the runners do, the fail-fast monitor
    the scenario asks for — each with its hooks traced."""
    observers = [tracer.wrap_observer(delivery, "audit.delivery")]
    if scenario.failfast is not None:
        monitor = FailFastMonitor(
            confidentiality,
            delivery=delivery if scenario.failfast == "qod" else None,
        )
        observers.append(tracer.wrap_observer(monitor, "audit.failfast"))
    return observers


def _drive(tracer: Tracer, engine, build_s: float, init_s: float, **result_fields):
    """Run the rounds under the tracer, then report as the runners do."""
    t0 = time.perf_counter()
    scenario = result_fields["scenario"]
    for round_no in range(scenario.rounds):
        tracer.begin_round()
        engine.run_round()
        tracer.end_round(round_no)
    finalize = getattr(engine, "finalize", None)  # ArrayEngine retires live rumors
    if finalize is not None:
        finalize()
    t_rounds = time.perf_counter()
    delivery = result_fields["delivery"]
    result = RunResult(
        engine=engine, stats=engine.stats, qod=delivery.report(engine), **result_fields
    )
    summary = result.summary()
    t_end = time.perf_counter()
    return result, summary, {
        "harness.build_s": build_s,
        "sim.engine_init_s": init_s,
        "harness.report_s": t_end - t_rounds,
        "wall_s": build_s + init_s + (t_end - t0),
    }


def _traced_object(workload: Workload, seed: int, smoke: bool, tracer: Tracer):
    """``harness.runner.run_with_factory``'s wiring, with every layer
    boundary wrapped."""
    scenario, partitions, build_s = _build(workload, seed, smoke)
    t_built = time.perf_counter()
    delivery = DeliveryAuditor()
    confidentiality = ConfidentialityAuditor(
        num_partitions=partitions.count, num_groups=partitions.num_groups
    )
    factory = congos_factory(
        scenario.n,
        params=scenario.params,
        seed=scenario.seed,
        deliver_callback=tracer.wrap(delivery.record_delivery, "audit.delivery"),
        partition_set=partitions,
    )

    def traced_factory(pid: int):
        node = factory(pid)
        tracer.wrap_methods(node, ["on_inject"], "core.on_inject")
        tracer.wrap_methods(node, ["send_phase"], "core.send_phase")
        tracer.wrap_methods(node, ["receive_phase"], "core.receive_phase")
        return node

    parts = []
    workload_adversary = None
    if scenario.workload_factory is not None:
        workload_adversary = scenario.workload_factory(
            derive_rng(scenario.seed, "workload", scenario.name)
        )
        parts.append(workload_adversary)
    if scenario.fault_factory is not None:
        parts.append(scenario.fault_factory(
            derive_rng(scenario.seed, "faults", scenario.name), partitions, scenario.n
        ))
    adversary = ComposedAdversary(parts)
    layer = _adversary_layer(workload)
    tracer.wrap_methods(adversary, ["round_start"], layer + ".round_start")
    tracer.wrap_methods(adversary, ["mid_round"], layer + ".mid_round")

    fault_plane = None
    spec = scenario.fault_spec()
    if spec is not None:
        fault_plane = ChaosFaultPlane(
            scenario.seed, spec, scenario.n, message_keyed=scenario.chaos_keyed
        )
        tracer.wrap_methods(fault_plane, ["admit"], "chaos.admit")
        tracer.wrap_methods(
            fault_plane, ["begin_round", "release", "shuffle_inboxes"], "chaos.plane"
        )

    observers = _audit_observers(tracer, scenario, delivery, confidentiality)
    observers.insert(1, tracer.wrap_observer(confidentiality, "audit.confidentiality"))
    engine = Engine(
        n=scenario.n,
        node_factory=traced_factory,
        adversary=adversary,
        observers=observers,
        seed=scenario.seed,
        fault_plane=fault_plane,
    )
    tracer.wrap_methods(engine.network, ["route"], "sim.route")
    return _drive(
        tracer, engine, build_s, time.perf_counter() - t_built,
        scenario=scenario, confidentiality=confidentiality, delivery=delivery,
        workload=workload_adversary, partition_set=partitions, fault_plane=fault_plane,
    )


def _traced_array(workload: Workload, seed: int, smoke: bool, tracer: Tracer):
    """``fastcore.runner.run_array_scenario``'s wiring, wrapped."""
    from repro.fastcore.engine import ArrayEngine, FastConfidentialityAuditor

    scenario, partitions, build_s = _build(workload, seed, smoke)
    t_built = time.perf_counter()
    delivery = DeliveryAuditor()
    confidentiality = FastConfidentialityAuditor(
        num_partitions=partitions.count, num_groups=partitions.num_groups
    )
    tracer.wrap_methods(
        confidentiality,
        ["on_rumor", "record_plaintext", "add_border", "retire_rumor"],
        "fastcore.auditor",
    )
    adversary = scenario.workload_factory(
        derive_rng(scenario.seed, "workload", scenario.name)
    )
    tracer.wrap_methods(
        adversary, ["round_start"], _adversary_layer(workload) + ".round_start"
    )
    engine = ArrayEngine(
        n=scenario.n,
        params=scenario.params,
        partition_set=partitions,
        seed=scenario.seed,
        adversary=adversary,
        record_delivery=tracer.wrap(delivery.record_delivery, "audit.delivery"),
        auditor=confidentiality,
        observers=_audit_observers(tracer, scenario, delivery, confidentiality),
    )
    return _drive(
        tracer, engine, build_s, time.perf_counter() - t_built,
        scenario=scenario, confidentiality=confidentiality, delivery=delivery,
        workload=adversary, partition_set=partitions, fault_plane=None,
    )


class _DeliverCapture:
    """Keeps the delivered messages of the busiest round seen, for the
    codec microbench (real traffic, not synthetic messages)."""

    def __init__(self) -> None:
        self.best: List[object] = []
        self._round: List[object] = []

    def on_deliver(self, round_no: int, message: object) -> None:
        self._round.append(message)

    def on_round_end(self, round_no: int, engine: object) -> None:
        if len(self._round) > len(self.best):
            self.best = self._round
        self._round = []


def _codec_us_per_msg(messages: List[object], repeats: int = 5) -> Dict[str, float]:
    entries = [((index,), message) for index, message in enumerate(messages)]
    encode = decode = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        blob = encode_tagged_messages(entries)
        t1 = time.perf_counter()
        decode_tagged_messages(blob)
        t2 = time.perf_counter()
        encode = min(encode, t1 - t0)
        decode = min(decode, t2 - t1)
    count = max(1, len(entries))
    return {
        "net.codec.encode_us_per_msg": encode * 1e6 / count,
        "net.codec.decode_us_per_msg": decode * 1e6 / count,
    }


def _traced_sharded(workload: Workload, seed: int, smoke: bool, tracer: Tracer):
    """The protocol runs in worker processes the benchmark cannot wrap, so
    the layers are the coordinator's own public phase spans; the round
    spans come from the clock and must add up to them."""
    _scenario, _partitions, build_s = _build(workload, seed, smoke)

    clock = measure.RoundClock()
    capture = _DeliverCapture()
    t0 = time.perf_counter()
    result = workload.run(seed, observers=[clock, capture], smoke=smoke)
    summary = result.summary()
    t_end = time.perf_counter()

    engine = result.engine
    phases = engine.phase_summary()
    samples = {
        phase: list(engine.metrics.histogram("net.round.phase_seconds", phase=phase).samples)
        for phase in _PHASES
    }
    for round_no, begin in enumerate(clock.begins):
        layers = {}
        cursor = begin
        for phase in _PHASES:
            duration = samples[phase][round_no]
            layers["net.phase." + phase] = [cursor, cursor + duration, duration, duration, 1]
            cursor += duration
        tracer.add_round(round_no, begin, clock.ends[round_no], layers)

    reference = measure.inproc_digest(workload, seed, smoke)
    pairs = engine.worker_pair_summary()
    net = engine.net_summary()
    wire_bytes = sum(pair["bytes"] for pair in pairs.values())
    cross = int(net["cross_messages"])
    layer = {
        "harness.build_s": build_s,
        "harness.report_s": t_end - clock.ends[-1],
        "wall_s": t_end - t0,
        "net.spawn_s": max(0.0, (clock.begins[0] - t0) - reference["setup_s"]),
        "net.phase.barrier_p99_ms": float(phases["barrier"]["p99"]) * 1e3,
        "net.cross_msgs": cross,
        "net.cross_fraction": float(net["cross_fraction"]),
        "net.frames": sum(pair["frames"] for pair in pairs.values()),
        "net.wire_bytes": wire_bytes,
        "net.wire_bytes_per_cross_msg": wire_bytes / cross if cross else 0.0,
        "net.slowdown_vs_inproc": (t_end - t0) / reference["wall_s"],
    }
    for phase in _PHASES:
        layer["net.phase.{}_s".format(phase)] = float(phases[phase]["total"])
    layer.update(_codec_us_per_msg(capture.best))
    checks = {"sharded_digest_equals_inproc":
              measure.summary_digest(summary) == reference["digest"]}
    return result, summary, layer, checks


# ----------------------------------------------------------------------
# One traced run, all per-layer metrics
# ----------------------------------------------------------------------


def _service_counts(values: Dict[str, float], by_service: Dict[str, int]) -> None:
    values["core.proxy_msgs"] = by_service.get(ServiceTags.PROXY, 0)
    values["core.gd_msgs"] = by_service.get(ServiceTags.GROUP_DISTRIBUTION, 0)
    values["core.direct_msgs"] = by_service.get(ServiceTags.CONFIDENTIAL, 0)
    values["core.direct_ack_msgs"] = by_service.get(ServiceTags.DIRECT_ACK, 0)
    values["gossip.group_msgs"] = by_service.get(ServiceTags.GROUP_GOSSIP, 0)
    values["gossip.all_msgs"] = by_service.get(ServiceTags.ALL_GOSSIP, 0)


def _engine_layer_values(workload: Workload, tracer: Tracer, result) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name in (
        "sim.route", "core.on_inject", "core.send_phase", "core.receive_phase",
        "audit.confidentiality", "audit.delivery", "audit.failfast",
        "adversary.round_start", "adversary.mid_round", "load.round_start",
        "fastcore.auditor",
    ):
        values[name + "_s"] = tracer.busy(name)
    values["sim.engine_self_s"] = tracer.busy("sim.engine_self")
    values["fastcore.round_self_s"] = tracer.busy("fastcore.round_self")
    values["audit.confidentiality_calls"] = tracer.calls("audit.confidentiality")
    values["fastcore.auditor_calls"] = tracer.calls("fastcore.auditor")
    values["chaos.plane_s"] = tracer.busy("chaos.admit") + tracer.busy("chaos.plane")
    values["chaos.admit_calls"] = tracer.calls("chaos.admit")
    audit_s = (
        tracer.busy("audit.confidentiality") + tracer.busy("audit.delivery")
        + tracer.busy("audit.failfast") + tracer.busy("fastcore.auditor")
    )
    values["audit.share"] = audit_s / tracer.round_seconds if tracer.round_seconds else 0.0
    total = result.stats.total
    if workload.engine == "array":
        values["fastcore.ns_per_sim_msg"] = (
            tracer.busy("fastcore.round_self") * 1e9 / total if total else 0.0
        )
    else:
        values["sim.routed_msgs"] = total
    events = result.engine.event_log.summary()
    values["adversary.injections"] = events["injections"]
    values["adversary.crashes"] = events["crashes"]
    faults = result.chaos_summary() or {}
    values["chaos.faults"] = sum(faults.values())
    for kind in ("drop", "delay", "duplicate", "late_loss"):
        values["chaos." + kind] = faults.get(kind, 0)
    if workload.kind == "open":
        load = result.workload.load_summary()
        values["load.offered"] = load["offered"]
        values["load.admitted"] = load["admitted"]
        values["load.shed"] = load["shed_total"]
        values["load.queue_depth_p99"] = load["queue_depth"]["p99"] or 0
        values["load.wait_p99_rounds"] = load["wait_rounds"]["p99"] or 0
    return values


def _exec_values(sample: measure.Sample, jobs: int) -> Dict[str, float]:
    walls = list(sample.extra["task_walls"])
    total = sum(walls)
    return {
        "exec.tasks": len(walls),
        "exec.task_s_p50": quantile(walls, 0.5),
        "exec.task_s_max": max(walls),
        "exec.task_seconds_total": total,
        "exec.pool_overhead_s": sample.wall_s - total / jobs,
        "exec.parallel_efficiency": total / (jobs * sample.wall_s),
        "exec.cache_rerun_s": float(sample.extra["cache_rerun_s"]),
        "exec.cache_hits": int(sample.extra["cache_hits"]),
    }


def _kernel_values() -> Dict[str, float]:
    return {
        metric: run_case(get_case(key), repeats=5, warmup=1).best_per_op * 1e6
        for metric, key in KERNELS.items()
    }


def _obs_values(workload: Workload, seed: int, smoke: bool, untraced_wall: float) -> Dict[str, float]:
    """One ``repro.api.trace`` run (telemetry + RumorTimeline on) of this
    workload's spec, against its untraced wall time."""
    t0 = time.perf_counter()
    _result, timeline = api_trace(workload.builder, seed=seed, **workload.builder_kwargs(smoke))
    wall = time.perf_counter() - t0
    return {
        "obs.trace_wall_s": wall,
        "obs.events": timeline.events_seen,
        "obs.overhead_ratio": wall / untraced_wall,
    }


def traced_run(workload: Workload, seed: int, smoke: bool, scratch: str,
               import_s: float) -> Dict[str, object]:
    """The untraced reference iteration, then the traced run, then the
    microkernels; returns the run record with every per-layer metric."""
    reference = measure.measure(workload, seed, 0.0, smoke, scratch, probes=1)
    record: Dict[str, object] = dict(reference)
    record["layers"] = None
    record["spans"] = []
    if not reference["correct"]:
        return record
    untraced = reference["metrics"]

    residual = "fastcore.round_self" if workload.engine == "array" else "sim.engine_self"
    tracer = Tracer("{}/seed{}".format(workload.name, seed), residual)
    values: Dict[str, float] = {spec.name: 0.0 for spec in PER_LAYER}
    checks: Dict[str, bool] = {}

    if workload.kind == "sweep":
        sample = measure.measure_iteration(workload, seed, smoke, scratch)
        checks.update(sample.checks)
        traced_wall, traced_digest = sample.wall_s, sample.digest
        values.update(_exec_values(sample, JOBS))
        values["trace.layer_coverage"] = 1.0  # no round spans to account for
        by_service = dict(sample.extra["by_service"])
    else:
        if workload.backend == "sharded":
            result, summary, layer, extra = _traced_sharded(workload, seed, smoke, tracer)
            checks.update(extra)
        elif workload.engine == "array":
            result, summary, layer = _traced_array(workload, seed, smoke, tracer)
            values.update(_engine_layer_values(workload, tracer, result))
        else:
            result, summary, layer = _traced_object(workload, seed, smoke, tracer)
            values.update(_engine_layer_values(workload, tracer, result))
        traced_wall = layer.pop("wall_s")
        values.update(layer)
        traced_digest = measure.summary_digest(summary)
        values["trace.layer_coverage"] = tracer.coverage()
        checks["layers_account_for_rounds"] = abs(1.0 - tracer.coverage()) <= 0.05
        by_service = dict(result.stats.by_service())
    _service_counts(values, by_service)
    checks["traced_digest_equals_untraced"] = traced_digest == reference["sim_digest"]

    values["harness.import_s"] = import_s
    values["trace.overhead_ratio"] = traced_wall / untraced["wall_s"]
    for e2e_name, layer_name in LEDGER_ONLY_MIRRORS.items():
        values[layer_name] = untraced[e2e_name] or 0.0
    values.update(_kernel_values())
    if workload.name == "steady_object":
        values.update(_obs_values(workload, seed, smoke, untraced["wall_s"]))

    record["checks"] = {**reference["checks"], **checks}
    record["correct"] = all(record["checks"].values())
    record["spans"] = tracer.spans
    if record["correct"]:
        record["layers"] = values
    return record
