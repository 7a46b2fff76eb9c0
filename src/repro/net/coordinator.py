"""The shard coordinator: the sharded backend of ``run_congos_scenario``.

:func:`run_sharded_scenario` runs an assembled scenario's pids across
worker *processes* connected by a real transport.  Every piece of global
logic — the adversary, the event log, message statistics, both auditors,
observer dispatch — stays in the coordinator, and the order it runs in
is not restated here: :class:`ShardEngine` is a subclass of the round
skeleton (:class:`~repro.sim.engine.RoundEngine`) and supplies only what
a crash, a restart and an injection add to the round frame, and the
round body (ship frames, relay cross batches, merge the delivered
streams).  The result is bit-identical to the in-process backend (same
``RunRecord.without_profile()``), chaos runs included: every fault fate
is a pure function of the message's own coordinates, so no shard layout
can change it.

Round barrier
    Lockstep, the only sync policy implemented: every worker finishes
    its send phase before any cross batch is forwarded, and every worker
    finishes delivery before the next round starts.  The barrier lives
    in two frame exchanges per round (``round``/``sent``, then
    ``deliver``/``events``), so a different policy — e.g. bounded-lag
    pipelining — would slot in by changing only ``_round_body``.

What crosses the wire, and what the coordinator sees
    Cross-shard batches travel as opaque codec bytes; the coordinator
    relays them between workers without decoding — it only tells the
    receiver which worker each batch came from, because a batch is
    decoded against its stream's item table
    (:class:`~repro.net.codec.WireSession`), which the coordinator does
    not have.  Rumor payload bytes never materialize in the coordinator
    except where the audit needs them: each worker's *delivered* stream,
    decoded through one session per worker and fed to the
    :class:`~repro.audit.confidentiality.ConfidentialityAuditor` in
    reconstructed global order.  Delivery records carry payload digests
    only; plaintext is re-attached from the coordinator's own injection
    log, never from the wire.

Adversary support
    Everything driven by ``round_start`` (workloads, crash/restart fault
    models, adaptive killers reading the event log) works unchanged.
    Mid-round adversaries are rejected at setup: they inspect the round's
    outgoing messages, which never exist in one place here.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.adversary.base import Adversary, ComposedAdversary
from repro.chaos.targeted import TargetedFaultPlane, build_fault_plane
from repro.gossip.rumor import RumorId
from repro.net.codec import WireSession, decode_frame, encode_frame
from repro.net.shard import ShardPlan
from repro.net.transport import DEFAULT_TIMEOUT, TransportClosed, get_transport
from repro.net.worker import worker_main
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import RoundEngine, UnsupportedScenario

__all__ = ["NetOptions", "ShardEngine", "run_sharded_scenario"]


class NetOptions:
    """Resolved ``Scenario.net`` options (all optional, with defaults)."""

    KEYS = ("workers", "transport", "timeout")

    def __init__(self, net: Optional[Dict[str, object]]):
        net = dict(net or {})
        unknown = set(net) - set(self.KEYS)
        if unknown:
            raise ValueError(
                "unknown net options: {}".format(sorted(unknown))
            )
        self.workers = int(net.get("workers", 2))  # type: ignore[arg-type]
        self.transport = str(net.get("transport", "tcp"))
        timeout = net.get("timeout")
        self.timeout = DEFAULT_TIMEOUT if timeout is None else float(timeout)  # type: ignore[arg-type]
        if self.workers < 1:
            raise ValueError("net.workers must be >= 1")


def _reject_mid_round_adversaries(adversary: Adversary) -> None:
    """Fail fast on adversaries the sharded backend cannot honor.

    Names the exact offending part — including its position inside a
    :class:`ComposedAdversary` — and points at the supported
    alternative: targeted chaos policies (``Scenario.targeted``) make
    their decisions from shard-invariant message metadata, so they run on
    this backend where a mid-round adversary cannot.
    """
    composed = isinstance(adversary, ComposedAdversary)
    parts = adversary.parts if composed else [adversary]
    for index, part in enumerate(parts):
        if type(part).mid_round is not Adversary.mid_round:
            if composed:
                where = "{} (part {} of {} in a ComposedAdversary)".format(
                    type(part).__name__, index + 1, len(parts)
                )
            else:
                where = type(part).__name__
            raise UnsupportedScenario(
                "{} overrides mid_round (it inspects the round's outgoing "
                "messages); the sharded backend never materializes them in "
                "one place.  Run this scenario with backend='inproc', or "
                "express the attack as a targeted chaos policy "
                "(Scenario.targeted, see repro.chaos.targeted) — those "
                "decide from per-message metadata and replay identically "
                "on the sharded backend".format(where)
            )


class WorkerLost(TransportClosed):
    """A worker's connection failed: which worker, its fate, the round."""


# How long the startup accept loop waits between looks at the spawned
# processes: a worker that died before its hello is reported within it.
_STARTUP_SLICE = 0.2


class _WorkerPool:
    """Spawned worker processes plus their coordinator-side connections."""

    def __init__(
        self,
        scenario,
        plan: ShardPlan,
        options: NetOptions,
        telemetry_enabled: bool = False,
    ):
        self.plan = plan
        transport = get_transport(options.transport, timeout=options.timeout)
        self.listener = transport.listen()
        context = multiprocessing.get_context("spawn")
        self.processes = []
        self.connections: Dict[int, object] = {}
        # The coordinator's end of each worker's delivered stream.
        self.delivered = {
            worker: WireSession() for worker in range(plan.workers)
        }
        #: The round being run, for :class:`WorkerLost` (None: startup).
        self.round_no: Optional[int] = None
        try:
            for worker in range(plan.workers):
                config = {
                    "worker": worker,
                    "n": scenario.n,
                    "seed": scenario.seed,
                    "params": asdict(scenario.params),
                    "chaos": scenario.chaos,
                    "targeted": scenario.targeted,
                    "owner": plan.owner,
                    "address": self.listener.address,
                    "transport": options.transport,
                    "timeout": options.timeout,
                    "telemetry": telemetry_enabled,
                }
                process = context.Process(
                    target=worker_main,
                    args=(config,),
                    daemon=True,
                    name="repro-net-worker-{}".format(worker),
                )
                process.start()
                self.processes.append(process)
            deadline = time.monotonic() + options.timeout
            for _ in range(plan.workers):
                connection = self._accept(deadline)
                kind, body = decode_frame(connection.recv())
                if kind == "error":
                    raise RuntimeError(
                        "shard worker failed during startup:\n{}".format(
                            body.get("traceback")
                        )
                    )
                if kind != "hello":
                    raise RuntimeError(
                        "expected hello frame, got {!r}".format(kind)
                    )
                self.connections[int(body["worker"])] = connection
        except BaseException:
            self.close()
            raise

    def _accept(self, deadline: float):
        """The next worker's connection, unless a worker died first.

        A worker that exits before its hello (its ``__main__`` cannot be
        re-imported under spawn, say) never connects; waiting out the
        whole transport timeout for it would hide the exit code.
        """
        while not self.listener.wait(_STARTUP_SLICE):
            for worker, process in enumerate(self.processes):
                if process.exitcode is not None:
                    raise WorkerLost(
                        "shard worker {} exited before its hello "
                        "(exit code {})".format(worker, process.exitcode)
                    )
            if time.monotonic() > deadline:
                raise TransportClosed("no worker connected before the timeout")
        return self.listener.accept()

    def _lost(self, worker: int, exc: TransportClosed) -> WorkerLost:
        process = self.processes[worker]
        # A killed worker's socket closes a moment before it is reaped.
        process.join(timeout=1.0)
        code = process.exitcode
        return WorkerLost(
            "shard worker {} lost ({}) in round {}: {}".format(
                worker,
                "still running" if code is None else "exit code {}".format(code),
                self.round_no,
                exc,
            )
        )

    def send(self, worker: int, frame: bytes) -> None:
        try:
            self.connections[worker].send(frame)
        except TransportClosed as exc:
            raise self._lost(worker, exc) from None

    def recv(self, worker: int, expected: str):
        try:
            frame = self.connections[worker].recv()
        except TransportClosed as exc:
            raise self._lost(worker, exc) from None
        kind, body = decode_frame(frame)
        if kind == "error":
            raise RuntimeError(
                "shard worker {} failed:\n{}".format(
                    body.get("worker", worker), body.get("traceback")
                )
            )
        if kind != expected:
            raise RuntimeError(
                "expected {!r} frame from worker {}, got {!r}".format(
                    expected, worker, kind
                )
            )
        return body

    def close(self) -> None:
        for connection in self.connections.values():
            try:
                connection.close()
            except Exception:
                pass
        try:
            self.listener.close()
        except Exception:
            pass
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)


class ShardEngine(RoundEngine):
    """The round skeleton over shard worker processes.

    Constructing one spawns the workers; :meth:`finish` stops them and
    folds their final frames in; :meth:`close` reaps them.  Of the round
    it supplies only what differs from the other paths: a crash, a
    restart or an injection is a line in the round frame being built,
    ``behavior(pid)`` refuses (the node lives in another process), and
    the round body ships the frames and merges the replies.  On top of
    the engine surface it keeps sharding-specific accounting for the E18
    bench (:meth:`net_summary`, :meth:`phase_summary`,
    :meth:`worker_pair_summary`).
    """

    def __init__(
        self,
        scenario,
        plan: ShardPlan,
        options: NetOptions,
        adversary: Adversary,
        observers,
        delivery,
        telemetry=None,
    ):
        super().__init__(scenario.n, adversary, observers)
        self.plan = plan
        self.transport = options.transport
        self.sync = "lockstep"
        self.delivery = delivery
        self.telemetry = telemetry
        self.local_messages = 0
        self.cross_messages = 0
        # Always-on net-only observability (namespaced ``net.``): round
        # phase spans, worker wait/queue summaries, transport totals.
        # Kept outside any user Telemetry so the E18 bench can read it
        # without paying for event capture.
        self.metrics = MetricsRegistry()
        # (src_worker, dst_worker) -> relayed cross-batch frames/bytes.
        # Deterministic: the codec is, and batches are per-round merges.
        self.pair_frames: Dict[Tuple[int, int], int] = {}
        self.pair_bytes: Dict[Tuple[int, int], int] = {}
        # Counts-only mirror of the workers' planes: the schedule object
        # is identical (same seed/specs); a targeted mirror tracks
        # injections coordinator-side from the same announcements the
        # round frames broadcast; counts and the budget ledger are merged
        # from the final frames in :meth:`finish`.
        self.fault_plane = build_fault_plane(
            scenario.seed,
            scenario.n,
            scenario.fault_spec(),
            scenario.targeted_spec(),
        )
        self._targeted = isinstance(self.fault_plane, TargetedFaultPlane)
        self._new_round_frame()
        self._pool = _WorkerPool(
            scenario, plan, options, telemetry_enabled=telemetry is not None
        )
        self._worker_ids = sorted(self._pool.connections)

    def net_summary(self) -> Dict[str, object]:
        total = self.local_messages + self.cross_messages
        return {
            "workers": self.plan.workers,
            "transport": self.transport,
            "sync": self.sync,
            "local_messages": self.local_messages,
            "cross_messages": self.cross_messages,
            "cross_fraction": (
                round(self.cross_messages / total, 4) if total else 0.0
            ),
        }

    def record_cross_batch(self, src: int, dst: int, nbytes: int) -> None:
        pair = (src, dst)
        self.pair_frames[pair] = self.pair_frames.get(pair, 0) + 1
        self.pair_bytes[pair] = self.pair_bytes.get(pair, 0) + nbytes

    def worker_pair_summary(self) -> Dict[str, Dict[str, int]]:
        """Relayed cross-batch frame/byte counts per ``src->dst`` pair."""
        return {
            "{}->{}".format(src, dst): {
                "frames": self.pair_frames[(src, dst)],
                "bytes": self.pair_bytes[(src, dst)],
            }
            for src, dst in sorted(self.pair_frames)
        }

    def phase_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-phase round-latency summaries (incl. p50/p99/p999)."""
        out: Dict[str, Dict[str, object]] = {}
        for (name, labels), instrument in self.metrics.items():
            if name == "net.round.phase_seconds":
                out[dict(labels)["phase"]] = instrument.as_dict()
        return out

    # ------------------------------------------------------------------
    # The skeleton's backend pieces
    # ------------------------------------------------------------------

    def behavior(self, pid: int):
        """Omniscient *membership* state (aliveness, event log) is global
        at the coordinator; per-node internals are not, so this raises
        instead of silently returning stale state."""
        raise NotImplementedError(
            "node {} lives in a shard worker process; the sharded backend "
            "does not expose remote node internals to adversaries".format(pid)
        )

    def _new_round_frame(self) -> None:
        self._crashes: List[int] = []
        self._restarts: List[int] = []
        self._injections_of: Dict[int, List[Tuple[int, object]]] = {}
        self._rumor_meta: List[List[int]] = []

    def _crash_state(self, round_no: int, pid: int) -> None:
        self._crashes.append(pid)

    def _restart_state(self, round_no: int, pid: int) -> None:
        self._restarts.append(pid)

    def _inject_state(self, round_no: int, pid: int, rumor) -> None:
        self._injections_of.setdefault(self.plan.owner[pid], []).append(
            (pid, rumor)
        )
        if self._targeted:
            # Leak-safe announcement (rid coordinates + deadline, never
            # the payload or destination set), broadcast to EVERY worker
            # so all targeted policies track identically; the mirror
            # plane tracks the same way coordinator-side.
            rid = rumor.rid
            self._rumor_meta.append([rid.src, rid.seq, rumor.deadline])
            self.fault_plane.observe_injection(
                round_no, rid.src, rid.seq, rumor.deadline
            )

    def _mark_phase(self, phase: str) -> None:
        # Wall-clock since the previous mark; lands in the always-on
        # net registry (never the simulation payload), so the spans are
        # free of digest concerns.
        now = time.perf_counter()
        self.metrics.histogram("net.round.phase_seconds", phase=phase).observe(
            now - self._phase_started
        )
        self._phase_started = now

    def run_round(self) -> None:
        # The four phase spans tile the whole round, hooks included.
        self._phase_started = time.perf_counter()
        super().run_round()
        self._mark_phase("merge")

    def _round_body(self, round_no: int) -> None:
        pool = self._pool
        pool.round_no = round_no
        worker_ids = self._worker_ids
        telemetry = self.telemetry
        delivery = self.delivery
        for worker in worker_ids:
            body: Dict[str, object] = {
                "round": round_no,
                "crashes": self._crashes,
                "restarts": self._restarts,
                "injections": self._injections_of.get(worker, []),
            }
            if self._targeted:
                # Key only present on targeted runs: the wire stays
                # byte-identical for every pre-existing scenario.
                body["rumor_meta"] = self._rumor_meta
            pool.send(worker, encode_frame("round", body))
        self._new_round_frame()
        self._mark_phase("route")
        total = 0
        size = 0
        by_service: Dict[str, int] = {}
        batches_for: Dict[int, List[Tuple[int, bytes]]] = {
            worker: [] for worker in worker_ids
        }
        for worker in worker_ids:
            sent = pool.recv(worker, "sent")
            total += sent["count"]
            size += sent["size"]
            for service, tally in sent["by_service"].items():
                by_service[service] = by_service.get(service, 0) + tally
            self.local_messages += sent["local_count"]
            self.cross_messages += sent["count"] - sent["local_count"]
            # Opaque relay: the coordinator never decodes cross traffic.  It
            # names the source, which selects the receiver's decoder session.
            for destination, blob in sorted(sent["cross"].items()):
                batches_for[destination].append((worker, blob))
                self.record_cross_batch(worker, destination, len(blob))
        self.stats.record_round(round_no, total, size, by_service)

        for worker in worker_ids:
            pool.send(
                worker,
                encode_frame(
                    "deliver",
                    {"round": round_no, "batches": batches_for[worker]},
                ),
            )
        self._mark_phase("ship")
        # Receive every worker's reply before decoding any of them, so that
        # ``barrier`` is time spent waiting on workers and nothing else; the
        # coordinator's own decode of the delivered streams is ``merge``.
        replies = []
        telemetry_entries: List[Tuple[int, int, int, str, Dict[str, object]]] = []
        for worker in worker_ids:
            replies.append((worker, pool.recv(worker, "events")))
            if telemetry is not None:
                batch = pool.recv(worker, "telemetry")
                for seq, kind, event_round, fields in batch["events"]:
                    telemetry_entries.append(
                        (event_round, worker, seq, kind, fields)
                    )
        self._mark_phase("barrier")
        merged: List[Tuple[Tuple[int, ...], object]] = []
        for worker, events in replies:
            merged.extend(pool.delivered[worker].decode(events["delivered"]))
        # Restore the exact in-process delivered order: fresh messages by
        # (src, seq) — the engine's outgoing order — then matured chaos
        # copies by (admit_round, src, seq) — the plane's queue order.
        merged.sort(key=lambda entry: entry[0])
        self._announce_deliveries(
            round_no, [message for _, message in merged]
        )

        for _, events in replies:
            for pid, when, src, seq, digest, path in events["deliveries"]:
                rid = RumorId(src, seq)
                rumor = delivery.rumors.get(rid)
                if (
                    rumor is not None
                    and hashlib.sha256(rumor.data).hexdigest() == digest
                ):
                    data = rumor.data
                else:
                    # Never equal to any injected plaintext: records the
                    # delivery (and its path) while failing correct_data.
                    data = b"\x00unverified:" + digest.encode("ascii")
                delivery.record_delivery(pid, when, rid, data, path)

        if telemetry is not None:
            # The deterministic cross-shard merge: (round, worker, seq) is a
            # total order — seq is monotonic within a worker's stream and
            # the worker label breaks ties across streams.  Re-emitting here
            # fans out to the tracer's sinks and subscribers exactly as the
            # inproc backend would, with one extra ``worker`` field.
            telemetry_entries.sort(key=lambda entry: entry[:3])
            for event_round, worker, _seq, kind, fields in telemetry_entries:
                telemetry.emit(kind, event_round, **{**fields, "worker": worker})

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Stop the workers and fold their final frames into this engine."""
        pool = self._pool
        telemetry = self.telemetry
        fault_plane = self.fault_plane
        for worker in self._worker_ids:
            pool.send(worker, encode_frame("stop", None))
        for worker in self._worker_ids:
            if telemetry is not None:
                # Exact global totals: merged without a worker label, so
                # every protocol counter equals the inproc run's value.
                snapshot = pool.recv(worker, "metrics")
                telemetry.metrics.merge_snapshot(snapshot["metrics"])
            final = pool.recv(worker, "final")
            if self._targeted and final.get("targeted") is not None:
                fault_plane.merge_targeted(final["targeted"])
            if fault_plane is not None and final["counts"] is not None:
                for kind, count in final["counts"].items():
                    fault_plane.counts[kind] = (
                        fault_plane.counts.get(kind, 0) + count
                    )
                for stage, kinds in (final["stage_counts"] or {}).items():
                    merged = fault_plane.stage_counts.setdefault(stage, {})
                    for kind, count in kinds.items():
                        merged[kind] = merged.get(kind, 0) + count
            _fold_worker_net(self.metrics, worker, final.get("net"))
        self._fold_transport_totals()
        if telemetry is not None:
            # Surface the coordinator's net-only registry (phase spans,
            # worker waits, pair counters, transport totals) to the tracer.
            telemetry.metrics.merge_snapshot(self.metrics.snapshot())

    def close(self) -> None:
        self._pool.close()

    def _fold_transport_totals(self) -> None:
        """Per-worker frame/byte totals from the coordinator's connections.

        Direction is coordinator-relative: ``dir=send`` is control traffic
        to the worker (round/deliver/stop frames and relayed batches),
        ``dir=recv`` is the worker's replies.
        """
        for worker in self._worker_ids:
            totals = self._pool.connections[worker].wire_totals()
            for direction, frames_key, bytes_key in (
                ("send", "sent_frames", "sent_bytes"),
                ("recv", "recv_frames", "recv_bytes"),
            ):
                self.metrics.counter(
                    "net.transport.frames", dir=direction, worker=worker
                ).inc(totals[frames_key])
                self.metrics.counter(
                    "net.transport.bytes", dir=direction, worker=worker
                ).inc(totals[bytes_key])
        for (src, dst), frames in sorted(self.pair_frames.items()):
            pair = "{}->{}".format(src, dst)
            self.metrics.counter("net.cross.frames", pair=pair).inc(frames)
            self.metrics.counter("net.cross.bytes", pair=pair).inc(
                self.pair_bytes[(src, dst)]
            )


def run_sharded_scenario(setup):
    """Run an assembled scenario on the sharded multi-process backend.

    ``setup`` is :func:`repro.harness.runner.assemble`'s; see the module
    docstring for the division of labor between coordinator and workers.
    Returns the same ``RunResult`` shape as the in-process path
    (``result.engine`` is a :class:`ShardEngine`).

    ``setup.telemetry`` (a :class:`repro.obs.instrument.Telemetry`) turns
    on worker-side event capture: every worker runs its own registry +
    capture buffer, ships sanitized batches back each round, and the
    coordinator re-emits them here in ``(round, worker, seq)`` order with
    a ``worker`` field added — for the same scenario the merged stream is
    the inproc stream modulo that label.  Worker metric registries are
    folded into ``telemetry.metrics`` *without* worker labels, so protocol
    counter totals match the inproc run exactly; coordinator-side
    ``net.*`` metrics (phase spans, worker waits, transport totals) are
    added on top.  ``None`` keeps the wire protocol byte-identical to a
    pre-telemetry run — no extra frames at all.
    """
    scenario = setup.scenario
    options = NetOptions(scenario.net)
    if options.workers > scenario.n:
        raise ValueError(
            "net.workers={} exceeds n={}".format(options.workers, scenario.n)
        )
    _reject_mid_round_adversaries(setup.adversary)
    plan = ShardPlan.build(
        scenario.n, options.workers, partition_set=setup.partition_set
    )
    engine = ShardEngine(
        scenario,
        plan,
        options,
        setup.adversary,
        setup.observers,
        setup.delivery,
        setup.telemetry,
    )
    try:
        engine.run(scenario.rounds)
        engine.finish()
    finally:
        engine.close()
    return setup.result(engine)


def _fold_worker_net(
    metrics: MetricsRegistry, worker: int, net: Optional[Dict[str, object]]
) -> None:
    """Fold a worker's final-frame wait/queue samples into ``net.*``."""
    if not net:
        return
    barrier = metrics.histogram("net.worker.barrier_wait_seconds", worker=worker)
    for sample in net.get("barrier_wait_s", ()):
        barrier.observe(sample)
    ship = metrics.histogram("net.worker.ship_wait_seconds", worker=worker)
    for sample in net.get("ship_wait_s", ()):
        ship.observe(sample)
    depth = metrics.histogram("net.worker.queue_depth", worker=worker)
    for sample in net.get("queue_depths", ()):
        depth.observe(sample)
    metrics.gauge("net.worker.queue_peak", worker=worker).set(
        net.get("queue_peak", 0)
    )
