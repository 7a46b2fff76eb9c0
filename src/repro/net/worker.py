"""The shard worker process.

A worker hosts the :class:`~repro.sim.process.ProcessShell`\\ s of the
pids it owns and replays, for that subset, exactly what
:class:`~repro.sim.engine.Engine` would do — same phase order, same
pid-ascending iteration, same crash-loss and chaos semantics — driven by
lockstep frames from the coordinator:

``round``   crashes/restarts/injections for this round; the worker runs
            its send phase and answers ``sent`` with aggregate counts
            plus the cross-shard batches, encoded, per destination
            worker.  Payload bytes in cross batches are opaque to the
            coordinator — it relays them verbatim.
``deliver`` the cross batches addressed to this worker, each with the
            worker it came from; the worker merges them with its local
            traffic **in global send order**
            (every message is tagged ``(src, seq)`` where ``seq`` is the
            sender's emission index), routes with the message-keyed
            chaos plane, runs its receive phase, and answers ``events``
            with the delivered stream (order keys included) and delivery
            records.  Delivery records carry a sha256 of the rumor
            bytes, never the bytes themselves.
``stop``    answers ``final`` (chaos counts plus always-on wait/queue
            instrumentation) and exits.

Every stream of message batches has a :class:`~repro.net.codec.WireSession`
at each end, so a gossip item crosses it in full once and as a table
reference afterwards: this worker encodes to each peer worker and to the
coordinator (the delivered stream) through one session each, and decodes
each peer's cross batches through one session per source.  The sessions
only stay in step because every batch encoded for a stream is decoded by
its peer, in order — which the lockstep protocol guarantees.

With telemetry enabled in the spawn config, the worker also runs its own
:class:`~repro.obs.Telemetry` — a private :class:`MetricsRegistry` plus
a :class:`~repro.obs.SequenceSink` capture buffer — and ships two extra
frame kinds: a ``telemetry`` frame after every ``events`` reply (the
round's sanitized event batch, each entry ``(seq, kind, round, fields)``
with ``seq`` the worker's monotonic emission index) and one ``metrics``
frame (the registry snapshot) before ``final``.  Sanitization happens
*worker-side* at emission time (:meth:`ObsEvent.make` runs
``json_safe``), so rumor payload bytes never enter a telemetry frame —
the codec tests pin this with a marker grep.  Telemetry emission reads
no rng stream, so traced runs stay bit-identical to default runs.

Determinism argument: a node's behaviour is a function of its pid, the
shared seed hierarchy, and its per-round inputs (injections, inbox).
Workers reproduce the engine's inbox content and order exactly — fresh
messages sort by ``(src, seq)`` (the engine's outgoing order) and
matured chaos copies append in plane-queue order, which the keyed plane
makes shard-invariant — so every node computes bit-identical state to
the in-process run, by induction over rounds.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from typing import Dict, List, Optional, Set, Tuple

from repro.chaos.plane import ChaosFaultPlane
from repro.chaos.spec import FaultSpec
from repro.chaos.targeted import TargetedFaultPlane, TargetedSpec, build_fault_plane
from repro.core.config import CongosParams
from repro.core.congos import build_partition_set, congos_factory
from repro.net.codec import WireSession, decode_frame, encode_frame
from repro.net.transport import TransportClosed, get_transport
from repro.obs.instrument import Telemetry
from repro.obs.sink import SequenceSink
from repro.sim.messages import Message
from repro.sim.process import ProcessShell

__all__ = ["ShardWorker", "worker_main"]

#: Order-key tags: fresh messages deliver in (src, seq) order before any
#: matured chaos copy, which delivers in (admit_round, src, seq) order —
#: together they reproduce the engine's delivered-stream order exactly.
FRESH = 0
MATURED = 1


class ShardWorker:
    """One worker's full state; see the module docstring for protocol."""

    def __init__(self, config: Dict[str, object]):
        self.wid: int = int(config["worker"])  # type: ignore[arg-type]
        self.n: int = int(config["n"])  # type: ignore[arg-type]
        self.seed: int = int(config["seed"])  # type: ignore[arg-type]
        self.owner: Tuple[int, ...] = tuple(config["owner"])  # type: ignore[arg-type]
        params = CongosParams(**config["params"])  # type: ignore[arg-type]
        self.my_pids: List[int] = [
            pid for pid in range(self.n) if self.owner[pid] == self.wid
        ]
        partition_set = build_partition_set(self.n, params, self.seed)
        self._deliveries: List[Tuple[int, int, int, int, str, str]] = []

        # Worker-local telemetry: events buffer in a SequenceSink until
        # the coordinator drains them (one telemetry frame per round),
        # metrics accumulate in a private registry shipped at stop.
        self.capture: Optional[SequenceSink] = None
        self.telemetry: Optional[Telemetry] = None
        if config.get("telemetry"):
            self.capture = SequenceSink()
            self.telemetry = Telemetry(sinks=[self.capture])

        # Always-on SLO instrumentation (floats/ints only; never touches
        # simulation state, so default runs stay bit-identical).
        self.barrier_wait_s: List[float] = []
        self.ship_wait_s: List[float] = []
        self.queue_depths: List[int] = []
        self.queue_peak = 0

        def _deliver(pid: int, round_no: int, rid, data: bytes, path: str) -> None:
            self._deliveries.append(
                (
                    pid,
                    round_no,
                    rid.src,
                    rid.seq,
                    hashlib.sha256(data).hexdigest(),
                    path,
                )
            )

        factory = congos_factory(
            self.n,
            params=params,
            seed=self.seed,
            deliver_callback=_deliver,
            partition_set=partition_set,
            telemetry=self.telemetry,
        )
        self.shells: Dict[int, ProcessShell] = {}
        for pid in self.my_pids:
            shell = ProcessShell(pid, factory)
            shell.start(0)
            self.shells[pid] = shell
        self.alive: Set[int] = set(range(self.n))
        chaos = config.get("chaos")
        targeted = config.get("targeted")
        # Message-keyed mode: fates drawn per (round, src, dst, copy) and
        # shuffles per recipient, so every worker makes the same decisions
        # regardless of the shard layout.  A targeted policy's state is
        # fed by the coordinator's rumor_meta broadcast and its budgets
        # are per-destination, so every worker reaches exactly the inproc
        # (chaos_keyed) verdicts for the destinations it owns.
        self.plane: Optional[ChaosFaultPlane] = build_fault_plane(
            self.seed,
            self.n,
            FaultSpec.from_dict(chaos) if chaos is not None else None,  # type: ignore[arg-type]
            TargetedSpec.from_dict(targeted) if targeted is not None else None,  # type: ignore[arg-type]
            telemetry=self.telemetry,
            keep_events=False,
            message_keyed=True,
        )
        # One session per stream end: cross batches out to / in from each
        # peer worker, and the delivered stream out to the coordinator.
        peers = sorted(set(self.owner) - {self.wid})
        self._to_worker = {peer: WireSession() for peer in peers}
        self._from_worker = {peer: WireSession() for peer in peers}
        self._to_coordinator = WireSession()
        # Round-local state between the round and deliver frames.
        self._local: List[Tuple[Tuple[int, ...], Message]] = []
        # id(queued message) -> (src, seq), for tagging matured copies.
        self._queued_keys: Dict[int, Tuple[int, int]] = {}

    # -- frame handlers --------------------------------------------------

    def handle_round(self, body: Dict[str, object]) -> Dict[str, object]:
        round_no: int = body["round"]  # type: ignore[assignment]
        for pid in body["crashes"]:  # type: ignore[union-attr]
            if pid in self.shells:
                self.shells[pid].crash()
            self.alive.discard(pid)
        for pid in body["restarts"]:  # type: ignore[union-attr]
            if pid in self.shells:
                self.shells[pid].restart(round_no)
            self.alive.add(pid)
        for pid, rumor in body["injections"]:  # type: ignore[union-attr]
            self.shells[pid].inject(round_no, rumor)
        # Targeted runs only: the round's injection announcements (rid
        # coordinates + deadline, never payload bytes or destination
        # sets), broadcast to every worker so all policies track alike.
        if self.plane is not None:
            for src, seq, deadline in body.get("rumor_meta") or ():
                self.plane.observe_injection(round_no, src, seq, deadline)

        count = 0
        size = 0
        by_service: Dict[str, int] = {}
        local: List[Tuple[Tuple[int, ...], Message]] = []
        cross: Dict[int, List[Tuple[Tuple[int, ...], Message]]] = {}
        n = self.n
        owner = self.owner
        wid = self.wid
        for pid in self.my_pids:
            messages = self.shells[pid].send_phase(round_no)
            for seq, message in enumerate(messages):
                src = message.src
                dst = message.dst
                if src < 0 or src >= n or dst < 0 or dst >= n:
                    raise ValueError(
                        "invalid endpoints {}->{}".format(src, dst)
                    )
                count += 1
                size += message.size
                service = message.service
                by_service[service] = by_service.get(service, 0) + 1
                entry = ((src, seq), message)
                if owner[dst] == wid:
                    local.append(entry)
                else:
                    cross.setdefault(owner[dst], []).append(entry)
        self._local = local
        return {
            "round": round_no,
            "count": count,
            "size": size,
            "local_count": len(local),
            "by_service": by_service,
            "cross": {
                worker: self._to_worker[worker].encode(batch, round_no)
                for worker, batch in cross.items()
            },
        }

    def handle_deliver(self, body: Dict[str, object]) -> Dict[str, object]:
        round_no: int = body["round"]  # type: ignore[assignment]
        for pid in body["mid_crashes"]:  # type: ignore[union-attr]
            if pid in self.shells:
                self.shells[pid].crash()
            self.alive.discard(pid)

        entries = list(self._local)
        self._local = []
        # Keep the decoded batches alive until the frame is built: the
        # auditor-side id(payload) cache pins by identity, and matured
        # chaos copies are keyed by id() below.
        for source, blob in body["batches"]:  # type: ignore[union-attr]
            entries.extend(self._from_worker[source].decode(blob))
        entries.sort(key=lambda entry: entry[0])

        pending = self.plane.pending_count() if self.plane is not None else 0
        depth = len(entries) + pending
        self.queue_depths.append(depth)
        if depth > self.queue_peak:
            self.queue_peak = depth

        plane = self.plane
        chaos = plane is not None and plane.active_in(round_no)
        if chaos:
            plane.begin_round(round_no)
        alive = self.alive
        inboxes: Dict[int, List[Message]] = {}
        delivered: List[Tuple[Tuple[int, ...], Message]] = []
        lost_to_crash = 0
        lost_to_fault = 0
        for key, message in entries:
            dst = message.dst
            if dst not in alive:
                lost_to_crash += 1
                continue
            if chaos:
                fate = plane.admit(round_no, message)
                if fate == "drop" or fate == "sever":
                    lost_to_fault += 1
                    continue
                if fate == "delay":
                    self._queued_keys[id(message)] = key
                    continue
                if fate == "duplicate":
                    self._queued_keys[id(message)] = key
            inboxes.setdefault(dst, []).append(message)
            delivered.append(((FRESH,) + key, message))
        if plane is not None and plane.has_pending():
            for admit_round, message in plane.release_tagged(round_no):
                src, seq = self._queued_keys.pop(id(message))
                if message.dst not in alive:
                    lost_to_crash += 1
                    plane.record_late_loss(round_no, message)
                    continue
                inboxes.setdefault(message.dst, []).append(message)
                delivered.append(((MATURED, admit_round, src, seq), message))
        if chaos:
            plane.shuffle_inboxes(round_no, inboxes)

        empty: List[Message] = []
        for pid in self.my_pids:
            shell = self.shells[pid]
            if shell.alive:
                shell.receive_phase(round_no, inboxes.get(pid, empty))
        # Everything recorded since the last flush — including "local"
        # deliveries triggered by this round's injections in handle_round.
        deliveries = self._deliveries
        self._deliveries = []
        return {
            "round": round_no,
            "delivered": self._to_coordinator.encode(delivered, round_no),
            "deliveries": deliveries,
            "lost_to_crash": lost_to_crash,
            "lost_to_fault": lost_to_fault,
        }

    def handle_stop(self) -> Dict[str, object]:
        plane = self.plane
        return {
            "worker": self.wid,
            "counts": dict(plane.counts) if plane is not None else None,
            "stage_counts": (
                {stage: dict(kinds) for stage, kinds in plane.stage_counts.items()}
                if plane is not None
                else None
            ),
            # Targeted runs: this worker's policy counts + budget ledger
            # (per-destination accounting over the pids it owns); the
            # coordinator merges them into its mirror plane.
            "targeted": (
                plane.targeted_summary()
                if isinstance(plane, TargetedFaultPlane)
                else None
            ),
            # Always-on SLO instrumentation.  Floats/ints only; the
            # coordinator folds these into its net-metrics registry,
            # never into the simulation payload, so nondeterministic
            # timings cannot perturb a RunRecord digest.
            "net": {
                "barrier_wait_s": list(self.barrier_wait_s),
                "ship_wait_s": list(self.ship_wait_s),
                "queue_depths": list(self.queue_depths),
                "queue_peak": self.queue_peak,
            },
        }

    # -- telemetry frames ------------------------------------------------

    def drain_telemetry(self, round_no: int) -> Dict[str, object]:
        """The round's ``telemetry`` frame body: sanitized event batch.

        Entries are ``(seq, kind, round, fields)`` with ``seq`` the
        worker's monotonic emission index — the coordinator merges all
        workers' batches on ``(round, worker, seq)``.  Fields were made
        JSON-safe at emission time, so no rumor bytes can appear here.
        """
        assert self.capture is not None
        events = [
            (seq, event.kind, event.round_no, event.fields)
            for seq, event in self.capture.drain()
        ]
        return {"worker": self.wid, "round": round_no, "events": events}

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``metrics`` frame body: this worker's registry snapshot."""
        assert self.telemetry is not None
        return {
            "worker": self.wid,
            "metrics": self.telemetry.metrics.snapshot(),
        }


def worker_main(config: Dict[str, object]) -> None:
    """Process entry point (spawn-safe: config is a plain dict)."""
    transport = get_transport(
        str(config["transport"]), timeout=config.get("timeout")
    )
    connection = transport.connect(config["address"])  # type: ignore[arg-type]
    try:
        try:
            worker = ShardWorker(config)
            connection.send(
                encode_frame("hello", {"worker": worker.wid})
            )
            while True:
                # Wall-clock blocked on the coordinator: before a round
                # frame this is the lockstep barrier (the slowest peer's
                # shadow); before a deliver frame it is the cross-batch
                # relay (ship) wait.
                waited_from = time.perf_counter()
                kind, body = decode_frame(connection.recv())
                waited = time.perf_counter() - waited_from
                if kind == "round":
                    worker.barrier_wait_s.append(waited)
                    reply = ("sent", worker.handle_round(body))
                elif kind == "deliver":
                    worker.ship_wait_s.append(waited)
                    reply = ("events", worker.handle_deliver(body))
                elif kind == "stop":
                    if worker.telemetry is not None:
                        connection.send(
                            encode_frame("metrics", worker.metrics_snapshot())
                        )
                    connection.send(
                        encode_frame("final", worker.handle_stop())
                    )
                    break
                else:
                    raise ValueError("unexpected frame {!r}".format(kind))
                connection.send(encode_frame(*reply))
                if kind == "deliver" and worker.telemetry is not None:
                    connection.send(
                        encode_frame(
                            "telemetry",
                            worker.drain_telemetry(body["round"]),
                        )
                    )
        except Exception:
            wid = int(config.get("worker", -1))  # type: ignore[arg-type]
            report = encode_frame(
                "error", {"worker": wid, "traceback": traceback.format_exc()}
            )
            try:
                connection.send(report)
            except TransportClosed:
                # The coordinator tears the whole pool down when one worker
                # fails, so a surviving worker's own failure (usually just
                # its recv hitting the closed socket) has nobody left to
                # report to.  Say so in one line, not a chained traceback.
                print(
                    "repro.net worker {}: coordinator connection closed, "
                    "exiting".format(wid),
                    file=sys.stderr,
                )
    finally:
        connection.close()
