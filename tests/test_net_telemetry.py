"""Distributed telemetry for the sharded backend.

The contract under test (see DESIGN.md §9): a traced sharded run ships
worker-side event captures and metric snapshots to the coordinator as
``telemetry``/``metrics`` control frames, which merges them on the
``(round, worker, seq)`` order key into one stream that is

* **equivalent** to the inproc stream for the same scenario, modulo one
  extra ``worker`` field (events are compared canonically per round —
  the shard layout may interleave worker emission order within a round);
* **deterministic** — the same sharded run replays to a byte-identical
  merged stream;
* **leak-safe** — sanitization happens worker-side before encode, so no
  rumor payload bytes ever ride a telemetry or metrics frame;
* **metric-exact** — worker registries merge into totals equal to the
  inproc run's counters (``net.*`` coordinator metrics excluded).
"""

import dataclasses
import json

import pytest

from repro.adversary.injection import ScriptedWorkload
from repro.core.config import CongosParams
from repro.harness.runner import Scenario, run_congos_scenario
from repro.harness.scenarios import get_builder
from repro.net.codec import decode_frame
from repro.net.transport import TcpConnection
from repro.obs.instrument import Telemetry
from repro.obs.sink import CollectSink
from repro.obs.timeline import RumorTimeline


def _traced(scenario, subscribe_timeline=False):
    sink = CollectSink()
    telemetry = Telemetry(sinks=[sink])
    timeline = RumorTimeline() if subscribe_timeline else None
    if timeline is not None:
        telemetry.subscribe(timeline)
    result = run_congos_scenario(scenario, telemetry=telemetry)
    return result, sink.events, telemetry, timeline


def _sharded(scenario, workers):
    return dataclasses.replace(
        scenario, backend="sharded", net={"workers": workers}
    )


def _canonical(events):
    """Per-round canonical event sequence, ``worker`` label dropped."""
    out = []
    for event in events:
        payload = event.to_dict()
        payload.pop("worker", None)
        out.append((payload["round"], json.dumps(payload, sort_keys=True)))
    return sorted(out)


def _protocol_counters(telemetry):
    """Counter totals excluding the coordinator-only ``net.`` namespace."""
    return {
        (entry["name"], tuple(sorted(entry["labels"].items()))): entry["value"]
        for entry in telemetry.metrics.dump()
        if entry["type"] == "counter" and not entry["name"].startswith("net.")
    }


def _steady(n=16, rounds=96, seed=0, deadline=64):
    return get_builder("steady")(
        n=n, rounds=rounds, seed=seed, deadline=deadline,
        params=CongosParams.preset("lean"),
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_sharded_stream_matches_inproc_modulo_worker_label(workers):
    scenario = _steady()
    _, inproc_events, inproc_telemetry, _ = _traced(scenario)
    _, sharded_events, sharded_telemetry, _ = _traced(
        _sharded(scenario, workers)
    )
    assert inproc_events, "scenario produced no events"
    assert _canonical(sharded_events) == _canonical(inproc_events)
    # Every merged event names its origin shard; inproc events never do.
    assert all("worker" in event.fields for event in sharded_events)
    assert all("worker" not in event.fields for event in inproc_events)
    assert _protocol_counters(sharded_telemetry) == _protocol_counters(
        inproc_telemetry
    )


def test_chaos_fault_events_match_inproc():
    scenario = get_builder("chaos")(
        n=16, rounds=60, seed=3, deadline=64,
        drop=0.1, delay=0.1, duplicate=0.05, reorder=0.1,
        params=CongosParams.preset("lean"),
    )
    _, inproc_events, inproc_telemetry, _ = _traced(scenario)
    _, sharded_events, sharded_telemetry, _ = _traced(_sharded(scenario, 3))
    assert any(event.kind.startswith("fault_") for event in sharded_events)
    assert _canonical(sharded_events) == _canonical(inproc_events)
    assert _protocol_counters(sharded_telemetry) == _protocol_counters(
        inproc_telemetry
    )


def test_merged_stream_is_deterministic():
    # Byte-for-byte: the merge key (round, worker, seq) is a total
    # order, so two identical runs serialize identical streams in
    # identical order — not just canonically equal ones.
    scenario = _sharded(_steady(rounds=64), 2)
    _, first, _, _ = _traced(scenario)
    _, second, _, _ = _traced(scenario)
    assert [e.to_json() for e in first] == [e.to_json() for e in second]


def test_timeline_reconstruction_matches_inproc():
    # RumorTimeline consumes the merged stream unchanged (it ignores the
    # unknown ``worker`` field), so lifecycle reconstruction — the trace
    # CLI's backbone — must agree with the inproc backend exactly.
    scenario = _steady()
    _, _, _, inproc_timeline = _traced(scenario, subscribe_timeline=True)
    _, _, _, sharded_timeline = _traced(
        _sharded(scenario, 2), subscribe_timeline=True
    )
    inproc_records = inproc_timeline.lifecycles()
    sharded_records = sharded_timeline.lifecycles()
    assert inproc_records, "no rumor lifecycles reconstructed"
    assert len(sharded_records) == len(inproc_records)
    for ours, theirs in zip(sharded_records, inproc_records):
        assert ours.rid == theirs.rid
        assert ours.inject_round == theirs.inject_round
        assert ours.delivered_count == theirs.delivered_count
        assert sorted(ours.latencies()) == sorted(theirs.latencies())


def test_no_rumor_bytes_in_telemetry_frames(monkeypatch):
    # The leak-safety pin: rumor payloads DO cross the wire in protocol
    # frames (injections ride round frames, fragments ride batches) but
    # must never appear in a telemetry or metrics frame — json_safe
    # reduces bytes to "<N bytes>" worker-side, before encode.
    marker = b"TOP-SECRET-MARKER"
    captured = []
    original_send = TcpConnection.send
    original_recv = TcpConnection.recv

    def tee_send(self, frame):
        captured.append(frame)
        original_send(self, frame)

    def tee_recv(self):
        frame = original_recv(self)
        captured.append(frame)
        return frame

    # Only the coordinator side is patched (workers are separate spawned
    # processes), which sees every frame in both directions.
    monkeypatch.setattr(TcpConnection, "send", tee_send)
    monkeypatch.setattr(TcpConnection, "recv", tee_recv)

    def workload(rng):
        return ScriptedWorkload(
            [
                (4, 0, 16, (5, 6), marker + b"-0"),
                (6, 2, 16, (1, 7), marker + b"-1"),
            ],
            rng,
        )

    scenario = Scenario(
        name="marker-leak",
        n=8,
        rounds=28,
        seed=0,
        params=CongosParams.preset("lean"),
        workload_factory=workload,
        backend="sharded",
        net={"workers": 2},
    )
    result, events, _, _ = _traced(scenario)
    assert result.rumors_injected == 2
    assert events

    telemetry_frames = 0
    marker_in_protocol_frames = 0
    for frame in captured:
        kind, _ = decode_frame(frame)
        if kind in ("telemetry", "metrics"):
            telemetry_frames += 1
            assert marker not in frame, "rumor bytes leaked into a {} frame".format(kind)
        elif marker in frame:
            marker_in_protocol_frames += 1
    assert telemetry_frames > 0, "no telemetry frames crossed the wire"
    # Positive control: the tee does see the payload in protocol frames,
    # so a clean telemetry pass is meaningful.
    assert marker_in_protocol_frames > 0


def test_default_runs_send_no_telemetry_frames(monkeypatch):
    # The bit-identical guarantee for null-telemetry runs is structural:
    # with telemetry off the wire carries exactly the pre-telemetry
    # frame sequence — no telemetry/metrics frames at all.
    captured = []
    original_recv = TcpConnection.recv

    def tee_recv(self):
        frame = original_recv(self)
        captured.append(frame)
        return frame

    monkeypatch.setattr(TcpConnection, "recv", tee_recv)
    run_congos_scenario(_sharded(_steady(n=8, rounds=24, deadline=16), 2))
    kinds = {decode_frame(frame)[0] for frame in captured}
    assert "telemetry" not in kinds
    assert "metrics" not in kinds
    assert {"hello", "sent", "events", "final"} <= kinds


def test_coordinator_net_metrics_are_populated():
    result, _, telemetry, _ = _traced(_sharded(_steady(rounds=48), 2))
    engine = result.engine
    phases = engine.phase_summary()
    assert sorted(phases) == ["barrier", "merge", "route", "ship"]
    for summary in phases.values():
        assert summary["count"] == 48
        assert summary["p50"] is not None
        assert summary["p99"] >= summary["p50"] >= 0.0
    pairs = engine.worker_pair_summary()
    assert pairs, "no cross-shard batches recorded"
    for counts in pairs.values():
        assert counts["frames"] > 0
        assert counts["bytes"] > 0
    # Worker wait/queue instrumentation and transport totals fold into
    # the engine registry, and the traced registry sees all of it too.
    names = {entry["name"] for entry in engine.metrics.dump()}
    assert {
        "net.round.phase_seconds",
        "net.worker.barrier_wait_seconds",
        "net.worker.ship_wait_seconds",
        "net.worker.queue_depth",
        "net.worker.queue_peak",
        "net.transport.frames",
        "net.transport.bytes",
        "net.cross.frames",
        "net.cross.bytes",
    } <= names
    traced_names = {entry["name"] for entry in telemetry.metrics.dump()}
    assert names <= traced_names
