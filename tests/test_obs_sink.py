"""Tests for repro.obs.sink and the Telemetry fan-out."""

import io
import json

import pytest

from repro.obs.events import ObsEvent
from repro.obs.instrument import NULL_TELEMETRY, Telemetry
from repro.obs.sink import CollectSink, JsonlSink, SequenceSink


class FlushCountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        super().flush()


def mk_event(round_no=0, **fields):
    return ObsEvent.make("test_event", round_no, **fields)


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlSink(path=path) as sink:
            sink.write(mk_event(1, pid=0))
            sink.write(mk_event(2, pid=1))
            assert sink.emitted == 2
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["round"] == 1
        assert json.loads(lines[1])["pid"] == 1

    def test_stream_variant_left_open(self):
        stream = io.StringIO()
        sink = JsonlSink(stream=stream)
        sink.write(mk_event())
        sink.close()
        assert not stream.closed  # caller owns the stream
        assert json.loads(stream.getvalue())["kind"] == "test_event"

    def test_write_after_close_rejected(self):
        sink = JsonlSink(stream=io.StringIO())
        sink.close()
        with pytest.raises(ValueError):
            sink.write(mk_event())

    def test_exactly_one_target_required(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink()
        with pytest.raises(ValueError):
            JsonlSink(path=str(tmp_path / "x"), stream=io.StringIO())

    def test_close_flushes_non_owned_streams(self):
        stream = FlushCountingStream()
        sink = JsonlSink(stream=stream)
        sink.write(mk_event())
        assert stream.flushes == 0
        sink.close()
        assert stream.flushes == 1
        assert not stream.closed

    def test_context_manager_closes_on_exit(self):
        stream = FlushCountingStream()
        with JsonlSink(stream=stream) as sink:
            sink.write(mk_event())
        assert stream.flushes == 1
        with pytest.raises(ValueError):
            sink.write(mk_event())

    def test_flush_every_forces_periodic_flushes(self):
        stream = FlushCountingStream()
        sink = JsonlSink(stream=stream, flush_every=2)
        for round_no in range(5):
            sink.write(mk_event(round_no))
        # Flushed after events 2 and 4; the tail waits for close().
        assert stream.flushes == 2
        sink.close()
        assert stream.flushes == 3

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError):
            JsonlSink(stream=io.StringIO(), flush_every=0)


class TestSequenceSink:
    def test_seq_is_monotonic_across_drains(self):
        sink = SequenceSink()
        sink.write(mk_event(0))
        sink.write(mk_event(0))
        first = sink.drain()
        assert [seq for seq, _ in first] == [0, 1]
        assert len(sink) == 0
        # The sequence never resets — (round, seq) stays a total order
        # over the emitter's whole stream, drain after drain.
        sink.write(mk_event(1))
        second = sink.drain()
        assert [seq for seq, _ in second] == [2]
        assert sink.seen == 3
        assert sink.drain() == []


class TestTelemetryFanOut:
    def test_emit_reaches_sinks_and_subscribers(self):
        collect = CollectSink()
        seen = []

        class Subscriber:
            def on_event(self, event):
                seen.append(event.kind)

        telemetry = Telemetry(sinks=[collect])
        telemetry.subscribe(Subscriber())
        telemetry.emit("rumor_inject", 3, rid="r0:0")
        assert telemetry.enabled
        assert telemetry.emitted == 1
        assert [event.kind for event in collect.events] == ["rumor_inject"]
        assert seen == ["rumor_inject"]

    def test_null_telemetry_is_inert(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.emit("x", 0, pid=1) is None
        with pytest.raises(ValueError):
            NULL_TELEMETRY.add_sink(CollectSink())
        with pytest.raises(ValueError):
            NULL_TELEMETRY.subscribe(object())

    def test_close_closes_closable_sinks(self):
        stream = io.StringIO()
        jsonl = JsonlSink(stream=stream)
        telemetry = Telemetry(sinks=[jsonl, CollectSink()])
        telemetry.close()  # CollectSink has no close(); must not raise
        with pytest.raises(ValueError):
            jsonl.write(mk_event())
