"""Tests for repro.obs.timeline: rumor-lifecycle reconstruction.

Unit tests drive the timeline with synthetic events; the integration
test runs a real (small) CONGOS scenario and reconstructs a complete
lifecycle from the instrumentation stream.
"""

import json

from repro.core.config import CongosParams
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario
from repro.obs.instrument import Telemetry
from repro.obs.sink import CollectSink
from repro.obs.timeline import RumorTimeline

from conftest import mk_rumor


def feed(timeline, *events):
    """events: (kind, round_no, fields) triples via a live Telemetry."""
    telemetry = Telemetry()
    telemetry.subscribe(timeline)
    for kind, round_no, fields in events:
        telemetry.emit(kind, round_no, **fields)


class TestTimelineUnit:
    def test_inject_then_deliver_builds_one_record(self):
        timeline = RumorTimeline()
        feed(
            timeline,
            ("rumor_inject", 5, {"rid": "r0:0", "src": 0, "dest": [1, 2], "deadline": 64, "dline": 64}),
            ("rumor_split", 5, {"rid": "r0:0", "partitions": 2, "fragments": 6}),
            ("gossip_inject", 5, {"rid": "r0:0", "pid": 0}),
            ("rumor_deliver", 12, {"rid": "r0:0", "pid": 1, "path": "pipeline"}),
            ("rumor_deliver", 14, {"rid": "r0:0", "pid": 2, "path": "pipeline"}),
            ("rumor_confirm", 15, {"rid": "r0:0", "pid": 0}),
        )
        assert len(timeline) == 1
        record = timeline.lifecycle("r0:0")
        assert record.inject_round == 5
        assert record.src == 0
        assert record.dest == [1, 2]
        assert record.fragments == 6
        assert record.first_gossip_round == 5
        assert record.deliveries[1] == {"round": 12, "path": "pipeline", "latency": 7}
        assert record.latencies() == [7, 9]
        assert record.confirmed_round == 15
        assert record.complete

    def test_incomplete_until_all_destinations_served(self):
        timeline = RumorTimeline()
        feed(
            timeline,
            ("rumor_inject", 0, {"rid": "r", "src": 0, "dest": [1, 2]}),
            ("rumor_deliver", 3, {"rid": "r", "pid": 1, "path": "pipeline"}),
        )
        record = timeline.lifecycle("r")
        assert record.delivered_count == 1
        assert not record.complete

    def test_duplicate_delivery_keeps_first(self):
        timeline = RumorTimeline()
        feed(
            timeline,
            ("rumor_inject", 0, {"rid": "r", "src": 0, "dest": [1]}),
            ("rumor_deliver", 3, {"rid": "r", "pid": 1, "path": "pipeline"}),
            ("rumor_deliver", 9, {"rid": "r", "pid": 1, "path": "shoot"}),
        )
        assert timeline.lifecycle("r").deliveries[1]["round"] == 3

    def test_proxy_and_gd_round_spans(self):
        timeline = RumorTimeline()
        feed(
            timeline,
            ("proxy_request", 8, {"rids": ["r"], "pid": 1}),
            ("proxy_crossing", 6, {"rids": ["r"], "pid": 2}),
            ("gd_send", 10, {"rids": ["r"], "pid": 3}),
            ("gd_send", 13, {"rids": ["r"], "pid": 3}),
        )
        record = timeline.lifecycle("r")
        assert record.first_proxy_round == 6
        assert record.last_proxy_round == 8
        assert record.proxy_requests == 1
        assert record.gd_sends == 2
        assert (record.first_gd_round, record.last_gd_round) == (10, 13)

    def test_engine_hook_backfills_only(self):
        timeline = RumorTimeline()
        rumor = mk_rumor(src=3, seq=1, dest=(0, 1))
        timeline.on_inject(4, 3, rumor)
        record = timeline.lifecycle(rumor.rid)
        assert record is not None
        assert record.inject_round == 4 and record.src == 3
        assert record.dest == [0, 1]
        # A later (authoritative) protocol event must not double-count.
        feed(timeline, ("rumor_inject", 4, {"rid": str(rumor.rid), "src": 3, "dline": 64}))
        assert len(timeline) == 1
        assert timeline.lifecycle(rumor.rid).dline == 64

    def test_unknown_kinds_ignored(self):
        timeline = RumorTimeline()
        feed(timeline, ("round_heartbeat", 1, {"pid": 0}))
        assert len(timeline) == 0
        assert timeline.events_seen == 0

    def test_lifecycles_ordered_by_inject_round(self):
        timeline = RumorTimeline()
        feed(
            timeline,
            ("rumor_inject", 9, {"rid": "late", "src": 0}),
            ("rumor_inject", 2, {"rid": "early", "src": 1}),
        )
        assert [r.rid for r in timeline.lifecycles()] == ["early", "late"]

    def test_replay_unknown_rumor(self):
        assert RumorTimeline().replay("ghost") == [
            "rumor 'ghost': no events observed"
        ]

    def test_summary_counts(self):
        timeline = RumorTimeline()
        feed(
            timeline,
            ("rumor_inject", 0, {"rid": "r", "src": 0, "dest": [1]}),
            ("rumor_deliver", 4, {"rid": "r", "pid": 1, "path": "pipeline"}),
            ("rumor_confirm", 5, {"rid": "r", "pid": 0}),
        )
        summary = timeline.summary()
        assert summary["rumors"] == 1
        assert summary["complete"] == 1
        assert summary["confirmed"] == 1
        assert summary["deliveries"] == 1
        assert summary["max_latency"] == 4


class TestTimelineIntegration:
    def test_reconstructs_full_lifecycle_from_a_real_run(self):
        scenario = steady_scenario(
            n=8, rounds=200, seed=0, deadline=64, params=CongosParams.preset("lean")
        )
        timeline = RumorTimeline()
        telemetry = Telemetry()
        telemetry.subscribe(timeline)
        result = run_congos_scenario(
            scenario, observers=[timeline], telemetry=telemetry
        )
        assert result.qod.satisfied
        assert len(timeline) > 0
        complete = [r for r in timeline.lifecycles() if r.complete]
        assert complete, "no rumor completed its lifecycle"
        record = complete[0]
        # The pipeline stages must all be visible in the reconstruction.
        assert record.inject_round is not None
        assert record.fragments > 0
        assert record.first_gossip_round is not None
        assert record.delivered_count == len(record.dest)
        assert all(lat >= 0 for lat in record.latencies())
        # Replay narrates the same record, round-ordered.
        lines = timeline.replay(record.rid)
        assert any("injected" in line for line in lines)
        assert any("delivered" in line for line in lines)
        rounds = [int(line[1:6]) for line in lines]  # "r{:>5}  ..." prefix
        assert rounds == sorted(rounds)

    def test_export_emits_json_safe_lifecycle_events(self):
        scenario = steady_scenario(
            n=8, rounds=120, seed=1, deadline=64, params=CongosParams.preset("lean")
        )
        timeline = RumorTimeline()
        telemetry = Telemetry()
        telemetry.subscribe(timeline)
        run_congos_scenario(scenario, observers=[timeline], telemetry=telemetry)
        sink = CollectSink()
        exported = timeline.export(sink)
        assert exported == len(timeline)
        for event in sink.events:
            assert event.kind == "rumor_lifecycle"
            parsed = json.loads(event.to_json())
            assert parsed["rid"]
            assert "complete" in parsed
