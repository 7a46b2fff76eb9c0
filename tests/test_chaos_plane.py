"""Tests for repro.chaos.plane and its integration with the network:
fault semantics, leak-safe attribution, and the untouched default path."""

import dataclasses
from collections import Counter

import pytest

from repro.chaos.plane import ChaosFaultPlane, message_rids, pipeline_stage
from repro.chaos.spec import FaultSpec
from repro.exec.results import RunRecord
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import chaos_scenario
from repro.obs.instrument import Telemetry
from repro.obs.sink import CollectSink
from repro.obs.timeline import RumorTimeline
from repro.sim.network import Network

from conftest import mk_message, mk_rumor


def route(network, round_no, outgoing, alive=None):
    alive = alive if alive is not None else set(range(network.n))
    return network.route(
        round_no, outgoing, alive_after_round=alive, boundary_pids=set()
    )


def plane_network(spec, n=8, seed=7):
    plane = ChaosFaultPlane(seed, spec, n)
    return Network(n, fault_plane=plane), plane


class TestMessageRids:
    def test_rumor_payload_attributes_by_rid(self):
        rumor = mk_rumor(src=3, seq=5)
        message = mk_message(payload=rumor)
        assert str(rumor.rid) in message_rids(message)

    def test_payload_bytes_never_leak(self):
        rumor = mk_rumor(data=b"super-secret-z")
        rids = message_rids(mk_message(payload=rumor))
        assert all("super-secret" not in rid for rid in rids)

    def test_opaque_payload_yields_nothing(self):
        assert message_rids(mk_message(payload=b"raw-bytes")) == []


class TestAdmitSemantics:
    def test_drop_everything(self):
        network, plane = plane_network(FaultSpec(drop=1.0))
        outcome = route(network, 0, [mk_message(src=0, dst=1)])
        assert outcome.delivered == []
        assert len(outcome.lost_to_fault) == 1
        assert plane.counts["drop"] == 1

    def test_delay_matures_through_release(self):
        spec = FaultSpec(delay=1.0, max_delay=1)
        network, plane = plane_network(spec)
        message = mk_message(src=0, dst=1)
        held = route(network, 0, [message])
        assert held.delivered == []
        assert held.delayed == [message]
        matured = route(network, 1, [])
        assert matured.delivered == [message]
        assert matured.inboxes[1] == [message]

    def test_duplicate_delivers_now_and_later(self):
        spec = FaultSpec(duplicate=1.0)
        network, plane = plane_network(spec)
        message = mk_message(src=0, dst=1)
        now = route(network, 0, [message])
        assert now.delivered == [message]
        assert now.duplicated == [message]
        later = route(network, 1, [])
        assert later.delivered == [message]
        assert plane.counts["duplicate"] == 1

    def test_matured_copy_to_crashed_dst_is_late_loss(self):
        spec = FaultSpec(delay=1.0, max_delay=1)
        network, plane = plane_network(spec)
        message = mk_message(src=0, dst=1)
        route(network, 0, [message])
        matured = route(network, 1, [], alive=set(range(8)) - {1})
        assert matured.delivered == []
        assert matured.lost_to_crash == [message]
        assert plane.counts["late_loss"] == 1

    def test_partition_severs_crossing_messages_only(self):
        spec = FaultSpec(partition_period=4, partition_width=1)
        network, plane = plane_network(spec)
        cut = plane.schedule.severed(0)
        inside = sorted(cut)
        outside = sorted(set(range(8)) - cut)
        crossing = mk_message(src=inside[0], dst=outside[0])
        internal = mk_message(src=inside[0], dst=inside[1])
        outcome = route(network, 0, [crossing, internal])
        assert crossing in outcome.lost_to_fault
        assert internal in outcome.delivered
        assert plane.counts["sever"] == 1
        # The storm is over at the next phase: everything delivers.
        calm = route(network, 1, [mk_message(src=inside[0], dst=outside[0])])
        assert len(calm.delivered) == 1

    def test_counts_summary_has_stable_keys(self):
        _, plane = plane_network(FaultSpec(drop=0.5))
        assert sorted(plane.counts_summary()) == sorted(
            ["drop", "delay", "duplicate", "sever", "reorder", "late_loss"]
        )


class TestFateKeys:
    def test_copy_counter_past_the_key_width_raises(self):
        network, plane = plane_network(FaultSpec(drop=0.5))
        plane._copy_limit = 2  # stand-in for the 2**52 a real n leaves
        with pytest.raises(ValueError, match="fate keys would collide"):
            route(network, 0, [mk_message(src=0, dst=1) for _ in range(3)])

    def test_copies_of_a_pair_count_per_round(self):
        network, plane = plane_network(FaultSpec(drop=0.5))
        plane._copy_limit = 2
        for round_no in range(3):
            route(network, round_no, [mk_message(src=0, dst=1)] * 2)

    def test_chaos_keyed_is_ignored(self):
        scenario = chaos_scenario(
            8, 60, seed=3, deadline=16, drop=0.1, delay=0.1, duplicate=0.05,
            reorder=0.2,
        )
        records = [
            RunRecord.from_result(
                run_congos_scenario(dataclasses.replace(scenario, chaos_keyed=keyed))
            ).without_profile()
            for keyed in (False, True)
        ]
        assert records[0] == records[1]


class TestReorder:
    def test_shuffle_is_deterministic(self):
        spec = FaultSpec(reorder=1.0)
        messages = [mk_message(src=s, dst=1) for s in range(5)]
        orders = []
        for _ in range(2):
            network, _ = plane_network(spec)
            outcome = route(network, 0, list(messages))
            orders.append([m.src for m in outcome.inboxes[1]])
        assert orders[0] == orders[1]
        assert sorted(orders[0]) == [0, 1, 2, 3, 4]

    def test_single_message_inboxes_untouched(self):
        network, plane = plane_network(FaultSpec(reorder=1.0))
        route(network, 0, [mk_message(src=0, dst=1)])
        assert plane.counts["reorder"] == 0


class TestDefaultPathUntouched:
    def test_no_plane_means_no_chaos_fields(self):
        network = Network(8)
        assert network.fault_plane is None
        outcome = route(network, 0, [mk_message(src=0, dst=1)])
        assert outcome.lost_to_fault == []
        assert outcome.delayed == []
        assert outcome.duplicated == []
        assert len(outcome.delivered) == 1

    def test_null_spec_scenario_installs_no_plane(self):
        scenario = chaos_scenario(8, 40, seed=0, deadline=16)
        assert scenario.fault_spec() is None
        result = run_congos_scenario(scenario)
        assert result.fault_plane is None
        assert result.chaos_summary() is None
        assert "chaos" not in result.summary()


class TestTelemetryAndTimeline:
    def run_traced(self, **chaos_kwargs):
        timeline = RumorTimeline()
        telemetry = Telemetry()
        telemetry.subscribe(timeline)
        scenario = chaos_scenario(8, 60, seed=3, deadline=16, **chaos_kwargs)
        result = run_congos_scenario(
            scenario, observers=[timeline], telemetry=telemetry
        )
        return result, timeline

    def test_faults_attributed_to_rumor_lifecycles(self):
        result, timeline = self.run_traced(drop=0.5)
        assert result.fault_plane.counts["drop"] > 0
        faulted = [rec for rec in timeline.lifecycles() if rec.faults]
        assert faulted
        entry = faulted[0].faults[0]
        assert entry["kind"] == "drop"
        assert isinstance(entry["src"], int)
        replay = "\n".join(timeline.replay(faulted[0].rid))
        assert "FAULT drop" in replay

    def test_fault_entries_survive_to_dict(self):
        _, timeline = self.run_traced(drop=0.5)
        faulted = [rec for rec in timeline.lifecycles() if rec.faults]
        payload = faulted[0].to_dict()
        assert payload["faults"][0]["kind"] == "drop"
        # json_safe output: no raw bytes anywhere in the fault entries
        assert all(
            not isinstance(value, bytes)
            for entry in payload["faults"]
            for value in entry.values()
        )

    def test_every_fault_is_one_event(self):
        # The (kind, stage) counts and the fault_<kind> stream are the
        # plane's two records of a fault: per kind they must agree, and
        # each per-message event carries its full attribution.
        sink = CollectSink()
        scenario = chaos_scenario(
            8, 120, seed=3, drop=0.1, delay=0.2, duplicate=0.05, reorder=0.3,
            partition_period=20, partition_width=5, churn=0.02,
        )
        result = run_congos_scenario(scenario, telemetry=Telemetry(sinks=[sink]))
        counts = result.fault_plane.counts_summary()
        assert all(counts.values()), counts  # all six kinds exercised
        emitted = Counter(e.kind for e in sink.events if e.kind.startswith("fault_"))
        assert {kind: emitted["fault_" + kind] for kind in counts} == counts
        assert sum(emitted.values()) == sum(counts.values())
        for event in sink.events:
            if event.kind.startswith("fault_") and event.kind != "fault_reorder":
                assert {"src", "dst", "service", "detail", "rids"} <= set(event.fields)

    def test_chaos_runs_stay_confidential(self):
        result, _ = self.run_traced(drop=0.3, delay=0.2, duplicate=0.1)
        assert result.confidentiality.is_clean()


class TestStageAttribution:
    def test_pipeline_stage_mapping(self):
        from repro.sim.messages import ServiceTags

        assert pipeline_stage(ServiceTags.PROXY) == "proxy"
        assert pipeline_stage(ServiceTags.GROUP_DISTRIBUTION) == "gd"
        assert pipeline_stage(ServiceTags.GROUP_GOSSIP) == "gossip"
        assert pipeline_stage(ServiceTags.ALL_GOSSIP) == "gossip"
        assert pipeline_stage(ServiceTags.CONFIDENTIAL) == "direct"
        assert pipeline_stage(ServiceTags.DIRECT_ACK) == "direct"
        assert pipeline_stage("mystery") == "other"

    def test_stage_counts_accumulate_per_service(self):
        from repro.sim.messages import ServiceTags

        network, plane = plane_network(FaultSpec(drop=1.0))
        route(
            network,
            0,
            [
                mk_message(src=0, dst=1, service=ServiceTags.PROXY),
                mk_message(src=0, dst=2, service=ServiceTags.PROXY),
                mk_message(src=0, dst=3, service=ServiceTags.CONFIDENTIAL),
            ],
        )
        assert plane.stage_counts["proxy"]["drop"] == 2
        assert plane.stage_counts["direct"]["drop"] == 1

    def test_counts_by_service_is_sorted_and_plain(self):
        from repro.sim.messages import ServiceTags

        network, plane = plane_network(FaultSpec(drop=1.0))
        route(
            network,
            0,
            [
                mk_message(src=0, dst=1, service=ServiceTags.GROUP_GOSSIP),
                mk_message(src=0, dst=2, service=ServiceTags.PROXY),
            ],
        )
        summary = plane.counts_by_service()
        assert list(summary) == sorted(summary)
        assert summary == {"gossip": {"drop": 1}, "proxy": {"drop": 1}}

    def test_soak_run_surfaces_stage_summary(self):
        scenario = chaos_scenario(8, 60, seed=3, deadline=16, drop=0.4)
        result = run_congos_scenario(scenario)
        by_stage = result.chaos_stage_summary()
        assert by_stage  # some stage got hit at this intensity
        assert result.summary()["chaos_by_stage"] == by_stage
        total_by_stage = sum(
            count for kinds in by_stage.values() for count in kinds.values()
        )
        # reorder is per-inbox (no single service), so it is the only
        # kind allowed to differ between the two views
        total_flat = sum(
            count
            for kind, count in result.fault_plane.counts.items()
            if kind != "reorder"
        )
        assert total_by_stage == total_flat

    def test_stage_metrics_emitted_when_telemetry_on(self):
        from repro.sim.messages import ServiceTags

        telemetry = Telemetry()
        plane = ChaosFaultPlane(7, FaultSpec(drop=1.0), 8, telemetry=telemetry)
        network = Network(8, fault_plane=plane)
        route(network, 0, [mk_message(src=0, dst=1, service=ServiceTags.PROXY)])
        sample = telemetry.metrics.counter(
            "chaos.faults", kind="drop", stage="proxy"
        )
        assert sample.value == 1
