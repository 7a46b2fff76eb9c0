"""Tests for repro.chaos.targeted: budgeted rumor-aware fault policies.

Covers the spec/ledger/policy units, the composed fault plane's
semantics (leak-safe observation, exact budget accounting, seed-keyed
delay streams), scenario-level integration with RunRecord, --jobs
invariance on the exec pool, targeted telemetry attribution, and the
E19 harness helpers.
"""

import pytest

from repro.analysis.sweeps import sweep_congos
from repro.chaos.plane import ChaosFaultPlane, FaultEvent
from repro.chaos.spec import FaultSpec
from repro.chaos.targeted import (
    BudgetLedger,
    CollectorStarver,
    DeadlineChaser,
    FallbackHerder,
    POLICIES,
    ProxySuppressor,
    TargetedFaultPlane,
    TargetedSpec,
    get_policy,
    policy_names,
)
from repro.chaos.targeted_soak import (
    TARGETED_SOAK,
    _ledger_ok,
    targeted_cells,
    targeted_payload,
)
from repro.exec.results import RunRecord
from repro.harness.cli import build_parser
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import targeted_scenario
from repro.obs import Telemetry
from repro.sim.messages import ServiceTags
from repro.sim.network import Network

from conftest import mk_message, mk_rumor


def route(network, round_no, outgoing, alive=None):
    alive = alive if alive is not None else set(range(network.n))
    return network.route(
        round_no, outgoing, alive_after_round=alive, boundary_pids=set()
    )


def targeted_plane(tspec, spec=None, n=8, seed=7, **kwargs):
    plane = TargetedFaultPlane(
        seed, spec if spec is not None else FaultSpec(), tspec, n, **kwargs
    )
    return Network(n, fault_plane=plane), plane


def rumor_message(src=0, dst=1, rid_src=0, rid_seq=0, service=ServiceTags.PROXY):
    return mk_message(
        src=src, dst=dst, service=service, payload=mk_rumor(src=rid_src, seq=rid_seq)
    )


class TestTargetedSpec:
    def test_defaults_valid_and_round_trip(self):
        spec = TargetedSpec()
        assert TargetedSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown targeted policy"):
            TargetedSpec(policy="omniscient")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="drop"):
            TargetedSpec(kind="corrupt")

    @pytest.mark.parametrize("field", ["per_round", "total"])
    def test_budgets_positive(self, field):
        with pytest.raises(ValueError, match="budgets"):
            TargetedSpec(**{field: 0})

    def test_hold_and_window_positive(self):
        with pytest.raises(ValueError, match="hold"):
            TargetedSpec(hold=0)
        with pytest.raises(ValueError, match="window"):
            TargetedSpec(window=0)

    def test_stop_after_start(self):
        with pytest.raises(ValueError, match="stop_round"):
            TargetedSpec(start_round=10, stop_round=10)

    def test_active_window(self):
        spec = TargetedSpec(start_round=5, stop_round=10)
        assert not spec.active_in(4)
        assert spec.active_in(5)
        assert spec.active_in(9)
        assert not spec.active_in(10)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown TargetedSpec fields"):
            TargetedSpec.from_dict({"policy": "proxy-suppressor", "omni": 1})

    def test_registry(self):
        assert set(policy_names()) == set(POLICIES)
        assert get_policy("proxy-suppressor") is ProxySuppressor
        with pytest.raises(KeyError, match="registered"):
            get_policy("omniscient")


class TestBudgetLedger:
    def test_per_round_cap_is_per_destination(self):
        ledger = BudgetLedger(per_round=2, total=100)
        ledger.begin_round(0)
        assert ledger.try_spend(1, "drop")
        assert ledger.try_spend(1, "drop")
        assert not ledger.try_spend(1, "drop")  # dst 1 capped this round
        assert ledger.try_spend(2, "drop")  # dst 2 unaffected
        assert (ledger.spent, ledger.denied) == (3, 1)

    def test_round_reset_restores_per_round_budget(self):
        ledger = BudgetLedger(per_round=1, total=100)
        ledger.begin_round(0)
        assert ledger.try_spend(1, "drop")
        assert not ledger.try_spend(1, "drop")
        ledger.begin_round(1)
        assert ledger.try_spend(1, "drop")

    def test_total_cap_survives_round_resets(self):
        ledger = BudgetLedger(per_round=10, total=3)
        for round_no in range(4):
            ledger.begin_round(round_no)
            ledger.try_spend(5, "drop")
        assert ledger.spent == 3
        assert ledger.denied == 1
        assert ledger.max_dst_spend == 3

    def test_as_dict_accounting_identity(self):
        ledger = BudgetLedger(per_round=2, total=8)
        ledger.begin_round(0)
        ledger.try_spend(1, "drop")
        ledger.try_spend(2, "delay")
        data = ledger.as_dict()
        assert data["spent"] == 2
        assert data["by_kind"] == {"delay": 1, "drop": 1}
        assert sum(data["by_kind"].values()) == data["spent"]
        assert data["destinations"] == 2
        assert data["max_round_spend"] == 1

    def test_merge_sums_and_maxes(self):
        # Shard workers own disjoint destinations, so the fold is exact.
        a = BudgetLedger(per_round=2, total=8)
        a.begin_round(0)
        a.try_spend(1, "drop")
        a.try_spend(1, "drop")
        b = BudgetLedger(per_round=2, total=8)
        b.begin_round(0)
        b.try_spend(5, "delay")
        b.try_spend(6, "drop")
        b.try_spend(6, "drop")
        b.try_spend(6, "drop")  # denied
        a.merge(b.as_dict())
        merged = a.as_dict()
        assert merged["spent"] == 5
        assert merged["denied"] == 1
        assert merged["by_kind"] == {"delay": 1, "drop": 4}
        assert merged["max_round_spend"] == 2
        assert merged["destinations"] == 3


class TestPolicyTracking:
    SPEC = TargetedSpec()

    def test_tracks_first_injection_only_while_live(self):
        policy = ProxySuppressor(self.SPEC, seed=1, n=8)
        policy.observe_injection(0, 3, 0, deadline=10)
        policy.observe_injection(2, 4, 0, deadline=10)  # still chasing r3:0
        assert policy.tracked == "r3:0"
        assert policy.tracked_rids == ["r3:0"]

    def test_retargets_after_expiry(self):
        policy = ProxySuppressor(self.SPEC, seed=1, n=8)
        policy.observe_injection(0, 3, 0, deadline=10)
        policy.observe_injection(11, 4, 1, deadline=10)  # r3:0 expired
        assert policy.tracked == "r4:1"
        assert policy.tracked_rids == ["r3:0", "r4:1"]

    def test_no_retarget_when_disabled(self):
        spec = TargetedSpec(retarget=False)
        policy = ProxySuppressor(spec, seed=1, n=8)
        policy.observe_injection(0, 3, 0, deadline=10)
        policy.observe_injection(11, 4, 1, deadline=10)
        assert policy.tracked == "r3:0"

    def test_track_src_filter(self):
        spec = TargetedSpec(track_src=5)
        policy = ProxySuppressor(spec, seed=1, n=8)
        policy.observe_injection(0, 3, 0, deadline=10)
        assert policy.tracked is None
        policy.observe_injection(1, 5, 0, deadline=10)
        assert policy.tracked == "r5:0"

    def test_blind_tracks_all_live_and_prunes_expired(self):
        spec = TargetedSpec(blind=True)
        policy = ProxySuppressor(spec, seed=1, n=8)
        policy.observe_injection(0, 1, 0, deadline=5)
        policy.observe_injection(2, 2, 0, deadline=20)
        assert set(policy.targets) == {"r1:0", "r2:0"}
        policy.begin_round(6)  # r1:0 expired at round 5
        assert set(policy.targets) == {"r2:0"}
        assert policy.targets_seen == 2


class TestPolicyWants:
    def wants(self, policy, round_no, service, rids):
        from repro.chaos.plane import pipeline_stage

        return policy.wants(
            round_no, 0, 1, service, pipeline_stage(service), rids
        )

    def test_proxy_suppressor_proxy_stage_only(self):
        policy = ProxySuppressor(TargetedSpec(), seed=1, n=8)
        policy.observe_injection(0, 3, 0, deadline=10)
        assert self.wants(policy, 1, ServiceTags.PROXY, ["r3:0"])
        assert not self.wants(policy, 1, ServiceTags.GROUP_GOSSIP, ["r3:0"])
        assert not self.wants(policy, 1, ServiceTags.PROXY, ["r9:9"])
        assert not self.wants(policy, 11, ServiceTags.PROXY, ["r3:0"])  # expired

    def test_collector_starver_gd_and_gossip(self):
        policy = CollectorStarver(
            TargetedSpec(policy="collector-starver"), seed=1, n=8
        )
        policy.observe_injection(0, 3, 0, deadline=10)
        assert self.wants(policy, 1, ServiceTags.GROUP_DISTRIBUTION, ["r3:0"])
        assert self.wants(policy, 1, ServiceTags.GROUP_GOSSIP, ["r3:0"])
        assert self.wants(policy, 1, ServiceTags.ALL_GOSSIP, ["r3:0"])
        assert not self.wants(policy, 1, ServiceTags.PROXY, ["r3:0"])

    def test_deadline_chaser_waits_out_grace_then_chases(self):
        spec = TargetedSpec(policy="deadline-chaser", window=4)
        policy = DeadlineChaser(spec, seed=1, n=8)
        policy.observe_injection(10, 3, 0, deadline=20)  # expiry 30
        assert not self.wants(policy, 13, ServiceTags.GROUP_GOSSIP, ["r3:0"])
        assert self.wants(policy, 14, ServiceTags.GROUP_GOSSIP, ["r3:0"])  # grace over
        assert self.wants(policy, 30, ServiceTags.CONFIDENTIAL, ["r3:0"])
        assert not self.wants(policy, 31, ServiceTags.GROUP_GOSSIP, ["r3:0"])

    def test_fallback_herder_acks_only(self):
        policy = FallbackHerder(
            TargetedSpec(policy="fallback-herder"), seed=1, n=8
        )
        policy.observe_injection(0, 3, 0, deadline=10)
        assert self.wants(policy, 1, ServiceTags.DIRECT_ACK, ["r3:0"])
        assert not self.wants(policy, 1, ServiceTags.CONFIDENTIAL, ["r3:0"])


class TestTargetedPlaneSemantics:
    def test_drops_tracked_rumor_messages_within_budget(self):
        tspec = TargetedSpec(per_round=1, total=10)
        network, plane = targeted_plane(tspec)
        plane.observe_injection(0, 0, 0, deadline=32)
        messages = [
            rumor_message(dst=1),
            rumor_message(dst=1),  # second to dst 1: over per-round cap
            rumor_message(dst=2),
        ]
        outcome = route(network, 0, messages)
        assert len(outcome.lost_to_fault) == 2
        assert len(outcome.delivered) == 1
        assert plane.ledger.spent == 2
        assert plane.ledger.denied == 1
        assert plane.targeted_counts == {"drop": 2}

    def test_untracked_rumors_pass_untouched(self):
        network, plane = targeted_plane(TargetedSpec())
        plane.observe_injection(0, 0, 0, deadline=32)
        outcome = route(network, 0, [rumor_message(rid_src=5, rid_seq=5)])
        assert len(outcome.delivered) == 1
        assert plane.ledger.spent == 0

    def test_no_injection_means_fully_inert(self):
        network, plane = targeted_plane(TargetedSpec())
        outcome = route(network, 0, [rumor_message()])
        assert len(outcome.delivered) == 1
        assert plane.ledger.spent == 0
        assert sum(plane.counts.values()) == 0

    def test_delay_kind_holds_bounded_and_seed_keyed(self):
        tspec = TargetedSpec(kind="delay", hold=3, per_round=10, total=100)
        network_a, plane_a = targeted_plane(tspec, seed=7)
        network_b, plane_b = targeted_plane(tspec, seed=7)
        for plane in (plane_a, plane_b):
            plane.observe_injection(0, 0, 0, deadline=32)
        route(network_a, 0, [rumor_message(dst=d) for d in range(1, 5)])
        route(network_b, 0, [rumor_message(dst=d) for d in range(1, 5)])
        events_a = [e for e in plane_a.events if e.kind == "delay"]
        events_b = [e for e in plane_b.events if e.kind == "delay"]
        assert events_a == events_b
        assert events_a
        assert all(1 <= e.detail <= 3 for e in events_a)
        assert plane_a.pending_count() == 4

    def test_oblivious_fallthrough_composes(self):
        # Untracked traffic still faces the oblivious schedule.
        tspec = TargetedSpec()
        network, plane = targeted_plane(tspec, spec=FaultSpec(drop=1.0))
        plane.observe_injection(0, 0, 0, deadline=32)
        outcome = route(
            network,
            0,
            [rumor_message(dst=1), rumor_message(dst=2, rid_src=9, rid_seq=9)],
        )
        assert outcome.delivered == []
        # One targeted drop (budget spent), one oblivious drop (free).
        assert plane.ledger.spent == 1
        assert plane.counts["drop"] == 2
        assert plane.targeted_counts == {"drop": 1}

    def test_targeted_window_gates_policy(self):
        tspec = TargetedSpec(start_round=5, stop_round=10)
        network, plane = targeted_plane(tspec)
        plane.observe_injection(0, 0, 0, deadline=32)
        assert len(route(network, 0, [rumor_message()]).delivered) == 1
        assert len(route(network, 5, [rumor_message()]).delivered) == 0
        assert len(route(network, 10, [rumor_message()]).delivered) == 1
        assert plane.ledger.spent == 1

    def test_merge_targeted_folds_counts_and_ledger(self):
        tspec = TargetedSpec()
        _, mirror = targeted_plane(tspec, keep_events=False)
        network, worker = targeted_plane(tspec)
        worker.observe_injection(0, 0, 0, deadline=32)
        route(network, 0, [rumor_message(dst=1), rumor_message(dst=2)])
        mirror.observe_injection(0, 0, 0, deadline=32)
        mirror.merge_targeted(worker.targeted_summary())
        merged = mirror.targeted_summary()
        assert merged["counts"] == {"drop": 2}
        assert merged["budget"]["spent"] == 2
        assert merged["tracked"] == ["r0:0"]


class TestFaultEventPolicy:
    def test_policy_key_only_when_set(self):
        plain = FaultEvent(1, "drop", 0, 1, ServiceTags.PROXY, 0)
        assert "policy" not in plain.to_dict()
        attributed = FaultEvent(
            1, "drop", 0, 1, ServiceTags.PROXY, 0, "proxy-suppressor"
        )
        assert attributed.to_dict()["policy"] == "proxy-suppressor"

    def test_targeted_events_carry_policy(self):
        network, plane = targeted_plane(TargetedSpec())
        plane.observe_injection(0, 0, 0, deadline=32)
        route(network, 0, [rumor_message()])
        (event,) = plane.events
        assert event.policy == "proxy-suppressor"
        assert event.to_dict()["policy"] == "proxy-suppressor"


class TestTargetedTelemetry:
    def test_faults_counter_carries_policy_label(self):
        telemetry = Telemetry()
        network, plane = targeted_plane(TargetedSpec(), telemetry=telemetry)
        plane.observe_injection(0, 0, 0, deadline=32)
        route(network, 0, [rumor_message()])
        counter = telemetry.metrics.counter(
            "chaos.faults", kind="drop", stage="proxy", policy="proxy-suppressor"
        )
        assert counter.value == 1

    def test_fault_events_carry_budget_spent(self):
        from repro.obs.sink import CollectSink

        sink = CollectSink()
        telemetry = Telemetry(sinks=[sink])
        network, plane = targeted_plane(TargetedSpec(), telemetry=telemetry)
        plane.observe_injection(0, 0, 0, deadline=32)
        route(network, 0, [rumor_message(dst=1), rumor_message(dst=2)])
        drops = [e for e in sink.events if e.kind == "fault_drop"]
        assert [e.fields["budget_spent"] for e in drops] == [1, 2]
        assert all(e.fields["policy"] == "proxy-suppressor" for e in drops)

    def test_pending_gauge_tracks_delay_queue(self):
        telemetry = Telemetry()
        spec = FaultSpec(delay=1.0, max_delay=4)
        plane = ChaosFaultPlane(7, spec, 8, telemetry=telemetry)
        network = Network(8, fault_plane=plane)
        route(network, 0, [mk_message(src=0, dst=1)])
        route(network, 1, [])  # begin_round(1) publishes the queue depth
        gauge = telemetry.metrics.gauge("chaos.pending")
        # Set before round 1 releases matured copies: exactly the one
        # message delayed in round 0.
        assert gauge.value == 1
        histogram = telemetry.metrics.histogram("chaos.pending_depth")
        assert histogram.count == 2

    def test_no_telemetry_no_metrics(self):
        network, plane = targeted_plane(TargetedSpec())
        plane.observe_injection(0, 0, 0, deadline=32)
        route(network, 0, [rumor_message()])  # must not raise


class TestTargetedScenario:
    def run_record(self, **kwargs):
        scenario = targeted_scenario(**kwargs)
        return RunRecord.from_result(run_congos_scenario(scenario))

    def test_aware_run_spends_budget_and_stays_clean(self):
        record = self.run_record(
            n=16, rounds=160, seed=0, policy="collector-starver"
        )
        targeted = record.targeted
        assert targeted["policy"] == "collector-starver"
        assert targeted["budget"]["spent"] > 0
        assert targeted["tracked"]
        assert targeted["tracked_admissible"] > 0
        assert record.clean
        assert _ledger_ok(record)

    def test_blind_run_tracks_no_single_rumor(self):
        record = self.run_record(
            n=16, rounds=160, seed=0, policy="collector-starver", blind=True
        )
        assert record.targeted["blind"] is True
        assert record.targeted["tracked"] == []
        assert record.targeted["budget"]["spent"] > 0
        assert _ledger_ok(record)

    def test_round_trip_preserves_targeted(self):
        record = self.run_record(n=16, rounds=96, seed=1)
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.targeted == record.targeted

    def test_plain_runs_have_empty_targeted(self):
        from repro.harness.scenarios import chaos_scenario

        scenario = chaos_scenario(16, 60, seed=0, drop=0.1)
        record = RunRecord.from_result(run_congos_scenario(scenario))
        assert record.targeted == {}
        # The key is absent from plain payloads — pre-targeted cached
        # records and golden digests are byte-identical — and from_dict
        # restores the empty default.
        payload = record.to_dict()
        assert "targeted" not in payload
        assert RunRecord.from_dict(payload) == record

    def test_deadline_chaser_spends_after_grace(self):
        record = self.run_record(
            n=16, rounds=160, seed=0, policy="deadline-chaser"
        )
        assert record.targeted["budget"]["spent"] > 0
        assert _ledger_ok(record)

    def test_fallback_herder_needs_hardened_acks(self):
        vacuous = self.run_record(
            n=16, rounds=160, seed=0, policy="fallback-herder"
        )
        assert vacuous.targeted["budget"]["spent"] == 0
        armed = self.run_record(
            n=16, rounds=160, seed=0, policy="fallback-herder", hardened=True
        )
        assert armed.targeted["budget"]["spent"] > 0
        assert armed.targeted["counts"]["drop"] > 0

    def test_same_seed_same_record(self):
        first = self.run_record(n=16, rounds=96, seed=3)
        second = self.run_record(n=16, rounds=96, seed=3)
        assert first == second


class TestJobsInvariance:
    def test_serial_vs_pooled_records_identical(self):
        cells = targeted_cells(
            ["collector-starver"], [(2, 32)], [12], hardened=(False,),
            blind=(False, True),
        )
        serial = sweep_congos("targeted", cells, seeds=(0,), jobs=1, rounds=96)
        pooled = sweep_congos("targeted", cells, seeds=(0,), jobs=2, rounds=96)
        flat_serial = [
            run.without_profile() for cell in serial.cells for run in cell.runs
        ]
        flat_pooled = [
            run.without_profile() for cell in pooled.cells for run in cell.runs
        ]
        assert flat_serial == flat_pooled
        assert any(run.targeted["budget"]["spent"] > 0 for run in flat_serial)


class TestE19Harness:
    def test_cells_cover_the_matrix(self):
        cells = targeted_cells(
            ["proxy-suppressor", "collector-starver"],
            [(4, 64), (8, 128)],
            [16, 64],
        )
        # 2 policies x 2 budgets x 2 ns x 2 presets x 2 blind = 32
        assert len(cells) == 32
        assert all(
            set(cell) == {"policy", "per_round", "total", "n", "hardened", "blind"}
            for cell in cells
        )

    def test_default_matrix_twins_every_policy_on_both_presets(self):
        args = build_parser().parse_args(
            ["targeted-soak", "-n", "16", "--budgets", "4:64"]
        )
        cells = TARGETED_SOAK.cells(args)
        # 4 policies x 1 budget x 2 presets x aware/blind = 16 cells.
        assert len(cells) == 16
        assert {cell["policy"] for cell in cells} == set(policy_names())
        twins = {}
        for cell in cells:
            key = (cell["policy"], cell["hardened"])
            twins.setdefault(key, set()).add(cell["blind"])
        assert len(twins) == 8
        assert all(modes == {False, True} for modes in twins.values())

    def test_payload_pairs_aware_with_blind(self):
        cells = targeted_cells(
            ["collector-starver"], [(2, 32)], [12], hardened=(False,)
        )
        sweep = sweep_congos("targeted", cells, seeds=(0,), jobs=1, rounds=160)
        payload = targeted_payload(sweep)
        assert payload["all_clean"]
        assert payload["all_ledgers_ok"]
        assert len(payload["cells"]) == 2
        (comparison,) = payload["comparisons"]
        assert comparison["policy"] == "collector-starver"
        assert comparison["targeted_spent"] > 0
        assert comparison["oblivious_spent"] > 0
        assert comparison["targeted_tracked_delivery"] is not None
