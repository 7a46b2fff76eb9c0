"""Tests for the reliable direct-send layer: ack/retransmit/k-copy
behavior, default-path inertness, and leak-safety of the control traffic."""

import pytest

from repro.audit.confidentiality import ConfidentialityAuditor
from repro.core.confidential_gossip import DirectAck, DirectSendState
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import direct_scenario
from repro.obs.instrument import Telemetry
from repro.obs.timeline import RumorTimeline
from repro.sim.messages import ServiceTags, reveals_of

from conftest import deliver, mk_message

DIRECT = {"n": 12, "rounds": 140, "deadline": 32}


def run_direct(seed=0, drop=0.0, hardened=False, telemetry=None, **kwargs):
    scenario = direct_scenario(
        seed=seed, drop=drop, hardened=hardened, **DIRECT, **kwargs
    )
    observers = []
    timeline = None
    if telemetry is not None:
        timeline = RumorTimeline()
        telemetry.subscribe(timeline)
        observers.append(timeline)
    result = run_congos_scenario(
        scenario, observers=observers, telemetry=telemetry
    )
    return result, timeline


class TestScenarioGuard:
    def test_direct_scenario_rejects_pipeline_deadlines(self):
        with pytest.raises(ValueError, match="direct"):
            direct_scenario(n=12, rounds=200, seed=0, deadline=128)

    def test_threshold_deadline_accepted(self):
        scenario = direct_scenario(n=12, rounds=140, seed=0, deadline=48)
        assert scenario.workload_factory.args["deadlines"] == (48,)


class TestDefaultInertness:
    def test_default_run_has_no_reliability_traffic(self):
        result, _ = run_direct(seed=0)
        by_service = result.stats.by_service()
        assert ServiceTags.DIRECT_ACK not in by_service
        assert result.qod.satisfied
        assert result.confidentiality.is_clean()

    def test_default_run_is_deterministic(self):
        first, _ = run_direct(seed=3)
        second, _ = run_direct(seed=3)
        assert first.stats.total == second.stats.total
        assert first.stats.by_service() == second.stats.by_service()

    def test_reliable_property_gates_the_machinery(self):
        # Same seed, fault-free: the hardened run sends strictly more
        # (k-copy redundancy + acks), delivers the same rumors.
        default, _ = run_direct(seed=1)
        hardened, _ = run_direct(seed=1, hardened=True)
        assert hardened.stats.total > default.stats.total
        assert hardened.qod.satisfied and default.qod.satisfied
        by_service = hardened.stats.by_service()
        assert by_service.get(ServiceTags.DIRECT_ACK, 0) > 0


class TestReliabilityUnderLoss:
    def test_hardened_recovers_dropped_sends(self):
        default, _ = run_direct(seed=0, drop=0.3)
        hardened, _ = run_direct(seed=0, drop=0.3, hardened=True)
        assert len(default.qod.missed) > 0  # single unacked send really loses
        assert len(hardened.qod.missed) < len(default.qod.missed)
        assert hardened.confidentiality.is_clean()

    def test_timeline_records_acks_and_retries(self):
        telemetry = Telemetry()
        _, timeline = run_direct(
            seed=0, drop=0.3, hardened=True, telemetry=telemetry
        )
        records = timeline.lifecycles()
        assert any(rec.direct_retries for rec in records)
        assert any(rec.direct_acks for rec in records)
        retried = next(rec for rec in records if rec.direct_retries)
        entry = retried.direct_retries[0]
        assert set(entry) == {"round", "targets", "attempt"}
        assert entry["attempt"] >= 2
        # Retransmits only go to destination-set members.
        assert set(entry["targets"]) <= set(retried.dest)

    def test_acks_only_from_destinations(self):
        telemetry = Telemetry()
        _, timeline = run_direct(
            seed=1, drop=0.2, hardened=True, telemetry=telemetry
        )
        for rec in timeline.lifecycles():
            assert set(rec.direct_acks) <= set(rec.dest)


class TestDirectSendState:
    def test_exhausted_when_no_work_left(self):
        state = DirectSendState(
            rumor=None,
            deadline_round=10,
            unacked={1, 2},
            copy_rounds=[],
            retries_left=0,
            backoff=2,
            next_retry=None,
        )
        assert state.exhausted()
        state.copy_rounds.append(5)
        assert not state.exhausted()


class TestAckLeakSafety:
    def test_ack_reveals_nothing(self):
        ack = DirectAck(rid="r0:0", acker=3)
        assert list(reveals_of(ack)) == []
        assert not any(
            isinstance(value, (bytes, bytearray))
            for value in vars(ack).values()
        )

    def test_auditor_accepts_well_formed_ack(self):
        auditor = ConfidentialityAuditor(num_partitions=1, num_groups=2)
        message = mk_message(
            src=3, dst=0, service=ServiceTags.DIRECT_ACK,
            payload=DirectAck(rid="r0:0", acker=3),
        )
        deliver(auditor, 0, message)
        assert auditor.is_clean()

    def test_auditor_flags_ack_carrying_bytes(self):
        ack = DirectAck(rid="r0:0", acker=3)
        object.__setattr__(ack, "z", b"smuggled-fragment")  # regression sim
        auditor = ConfidentialityAuditor(num_partitions=1, num_groups=2)
        deliver(
            auditor,
            0,
            mk_message(
                src=3, dst=0, service=ServiceTags.DIRECT_ACK, payload=ack
            ),
        )
        assert not auditor.is_clean()
        assert auditor.violation_counts()["ack_leak"] == 1
        assert auditor.violations[0].kind == "ack_leak"

    def test_hardened_soak_stays_clean(self):
        for seed in (0, 1):
            result, _ = run_direct(seed=seed, drop=0.3, hardened=True)
            counts = result.confidentiality.violation_counts()
            assert counts.get("ack_leak", 0) == 0
            assert result.confidentiality.is_clean()
