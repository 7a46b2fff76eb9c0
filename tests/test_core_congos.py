"""Integration tests for the full CONGOS node (small n, short deadlines)."""

import pytest

from repro.adversary.base import ComposedAdversary
from repro.adversary.injection import ScriptedWorkload
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor
from repro.core.config import CongosParams
from repro.core.congos import CongosNode, build_partition_set, congos_factory
from repro.core.partitions import BitPartitions, RandomPartitions
from repro.sim.engine import Engine
from repro.sim.rng import SeedSequence, derive_rng

from conftest import DeliveryEdges


def run_script(script, n=8, rounds=260, params=None, seed=0):
    """Run CONGOS with a scripted workload and both auditors attached."""
    resolved = params if params is not None else CongosParams()
    partitions = build_partition_set(n, resolved, seed)
    delivery = DeliveryAuditor()
    confidentiality = ConfidentialityAuditor(partitions.count, partitions.num_groups)
    factory = congos_factory(
        n,
        params=resolved,
        seed=seed,
        deliver_callback=delivery.record_delivery,
        partition_set=partitions,
    )
    workload = ScriptedWorkload(script, derive_rng(seed, "wl"))
    engine = Engine(
        n,
        factory,
        ComposedAdversary([workload]),
        observers=[delivery, confidentiality],
        seed=seed,
    )
    engine.run(rounds)
    return engine, delivery, confidentiality, delivery.report(engine)


class TestPipelineDelivery:
    def test_single_rumor_delivered_by_deadline(self):
        engine, delivery, _, report = run_script(
            [(64, 0, 64, {3, 5})], rounds=200
        )
        assert report.satisfied
        assert report.admissible_pairs == 2
        assert report.path_counts() == {"reassembled": 2}

    def test_delivery_before_deadline_not_just_at(self):
        engine, delivery, _, report = run_script([(64, 0, 128, {3})], rounds=260)
        latencies = report.latencies()
        assert latencies and max(latencies) < 128

    def test_source_in_destination_set(self):
        engine, delivery, _, report = run_script([(64, 2, 64, {2, 5})])
        entry = delivery.deliveries[(delivery.injected_rid(0), 2)]
        assert entry[2] == "local"
        assert report.satisfied

    def test_data_integrity(self):
        engine, delivery, _, report = run_script(
            [(64, 1, 64, {6}, b"payload-bytes-123")]
        )
        rid = delivery.injected_rid(0)
        assert delivery.deliveries[(rid, 6)][1] == b"payload-bytes-123"

    def test_short_deadline_goes_direct(self):
        engine, delivery, _, report = run_script([(64, 0, 16, {3, 5})], rounds=120)
        assert report.satisfied
        assert set(report.path_counts()) == {"direct"}

    def test_multiple_sources_same_round(self):
        script = [(64, pid, 64, {(pid + 1) % 8, (pid + 2) % 8}) for pid in range(8)]
        engine, delivery, _, report = run_script(script, rounds=220)
        assert report.satisfied
        assert report.admissible_pairs == 16

    def test_mixed_deadline_classes(self):
        script = [(64, 0, 64, {1}), (64, 1, 200, {2}), (70, 2, 500, {3})]
        engine, delivery, _, report = run_script(script, rounds=600)
        assert report.satisfied

    def test_empty_destination_is_noop(self):
        engine, delivery, _, report = run_script([(64, 0, 64, set())], rounds=160)
        assert report.satisfied
        assert engine.stats.total == 0

    def test_self_only_destination_is_local(self):
        engine, delivery, _, report = run_script([(64, 0, 64, {0})], rounds=160)
        assert report.satisfied
        assert engine.stats.total == 0


class TestConfidentialityIntegration:
    def test_no_violations_fault_free(self):
        script = [(64 + i, i % 8, 64, {(i + 3) % 8}) for i in range(12)]
        _, _, confidentiality, report = run_script(script, rounds=300)
        assert report.satisfied
        assert confidentiality.is_clean()
        assert confidentiality.violation_counts()["multiplicity"] == 0

    def test_outsiders_cannot_reconstruct(self):
        script = [(64, 0, 64, {1})]
        engine, _, confidentiality, _ = run_script(script, rounds=200)
        rid = next(iter(confidentiality.rumors))
        # The minimal coalition able to reconstruct must need >= 2 members
        # (tau=1: no single outsider may reconstruct), or be impossible.
        size = confidentiality.min_coalition_size(rid, 8)
        assert size is None or size >= 2

    def test_filters_never_fire(self):
        engine, _, _, _ = run_script([(64, 0, 64, {3})], rounds=200)
        for pid in range(8):
            node = engine.behavior(pid)
            for bundle in node.instances.values():
                for gossip in bundle.gossip:
                    assert gossip.filter.dropped == 0


class TestCollusionMode:
    def test_tau2_pipeline_delivery(self):
        params = CongosParams(tau=2)
        engine, delivery, confidentiality, report = run_script(
            [(64, 0, 64, {3, 5})], n=12, rounds=200, params=params
        )
        assert report.satisfied
        assert confidentiality.is_clean()
        assert report.path_counts() == {"reassembled": 2}

    def test_tau2_fragments_are_three_way(self):
        params = CongosParams(tau=2)
        engine, _, confidentiality, _ = run_script(
            [(64, 0, 64, {3})], n=12, rounds=200, params=params
        )
        rid = next(iter(confidentiality.rumors))
        holders = confidentiality.fragment_holders
        groups_seen = {
            key[2] for key in holders if key[0] == rid and holders[key]
        }
        assert groups_seen == {0, 1, 2}

    def test_collusion_forced_direct_for_huge_tau(self):
        params = CongosParams(tau=6)
        engine, delivery, _, report = run_script(
            [(20, 0, 64, {3, 5})], n=8, rounds=120, params=params
        )
        assert report.satisfied
        assert set(report.path_counts()) == {"direct"}


class TestNodeConstruction:
    def test_partition_set_mismatch_rejected(self):
        params = CongosParams(tau=2)
        partitions = BitPartitions(8)  # 2 groups but tau=2 needs 3
        with pytest.raises(ValueError):
            CongosNode(0, 8, params, partitions, SeedSequence(0))

    def test_partition_n_mismatch_rejected(self):
        params = CongosParams()
        with pytest.raises(ValueError):
            CongosNode(0, 8, params, BitPartitions(16), SeedSequence(0))

    def test_build_partition_set_base(self):
        assert isinstance(build_partition_set(16, CongosParams()), BitPartitions)

    def test_build_partition_set_collusion(self):
        partitions = build_partition_set(16, CongosParams(tau=2))
        assert isinstance(partitions, RandomPartitions)
        assert partitions.num_groups == 3

    def test_rumor_with_unknown_destination_rejected(self):
        with pytest.raises(ValueError):
            run_script([(64, 0, 64, {99})], rounds=70)


class TestDeterminism:
    def test_identical_runs(self):
        script = [(64, 0, 64, {3, 5}), (80, 2, 128, {1, 4})]
        first_engine, *_ = run_script(script, seed=11, rounds=260)
        second_engine, *_ = run_script(script, seed=11, rounds=260)
        assert first_engine.stats.total == second_engine.stats.total
        assert first_engine.stats.series(0, 259) == second_engine.stats.series(0, 259)

    def test_different_seeds_use_different_random_targets(self):
        script = [(64, 0, 64, {3, 5})]

        def edges(seed):
            observer = DeliveryEdges()
            resolved = CongosParams()
            partitions = build_partition_set(8, resolved, seed)
            factory = congos_factory(8, params=resolved, seed=seed)
            workload = ScriptedWorkload(script, derive_rng(seed, "wl"))
            engine = Engine(
                8, factory, ComposedAdversary([workload]), observers=[observer], seed=seed
            )
            engine.run(200)
            return observer.edges

        assert edges(1) != edges(2)
