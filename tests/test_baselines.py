"""Tests for the baseline protocols (direct, strongly confidential, plain)."""

import pytest

from repro.adversary.base import ComposedAdversary
from repro.adversary.injection import ScriptedWorkload
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor
from repro.baselines.direct import direct_factory
from repro.baselines.plain_gossip import plain_gossip_factory
from repro.baselines.strongly_confidential import strongly_confidential_factory
from repro.sim.engine import Engine
from repro.sim.rng import derive_rng

from conftest import DeliveryEdges, atom_holders


def run_baseline(factory_builder, script, n=8, rounds=80, seed=0):
    delivery = DeliveryAuditor()
    confidentiality = ConfidentialityAuditor(num_partitions=1, num_groups=2)
    factory = factory_builder(delivery)
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


class TestDirectSend:
    def build(self, delivery):
        return direct_factory(8, deliver_callback=delivery.record_delivery)

    def test_delivers_same_round(self):
        engine, delivery, _, report = run_baseline(
            self.build, [(5, 0, 16, {1, 2, 3})]
        )
        assert report.satisfied
        assert report.latencies() == [0, 0, 0]

    def test_message_count_is_dest_size(self):
        engine, *_ = run_baseline(self.build, [(5, 0, 16, {1, 2, 3})])
        assert engine.stats.total == 3

    def test_strongly_confidential(self):
        _, _, confidentiality, _ = run_baseline(self.build, [(5, 0, 16, {1, 2})])
        assert confidentiality.is_clean()
        assert confidentiality.total_border_messages == 0

    def test_self_delivery(self):
        engine, delivery, _, report = run_baseline(self.build, [(5, 0, 16, {0, 1})])
        assert report.satisfied
        assert engine.stats.total == 1  # only pid 1 needed a message


class TestStronglyConfidential:
    def build(self, delivery):
        return strongly_confidential_factory(
            8, seed=3, deliver_callback=delivery.record_delivery
        )

    def test_delivers_by_deadline(self):
        engine, delivery, _, report = run_baseline(
            self.build, [(5, 0, 32, {1, 2, 3, 4})], rounds=80
        )
        assert report.satisfied

    def test_messages_confined_to_destination_set(self):
        """Strong confidentiality: only D + source ever receive traffic."""
        engine, _, confidentiality, _ = run_baseline(
            self.build, [(5, 0, 32, {1, 2})], rounds=80
        )
        assert confidentiality.is_clean()
        for pids in atom_holders(confidentiality).values():
            assert pids <= {0, 1, 2}

    def test_relay_by_destinations(self):
        """Destination members forward rumors (collaboration inside D)."""
        delivery = DeliveryAuditor()
        observer = DeliveryEdges()
        factory = strongly_confidential_factory(
            8, seed=5, deliver_callback=delivery.record_delivery
        )
        workload = ScriptedWorkload([(2, 0, 40, {1, 2, 3, 4, 5})], derive_rng(0))
        engine = Engine(8, factory, ComposedAdversary([workload]), observers=[observer])
        engine.run(60)
        senders = {src for _, src, _ in observer.edges}
        assert senders - {0}, "destinations should relay, not just the source"

    def test_deadline_flush_guarantees_delivery(self):
        delivery_holder = []

        def build(delivery):
            delivery_holder.append(delivery)
            return strongly_confidential_factory(
                8, seed=0, fanout_scale=0.01, deliver_callback=delivery.record_delivery
            )

        engine, delivery, _, report = run_baseline(
            build, [(5, 0, 16, {1, 2, 3, 4, 5, 6})], rounds=40
        )
        assert report.satisfied


class TestPlainGossip:
    def build(self, delivery):
        return plain_gossip_factory(8, seed=1, deliver_callback=delivery.record_delivery)

    def test_delivers(self):
        engine, delivery, _, report = run_baseline(
            self.build, [(5, 0, 32, {1, 6})], rounds=80
        )
        assert report.satisfied

    def test_confidentiality_lost(self):
        """The point of the baseline: plaintext spreads to everyone."""
        _, _, confidentiality, _ = run_baseline(
            self.build, [(5, 0, 32, {1})], rounds=80
        )
        assert confidentiality.violation_counts()["plaintext"] > 0

    def test_everyone_relays(self):
        engine, *_ = run_baseline(self.build, [(5, 0, 32, {1})], rounds=80)
        # Far more messages than |D|: the whole system is gossiping.
        assert engine.stats.total > 8
