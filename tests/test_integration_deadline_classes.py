"""Deadline-class management end to end (Section 4.2).

Rumors with heterogeneous deadlines must land in their power-of-two
classes, run through per-class protocol instances without interference,
and all be delivered by their *original* (untrimmed) deadlines.
"""

import pytest

from repro.adversary.base import ComposedAdversary
from repro.adversary.injection import ScriptedWorkload
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.audit.delivery import DeliveryAuditor
from repro.core.config import CongosParams
from repro.core.congos import build_partition_set, congos_factory
from repro.core.deadlines import pipeline_deadline
from repro.sim.engine import Engine
from repro.sim.rng import derive_rng

N = 8


def run_mix(script, rounds, seed=0, params=None):
    resolved = params if params is not None else CongosParams()
    partitions = build_partition_set(N, resolved, seed)
    delivery = DeliveryAuditor()
    confidentiality = ConfidentialityAuditor(
        partitions.count, partitions.num_groups
    )
    factory = congos_factory(
        N,
        params=resolved,
        seed=seed,
        deliver_callback=delivery.record_delivery,
        partition_set=partitions,
    )
    engine = Engine(
        N,
        factory,
        ComposedAdversary([ScriptedWorkload(script, derive_rng(seed, "wl"))]),
        observers=[delivery, confidentiality],
        seed=seed,
    )
    engine.run(rounds)
    return engine, delivery, confidentiality


class TestDeadlineClasses:
    def test_heterogeneous_deadlines_all_served(self):
        script = [
            (64, 0, 64, {3}),     # class 64
            (64, 1, 100, {4}),    # trimmed to class 64
            (64, 2, 300, {5}),    # class 256
            (70, 3, 900, {6}),    # class 512
            (72, 4, 20, {7}),     # below threshold: direct
        ]
        engine, delivery, confidentiality = run_mix(script, rounds=1100)
        report = delivery.report(engine)
        assert report.satisfied
        assert confidentiality.is_clean()

    def test_instances_created_per_class(self):
        script = [(64, 0, 64, {3}), (64, 1, 300, {4})]
        engine, *_ = run_mix(script, rounds=600)
        node = engine.behavior(0)
        assert set(node.instances) == {64, 256}

    def test_direct_rumors_create_no_instances(self):
        script = [(20, 0, 16, {3})]
        engine, delivery, _ = run_mix(script, rounds=60)
        node = engine.behavior(0)
        assert node.instances == {}
        assert delivery.report(engine).satisfied

    def test_trimmed_deadline_still_meets_original(self):
        """A 100-round deadline is trimmed to the 64-class; delivery must
        beat the original 100 (trivially, since it beats 64)."""
        assert pipeline_deadline(100, CongosParams(), N) == 64
        script = [(64, 0, 100, {3, 5})]
        engine, delivery, _ = run_mix(script, rounds=300)
        report = delivery.report(engine)
        assert report.satisfied
        assert max(report.latencies()) <= 64

    def test_classes_do_not_cross_contaminate(self):
        """A rumor's fragments must only ever travel in its own class's
        channels (instance isolation)."""
        script = [(64, 0, 64, {3}), (64, 1, 300, {4})]
        resolved = CongosParams()
        partitions = build_partition_set(N, resolved, 0)
        factory = congos_factory(N, params=resolved, seed=0, partition_set=partitions)
        engine = Engine(
            N,
            factory,
            ComposedAdversary([ScriptedWorkload(script, derive_rng(0, "wl"))]),
            seed=0,
        )
        # Record every fragment reaching pids 3 and 4 (a delivered rumor
        # leaves the fragment store, so the store itself shows nothing).
        seen = {3: [], 4: []}
        for pid, rids in seen.items():
            coordinator = engine.behavior(pid).coordinator
            on_fragment = coordinator.on_fragment

            def record(round_no, fragment, rids=rids, on_fragment=on_fragment):
                rids.append(fragment.rid)
                on_fragment(round_no, fragment)

            coordinator.on_fragment = record
        engine.run(600)
        # Pid 3 must see fragments of the 64-class rumor only, and pid 4
        # those of the 256-class one only.
        assert seen[3] and {rid.src for rid in seen[3]} == {0}
        assert seen[4] and {rid.src for rid in seen[4]} == {1}

    def test_cap_trims_huge_deadlines(self):
        params = CongosParams(deadline_cap=128)
        script = [(64, 0, 10_000, {3})]
        engine, delivery, _ = run_mix(script, rounds=400, params=params)
        node = engine.behavior(0)
        assert set(node.instances) == {128}
        assert delivery.report(engine).satisfied
