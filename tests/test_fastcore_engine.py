"""Behavior of the array round kernel behind the Engine surfaces.

Needs the ``repro[fast]`` extra (skips without numpy).  The path
contract's statistical bounds are gated separately in
test_fastcore_parity.py; this file covers the hard invariants — the
contract's path-independent facts (``compare_paths``), spec plumbing,
scope rejection.
"""

import dataclasses

import pytest

pytest.importorskip("numpy", minversion="2.0")

from repro.core.config import CongosParams
from repro.exec.tasks import RunSpec
from repro.fastcore import bitset
from repro.fastcore.engine import ArrayEngine
from repro.harness.parity import compare_paths
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario
from repro.obs.instrument import Telemetry
from repro.sim.engine import UnsupportedScenario


def _cell(n=16, rounds=96, seed=0):
    return steady_scenario(
        n=n,
        rounds=rounds,
        seed=seed,
        deadline=64,
        rate=1,
        period=4,
        params=CongosParams.preset("lean"),
        name="fastcore-test-n{}-s{}".format(n, seed),
    )


def _array(scenario):
    return dataclasses.replace(scenario, engine="array")


class TestArrayRun:
    def test_small_steady_delivers_clean(self):
        result = run_congos_scenario(_array(_cell()))
        assert result.scenario.engine == "array"
        assert result.stats.total > 0
        assert len(result.delivery.deliveries) > 0
        assert result.qod.satisfied
        assert result.confidentiality.is_clean()
        assert not any(result.confidentiality.summary()["violations"].values())

    def test_delivered_pairs_match_object_engine(self):
        scenario = _cell()
        reference = run_congos_scenario(scenario)
        candidate = run_congos_scenario(_array(scenario))
        report = compare_paths(scenario.name, reference, candidate)
        assert report.path == "array-inproc"
        assert report.passed, report.failures

    def test_api_engine_kwarg(self):
        from repro.api import run_scenario

        result = run_scenario(_cell(), engine="array")
        assert result.scenario.engine == "array"
        assert result.qod.satisfied


class TestGdSenderClasses:
    """GroupDistribution sends by sender class — the set of rumors a sender
    holds.  The class signature was one int64, so a block with more than
    63 live rumors gave rumors #64+ to exactly the holders of rumor #63."""

    def _crowded(self):
        # 9 injections per round across a whole 16-round block: ~100 rumors
        # share each GD block at n=64, and the ones injected in the block's
        # last rounds (still spreading, so held by only part of the group)
        # sit past position 63.
        return steady_scenario(
            n=64, rounds=120, seed=0, deadline=64, rate=9, period=1,
            params=CongosParams.preset("lean"), name="fastcore-gd-classes",
        )

    def test_a_class_sends_exactly_the_rumors_its_senders_hold(self, monkeypatch):
        original = ArrayEngine._gd_send_class
        most_live = [0]

        def checked(engine, key, block, class_senders, union_idx, union_pool,
                    class_states, *rest):
            live = [
                (state, partials) for state, partials in block.rumors
                if engine.round <= state.expiry
            ]
            most_live[0] = max(most_live[0], len(live))
            sent = set(map(id, class_states))
            for state, partials in live:
                holding = bitset.test_bits(partials, class_senders)
                # block.hits[state] only grows from classes that send it.
                assert holding.all() if id(state) in sent else not holding.any()
            return original(
                engine, key, block, class_senders, union_idx, union_pool,
                class_states, *rest
            )

        monkeypatch.setattr(ArrayEngine, "_gd_send_class", checked)
        result = run_congos_scenario(_array(self._crowded()))
        assert most_live[0] >= 70
        assert result.qod.satisfied and result.confidentiality.is_clean()

    def test_crowded_block_delivers_the_object_engines_pairs(self):
        scenario = self._crowded()
        reference = run_congos_scenario(scenario)
        candidate = run_congos_scenario(_array(scenario))
        report = compare_paths(scenario.name, reference, candidate)
        assert report.passed, report.failures


class TestLoweredFanouts:
    """The fan-outs the array engine lowers for delivery observers, at a
    size (n=256) whose all-gossip pool draws targets with replacement and
    whose GD sender classes carry several rumors."""

    def _run(self):
        from repro.audit.metadata import facts_of
        from repro.sim.engine import SimObserver

        cuts = []
        observer = SimObserver()
        observer.on_fanouts = lambda round_no, cut: cuts.append((round_no, cut))
        scenario = steady_scenario(
            n=256, rounds=96, seed=3, deadline=64, rate=4, period=1,
            params=CongosParams.preset("lean"), name="fastcore-lowering",
        )
        result = run_congos_scenario(_array(scenario), observers=[observer])
        fanouts = [
            (round_no, head, dsts, mask, facts_of(head.payload))
            for round_no, cut in cuts for head, dsts, mask in cut
        ]
        return result, fanouts

    def test_a_fanout_never_names_a_destination_twice(self):
        result, fanouts = self._run()
        for _, head, dsts, mask, _ in fanouts:
            assert len(set(dsts)) == len(dsts) == bin(mask).count("1")
            assert mask == sum(1 << dst for dst in dsts) and head.dst == dsts[0]
        # Still every message: the repeats became fan-outs of their own.
        assert sum(len(dsts) for _, _, dsts, _, _ in fanouts) == result.stats.total

    def test_a_group_distribution_carries_what_its_target_may_get(self):
        # One FragmentDelivery per (sender, target): the rumors whose
        # destination pool holds the target, and at least one of them.
        _, fanouts = self._run()
        deliveries = [
            (dsts, facts) for _, head, dsts, _, facts in fanouts
            if head.service == "group_distribution"
        ]
        assert any(len(facts) > 1 for _, facts in deliveries)
        for dsts, facts in deliveries:
            assert len(dsts) == 1 and facts
            assert all(dsts[0] in dest for _, dest in facts)


class TestScope:
    def test_engine_field_validated(self):
        with pytest.raises(ValueError, match="engine"):
            dataclasses.replace(_cell(), engine="warp")

    def test_unsupported_params_rejected(self):
        scenario = _cell()
        literal_pool = dataclasses.replace(
            scenario,
            engine="array",
            params=dataclasses.replace(scenario.params, gd_target_pool="group"),
        )
        with pytest.raises(UnsupportedScenario, match="use the object engine"):
            run_congos_scenario(literal_pool)

    def test_chaos_plane_rejected(self):
        from repro.harness.scenarios import BUILDERS

        chaos = BUILDERS["chaos"](seed=0, n=8, rounds=40, drop=0.2)
        with pytest.raises(UnsupportedScenario, match="chaos fault plane"):
            run_congos_scenario(dataclasses.replace(chaos, engine="array"))

    def test_telemetry_rejected(self):
        with pytest.raises(ValueError, match="telemetry"):
            run_congos_scenario(_array(_cell()), telemetry=Telemetry())


class TestRunSpecPlumbing:
    def test_default_engine_excluded_from_key(self):
        base = RunSpec.make("steady", seed=0, n=8, rounds=32)
        explicit = RunSpec.make("steady", seed=0, n=8, rounds=32, engine="object")
        assert base.key == explicit.key
        assert "engine" not in base.to_dict()

    def test_array_engine_changes_key_and_roundtrips(self):
        base = RunSpec.make("steady", seed=0, n=8, rounds=32)
        fast = RunSpec.make("steady", seed=0, n=8, rounds=32, engine="array")
        assert fast.key != base.key
        assert fast.to_dict()["engine"] == "array"
        assert RunSpec.from_dict(fast.to_dict()) == fast
        assert fast.to_scenario().engine == "array"
