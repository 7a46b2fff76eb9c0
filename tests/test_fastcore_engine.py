"""Behavior of the array round kernel behind the Engine surfaces.

Needs the ``repro[fast]`` extra (skips without numpy).  Statistical
parity with the object engine is gated separately in
test_fastcore_parity.py; this file covers the hard invariants — same
delivered pairs, clean audit, spec plumbing, scope rejection.
"""

import dataclasses

import pytest

pytest.importorskip("numpy")

from repro.core.config import CongosParams
from repro.exec.tasks import RunSpec
from repro.fastcore import bitset
from repro.fastcore.engine import ArrayEngine, UnsupportedScenario
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario
from repro.obs.instrument import Telemetry


def _cell(n=16, rounds=96, seed=0):
    return steady_scenario(
        n=n,
        rounds=rounds,
        seed=seed,
        deadline=64,
        rate=1,
        period=4,
        params=CongosParams.lean(),
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
        assert set(candidate.delivery.deliveries) == set(
            reference.delivery.deliveries
        )
        assert (
            candidate.delivery.injection_rounds
            == reference.delivery.injection_rounds
        )

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
            params=CongosParams.lean(), name="fastcore-gd-classes",
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
        assert set(candidate.delivery.deliveries) == set(
            reference.delivery.deliveries
        )


class TestScope:
    def test_engine_field_validated(self):
        with pytest.raises(ValueError, match="engine"):
            dataclasses.replace(_cell(), engine="warp")

    def test_unsupported_params_rejected(self):
        scenario = _cell()
        reliable = dataclasses.replace(
            scenario,
            engine="array",
            params=dataclasses.replace(scenario.params, gossip_reliable=True),
        )
        with pytest.raises(UnsupportedScenario, match="use the object engine"):
            run_congos_scenario(reliable)

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
