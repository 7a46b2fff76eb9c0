"""Tests for repro.exec.tasks / results: specs, hashing, records."""

import dataclasses
import os
import pickle

import pytest

from repro.core.config import CongosParams
from repro.exec.results import RunRecord
from repro.exec.tasks import RunSpec, canonical_json, execute_spec
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import steady_scenario


class TestRunSpecKey:
    def test_key_is_stable_hex(self):
        spec = RunSpec.make("steady", seed=0, n=8, rounds=200, deadline=64)
        assert len(spec.key) == 64
        assert spec.key == spec.key  # property recomputes deterministically
        assert spec.key == RunSpec.make(
            "steady", seed=0, n=8, rounds=200, deadline=64
        ).key

    def test_kwarg_order_does_not_matter(self):
        a = RunSpec.make("steady", seed=0, n=8, rounds=200, deadline=64)
        b = RunSpec.make("steady", seed=0, deadline=64, rounds=200, n=8)
        assert a.key == b.key

    def test_tuple_list_set_spellings_collide(self):
        a = RunSpec.make("churn", seed=0, n=8, rounds=200, immune=(0, 1))
        b = RunSpec.make("churn", seed=0, n=8, rounds=200, immune=[0, 1])
        c = RunSpec.make("churn", seed=0, n=8, rounds=200, immune={1, 0})
        assert a.key == b.key == c.key

    def test_seed_changes_key(self):
        a = RunSpec.make("steady", seed=0, n=8, rounds=200)
        b = RunSpec.make("steady", seed=1, n=8, rounds=200)
        assert a.key != b.key

    def test_kwargs_change_key(self):
        a = RunSpec.make("steady", seed=0, n=8, rounds=200)
        b = RunSpec.make("steady", seed=0, n=12, rounds=200)
        assert a.key != b.key

    def test_params_change_key(self):
        a = RunSpec.make("steady", seed=0, n=8, rounds=200)
        b = RunSpec.make(
            "steady", seed=0, n=8, rounds=200, params=CongosParams.lean()
        )
        c = RunSpec.make(
            "steady", seed=0, n=8, rounds=200, params=CongosParams()
        )
        assert a.key != b.key
        assert a.key != c.key  # explicit defaults still hash differently

    def test_builder_changes_key(self):
        a = RunSpec.make("steady", seed=0, n=8, rounds=200)
        b = RunSpec.make("burst", seed=0, n=8, rounds=200)
        assert a.key != b.key

    def test_golden_key_survives_restarts(self):
        # Pin the content hash: if this changes, every on-disk cache is
        # silently invalidated — bump it only on purpose.
        spec = RunSpec.make("steady", seed=0, n=8, rounds=200, deadline=64)
        assert spec.key == (
            "2801350ada440b11f5843b61fe728224bc25d86cb2b3375d6ca269b6fe259120"
        )

    def test_unregistered_callable_rejected(self):
        def anonymous_builder(**kwargs):
            raise AssertionError("never called")

        with pytest.raises(KeyError):
            RunSpec.make(anonymous_builder, seed=0, n=8, rounds=100)

    def test_registered_callable_resolves_to_name(self):
        spec = RunSpec.make(steady_scenario, seed=0, n=8, rounds=100)
        assert spec.builder == "steady"

    def test_unpicklable_kwarg_rejected(self):
        spec = RunSpec.make("steady", seed=0, n=8, fn=print)
        with pytest.raises(TypeError):
            spec.key

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": (2, 3)}) == '{"a":[2,3],"b":1}'


class TestRunSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = RunSpec.make(
            "steady", seed=3, n=8, rounds=200, params=CongosParams.lean()
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.key == spec.key

    def test_pickle_round_trip(self):
        spec = RunSpec.make("steady", seed=3, n=8, rounds=200)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == spec.key

    def test_to_scenario_rebuilds_params(self):
        spec = RunSpec.make(
            "steady",
            seed=3,
            n=8,
            rounds=200,
            deadline=64,
            params=CongosParams.lean(tau=2),
        )
        scenario = spec.to_scenario()
        assert scenario.n == 8
        assert scenario.seed == 3
        assert scenario.params == CongosParams.lean(tau=2)


class TestExecuteSpec:
    def test_matches_direct_run(self):
        spec = RunSpec.make(
            "steady",
            seed=0,
            n=8,
            rounds=200,
            deadline=64,
            params=CongosParams.lean(),
        )
        record = execute_spec(spec)
        direct = RunRecord.from_result(
            run_congos_scenario(
                steady_scenario(
                    n=8,
                    rounds=200,
                    seed=0,
                    deadline=64,
                    params=CongosParams.lean(),
                )
            ),
            spec_key=spec.key,
        )
        # execute_spec stamps wall_time/worker_pid; the simulation payload
        # must match the direct run exactly.
        assert record.without_profile() == direct
        assert record.wall_time > 0
        assert record.worker_pid == os.getpid()
        assert record.spec_key == spec.key
        assert record.qod_satisfied and record.clean
        assert record.peak > 0 and record.total >= record.peak


class TestRunRecord:
    def test_json_round_trip(self):
        spec = RunSpec.make(
            "steady",
            seed=0,
            n=8,
            rounds=200,
            deadline=64,
            params=CongosParams.lean(),
        )
        record = execute_spec(spec)
        clone = RunRecord.from_dict(record.to_dict())
        assert clone == record

    def test_net_section_describes_execution_not_simulation(self):
        cell = dict(
            seed=0, n=8, rounds=40, deadline=64, params=CongosParams.lean()
        )
        inproc = execute_spec(RunSpec.make("steady", **cell))
        sharded = execute_spec(
            RunSpec.make("steady", backend="sharded", net={"workers": 2}, **cell)
        )
        # Filled by the sharded backend only, absent-when-empty otherwise.
        assert inproc.net == {} and "net" not in inproc.to_dict()
        net = sharded.net
        assert net["workers"] == 2
        assert net["local_messages"] + net["cross_messages"] == sharded.total
        assert set(net["worker_pairs"]) == {"0->1", "1->0"}
        assert set(net["phase_latency_s"]) == {"route", "ship", "barrier", "merge"}
        assert 0.0 <= net["group_locality"] <= 1.0
        assert RunRecord.from_dict(sharded.to_dict()) == sharded
        # How a run was executed is profile, not payload.
        assert sharded.without_profile().net == {}
        assert "net" not in sharded.without_profile().to_dict()
        assert sharded.spec_key != inproc.spec_key
        assert sharded.digest() == inproc.digest()

    def test_array_run_has_no_net_section(self):
        pytest.importorskip("numpy")
        record = execute_spec(
            RunSpec.make(
                "steady", seed=0, n=8, rounds=40, deadline=64,
                params=CongosParams.lean(), engine="array",
            )
        )
        assert record.net == {} and "net" not in record.to_dict()

    def test_digest_is_of_the_payload_alone(self):
        record = RunRecord(
            scenario="x", n=4, rounds=10, seed=0, peak=1, total=1,
            total_size=1, mean_per_round=0.1, filtered=0,
        )
        assert len(record.digest()) == 64
        stamped = dataclasses.replace(
            record, spec_key="k" * 64, wall_time=1.5, worker_pid=7,
            cache_hit=True, net={"workers": 2},
        )
        assert stamped.digest() == record.digest()
        assert dataclasses.replace(record, total=2).digest() != record.digest()

    def test_fallback_accounting(self):
        record = RunRecord(
            scenario="x",
            n=4,
            rounds=10,
            seed=0,
            peak=1,
            total=1,
            total_size=1,
            mean_per_round=0.1,
            filtered=0,
            paths={"shoot": 2, "pipeline": 6},
        )
        assert record.fallback_shots() == 2
        assert record.served_pairs() == 8
