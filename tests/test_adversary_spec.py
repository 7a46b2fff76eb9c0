"""Scenarios are data: every registered builder names its workload and
fault model by :class:`AdversarySpec`, so a scenario compares equal on
rebuild, survives a pickle round trip, and runs the same after one."""

import pickle

import pytest

from repro.adversary.spec import KINDS, AdversarySpec
from repro.core.congos import build_partition_set
from repro.exec.results import RunRecord
from repro.harness.runner import run_congos_scenario
from repro.harness.scenarios import BUILDERS, steady_scenario

N, ROUNDS, SEED = 8, 200, 0


def build(name):
    kwargs = {"tau": 2} if name == "collusion" else {}
    return BUILDERS[name](N, ROUNDS, SEED, **kwargs)


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestEveryBuilder:
    def test_rebuild_is_equal(self, name):
        assert build(name) == build(name)

    def test_pickle_round_trip_is_equal(self, name):
        scenario = build(name)
        assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_factories_are_specs_that_build_their_kind(self, name):
        scenario = build(name)
        partitions = build_partition_set(N, scenario.params, SEED)
        for spec, call in (
            (scenario.workload_factory, lambda spec: spec(None)),
            (scenario.fault_factory, lambda spec: spec(None, partitions, N)),
        ):
            assert spec is None or isinstance(spec, AdversarySpec)
            if spec is None:
                continue
            built = KINDS[spec.kind]
            # A classmethod constructor builds its own class.
            assert isinstance(call(spec), getattr(built, "__self__", built))


def test_restored_scenario_runs_the_same():
    scenario = steady_scenario(N, 200, 3, deadline=64)
    restored = pickle.loads(pickle.dumps(scenario))
    original = RunRecord.from_result(run_congos_scenario(scenario))
    again = RunRecord.from_result(run_congos_scenario(restored))
    assert original.pairs > 0
    assert again.digest() == original.digest()


def test_group_killer_resolves_members_from_the_partition_set():
    scenario = BUILDERS["group-killer"](N, ROUNDS, SEED, partition=1, group=1)
    partitions = build_partition_set(N, scenario.params, SEED)
    adversary = scenario.fault_factory(None, partitions, N)
    assert adversary.members == set(partitions.members(1, 1))


@pytest.mark.parametrize(
    "kind, args, match",
    [
        ("no-such-kind", {}, "unknown adversary kind"),
        ("churn", {"p_crash": 0.1, "p_restart": 0.1, "typo": 1}, "bad args"),
        ("churn", {"p_crash": 0.1}, "bad args"),
        ("steady", {"n": 8, "rng": None}, "multiple values"),
    ],
    ids=["unknown-kind", "unknown-arg", "missing-arg", "supplied-arg"],
)
def test_bad_spec_is_refused_where_it_is_built(kind, args, match):
    with pytest.raises(ValueError, match=match):
        AdversarySpec(kind, args)
