"""Tests for repro.gossip.filter: the group Filter (Figure 11)."""

import pytest

from repro.core.config import CongosParams
from repro.gossip.filter import GroupFilter, PassFilter
from repro.harness.runner import assemble, engine_for
from repro.harness.scenarios import get_builder
from repro.sim.messages import ServiceTags

from conftest import mk_message


class TestGroupFilter:
    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError):
            GroupFilter([])

    def test_allows_members(self):
        group_filter = GroupFilter({1, 2, 3})
        assert group_filter.allows(2)
        assert not group_filter.allows(5)

    def test_apply_drops_outsiders(self):
        group_filter = GroupFilter({0, 1})
        messages = [mk_message(dst=1), mk_message(dst=5), mk_message(dst=0)]
        allowed = group_filter.apply(messages)
        assert [m.dst for m in allowed] == [1, 0]
        assert group_filter.dropped == 1

    def test_dropped_accumulates(self):
        group_filter = GroupFilter({0})
        group_filter.apply([mk_message(dst=3), mk_message(dst=4)])
        group_filter.apply([mk_message(dst=5)])
        assert group_filter.dropped == 3

    def test_restrict_intersects(self):
        group_filter = GroupFilter({0, 2, 4})
        assert group_filter.restrict([0, 1, 2, 3]) == frozenset({0, 2})

    def test_repr_shows_counts(self):
        group_filter = GroupFilter({0, 1})
        group_filter.apply([mk_message(dst=9)])
        assert "dropped=1" in repr(group_filter)


class TestPassFilter:
    def test_allows_everyone(self):
        pass_filter = PassFilter(8)
        assert all(pass_filter.allows(p) for p in range(8))

    def test_still_blocks_out_of_range(self):
        pass_filter = PassFilter(4)
        assert not pass_filter.allows(4)


def _gossip_instances(node):
    yield node.all_gossip
    for bundle in node.instances.values():
        yield from bundle.gossip


@pytest.mark.parametrize(
    "builder, kwargs",
    [("steady", {}), ("collusion", {"tau": 2})],
    ids=["steady-tau1", "collusion-tau2"],
)
def test_no_filter_fires_in_a_correct_build(builder, kwargs):
    """Targets are chosen inside the scope, so every GroupFilter on every
    gossip instance (AllGossip and each partition's GroupGossip) drops
    nothing over a whole run."""
    scenario = get_builder(builder)(
        n=12, rounds=200, seed=0, deadline=64,
        params=CongosParams.preset("lean"), **kwargs
    )
    engine = engine_for(assemble(scenario))
    engine.run(scenario.rounds)
    instances = [
        gossip
        for pid in range(scenario.n)
        for gossip in _gossip_instances(engine.behavior(pid))
    ]
    # AllGossip plus one GroupGossip per partition: several per node.
    assert len(instances) > 2 * scenario.n
    assert engine.stats.service_total(ServiceTags.GROUP_GOSSIP) > 0
    assert [g.filter.dropped for g in instances] == [0] * len(instances)
