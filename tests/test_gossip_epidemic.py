"""Tests for repro.gossip.epidemic: fanout policy and target selection."""

import random

from hypothesis import given, strategies as st

from repro.gossip.epidemic import choose_push_targets, default_fanout


class TestDefaultFanout:
    def test_singleton_scope_needs_no_fanout(self):
        assert default_fanout(1) == 0

    def test_grows_logarithmically(self):
        assert default_fanout(4, scale=1.0) == 2
        assert default_fanout(16, scale=1.0) == 4
        assert default_fanout(256, scale=1.0) == 8

    def test_scale_multiplies(self):
        assert default_fanout(16, scale=2.0) == 8

    def test_capped_at_scope_minus_one(self):
        assert default_fanout(4, scale=100.0) == 3

    def test_minimum_respected(self):
        assert default_fanout(2, scale=0.1, minimum=1) == 1


class TestChoosePushTargets:
    def test_never_self(self):
        rng = random.Random(0)
        for _ in range(50):
            targets = choose_push_targets(rng, range(10), 3, 4)
            assert 3 not in targets

    def test_respects_exclusion(self):
        rng = random.Random(0)
        targets = choose_push_targets(
            rng, range(10), 0, 9, exclude=frozenset({1, 2, 3})
        )
        assert not set(targets) & {1, 2, 3}

    def test_small_pool_returned_whole(self):
        rng = random.Random(0)
        targets = choose_push_targets(rng, [0, 1, 2], 0, 10)
        assert sorted(targets) == [1, 2]

    def test_zero_fanout(self):
        rng = random.Random(0)
        assert choose_push_targets(rng, range(10), 0, 0) == []

    def test_distinct_targets(self):
        rng = random.Random(0)
        for _ in range(20):
            targets = choose_push_targets(rng, range(20), 0, 8)
            assert len(set(targets)) == len(targets) == 8

    def test_empty_pool(self):
        rng = random.Random(0)
        assert choose_push_targets(rng, [5], 5, 3) == []


@given(
    scope_size=st.integers(min_value=2, max_value=64),
    fanout=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_targets_always_valid(scope_size, fanout, seed):
    """Property: targets are distinct scope members, never self."""
    rng = random.Random(seed)
    scope = list(range(scope_size))
    targets = choose_push_targets(rng, scope, 0, fanout)
    assert len(set(targets)) == len(targets)
    assert all(t in scope and t != 0 for t in targets)
    assert len(targets) == min(fanout, scope_size - 1)

