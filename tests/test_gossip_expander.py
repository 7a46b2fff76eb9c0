"""Tests for repro.gossip.expander: deterministic rotating schedules."""

import pytest
from hypothesis import given, strategies as st

from repro.gossip.expander import ShiftExpander, circulant_offsets


class TestCirculantOffsets:
    def test_tiny_group(self):
        assert circulant_offsets(1, 4) == ()

    def test_doubling_prefix(self):
        offsets = circulant_offsets(64, 4)
        assert offsets[:4] == (1, 2, 4, 8)

    def test_no_zero_offsets(self):
        for size in (2, 5, 16, 33):
            for degree in (1, 3, 6):
                assert 0 not in circulant_offsets(size, degree)

    def test_distinct_offsets(self):
        offsets = circulant_offsets(32, 8)
        assert len(set(offsets)) == len(offsets)


class TestShiftExpander:
    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            ShiftExpander([], 2)

    def test_degree_capped(self):
        expander = ShiftExpander([0, 1, 2], 10)
        assert expander.degree == 2

    def test_targets_in_group(self):
        expander = ShiftExpander([3, 5, 9, 12, 20], 3)
        for round_no in range(10):
            for pid in (3, 5, 9, 12, 20):
                for target in expander.targets(pid, round_no):
                    assert expander.contains(target)
                    assert target != pid

    def test_unknown_pid_rejected(self):
        expander = ShiftExpander([0, 1, 2], 2)
        with pytest.raises(KeyError):
            expander.targets(7, 0)

    def test_rotation_varies_targets(self):
        expander = ShiftExpander(list(range(16)), 3)
        seen = set()
        for round_no in range(16):
            seen.update(expander.targets(0, round_no))
        # Over a full rotation, process 0 contacts many distinct peers.
        assert len(seen) >= 8

    def test_deterministic(self):
        a = ShiftExpander(list(range(8)), 3)
        b = ShiftExpander(list(range(8)), 3)
        assert a.targets(2, 5) == b.targets(2, 5)

    def test_singleton_group_has_no_targets(self):
        assert ShiftExpander([4], 3).targets(4, 0) == []

    def test_connectivity_round_zero(self):
        """The round-0 graph must be connected (reachability check)."""
        members = list(range(20))
        expander = ShiftExpander(members, 4)
        reached = {members[0]}
        frontier = [members[0]]
        while frontier:
            pid = frontier.pop()
            for neighbor in expander.neighbors(pid):
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert reached == set(members)


@given(
    size=st.integers(min_value=2, max_value=48),
    degree=st.integers(min_value=1, max_value=8),
    round_no=st.integers(min_value=0, max_value=200),
)
def test_targets_always_valid_members(size, degree, round_no):
    members = list(range(0, 3 * size, 3))  # non-contiguous pids
    expander = ShiftExpander(members, degree)
    targets = expander.targets(members[0], round_no)
    assert len(set(targets)) == len(targets)
    assert all(t in members and t != members[0] for t in targets)
