"""Tests for repro.adversary.injection: workload generators."""

import random

import pytest

from repro.adversary.injection import (
    BurstWorkload,
    GroupTrafficWorkload,
    ScriptedWorkload,
    SteadyWorkload,
    Theorem1Workload,
    theorem1_density,
)
from repro.sim.engine import Engine
from repro.sim.process import NodeBehavior


def make_view(n=8, round_no=0, crashed=frozenset()):
    engine = Engine(n, lambda pid: NodeBehavior(pid, n))
    for pid in crashed:
        engine.shells[pid].crash()
        engine._alive.discard(pid)  # keep incremental alive set consistent
    for _ in range(round_no):
        engine.clock.advance()
    return engine.view


class TestScriptedWorkload:
    def test_fires_at_round(self):
        workload = ScriptedWorkload(
            [(3, 0, 64, {1, 2})], random.Random(0)
        )
        assert workload.round_start(make_view(round_no=2)).injections == []
        decision = workload.round_start(make_view(round_no=3))
        assert len(decision.injections) == 1
        pid, rumor = decision.injections[0]
        assert pid == 0
        assert rumor.dest == frozenset({1, 2})
        assert rumor.deadline == 64
        assert rumor.injected_at == 3

    def test_explicit_data(self):
        workload = ScriptedWorkload(
            [(0, 0, 64, {1}, b"fixed")], random.Random(0)
        )
        _, rumor = workload.round_start(make_view()).injections[0]
        assert rumor.data == b"fixed"

    def test_skips_crashed_source(self):
        workload = ScriptedWorkload([(0, 3, 64, {1})], random.Random(0))
        decision = workload.round_start(make_view(crashed={3}))
        assert decision.injections == []

    def test_sequences_increment_per_source(self):
        workload = ScriptedWorkload(
            [(0, 0, 64, {1}), (0, 1, 64, {2}), (1, 0, 64, {1})],
            random.Random(0),
        )
        first = workload.round_start(make_view(round_no=0))
        second = workload.round_start(make_view(round_no=1))
        rids = [r.rid for _, r in first.injections + second.injections]
        assert len(set(rids)) == 3


class TestSteadyWorkload:
    def test_respects_period_and_window(self):
        workload = SteadyWorkload(
            8,
            random.Random(0),
            rate=1,
            period=4,
            start_round=8,
            stop_round=16,
        )
        fired = [
            r
            for r in range(24)
            if workload.round_start(make_view(round_no=r)).injections
        ]
        assert fired == [8, 12]

    def test_rate_counts_sources(self):
        workload = SteadyWorkload(8, random.Random(0), rate=3, period=1)
        decision = workload.round_start(make_view())
        assert len(decision.injections) == 3
        assert len({pid for pid, _ in decision.injections}) == 3

    def test_dest_size(self):
        workload = SteadyWorkload(8, random.Random(0), rate=1, dest_size=5)
        _, rumor = workload.round_start(make_view()).injections[0]
        assert len(rumor.dest) == 5

    def test_source_excluded_from_dest_by_default(self):
        workload = SteadyWorkload(4, random.Random(0), rate=1, dest_size=3)
        for round_no in range(10):
            for pid, rumor in workload.round_start(
                make_view(n=4, round_no=round_no)
            ).injections:
                assert pid not in rumor.dest

    def test_include_source(self):
        workload = SteadyWorkload(
            4, random.Random(0), rate=1, dest_size=2, include_source=True
        )
        pid, rumor = workload.round_start(make_view(n=4)).injections[0]
        assert pid in rumor.dest

    def test_only_alive_sources(self):
        workload = SteadyWorkload(4, random.Random(0), rate=4, period=1)
        decision = workload.round_start(make_view(n=4, crashed={0, 1}))
        assert {pid for pid, _ in decision.injections} <= {2, 3}

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            SteadyWorkload(4, random.Random(0), rate=-1)


class TestBurstWorkload:
    def test_everyone_injects_in_burst(self):
        workload = BurstWorkload(8, random.Random(0), burst_rounds=[5])
        assert not workload.round_start(make_view(round_no=4)).injections
        decision = workload.round_start(make_view(round_no=5))
        assert len(decision.injections) == 8


class TestGroupTraffic:
    def test_round_robin_sources(self):
        workload = GroupTrafficWorkload([2, 5], random.Random(0), period=1)
        sources = [
            workload.round_start(make_view(round_no=r)).injections[0][0]
            for r in range(4)
        ]
        assert sources == [2, 5, 2, 5]

    def test_dest_is_other_participants(self):
        workload = GroupTrafficWorkload([2, 5, 7], random.Random(0), period=1)
        pid, rumor = workload.round_start(make_view()).injections[0]
        assert rumor.dest == frozenset({2, 5, 7}) - {pid}

    def test_needs_two_participants(self):
        with pytest.raises(ValueError):
            GroupTrafficWorkload([2], random.Random(0))


class TestTheorem1Workload:
    def test_density_formula(self):
        assert theorem1_density(64, 8) == pytest.approx(64 ** 0.25 / 64)

    def test_density_needs_c_above_4(self):
        with pytest.raises(ValueError):
            theorem1_density(64, 4)

    def test_one_rumor_per_process(self):
        workload = Theorem1Workload(16, random.Random(0), c=8, inject_round=3)
        decision = workload.round_start(make_view(n=16, round_no=3))
        sources = [pid for pid, _ in decision.injections]
        assert len(sources) == len(set(sources))
        assert len(sources) >= 8  # some may draw empty destination sets

    def test_uniform_deadline(self):
        workload = Theorem1Workload(16, random.Random(0), dmax=99, inject_round=0)
        for _, rumor in workload.round_start(make_view(n=16)).injections:
            assert rumor.deadline == 99

    def test_fires_once(self):
        workload = Theorem1Workload(8, random.Random(0), inject_round=0)
        assert workload.round_start(make_view(round_no=0)).injections
        assert not workload.round_start(make_view(round_no=1)).injections

    def test_destination_sizes_near_expectation(self):
        n, c = 64, 8
        workload = Theorem1Workload(n, random.Random(1), c=c, inject_round=0)
        decision = workload.round_start(make_view(n=n))
        sizes = [len(r.dest) for _, r in decision.injections]
        mean = sum(sizes) / len(sizes)
        expected = workload.expected_x
        assert 0.3 * expected <= mean <= 3 * expected
