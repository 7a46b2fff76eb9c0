"""Tests for repro.adversary.base: composition semantics."""

import pytest

from repro.adversary.base import Adversary, ComposedAdversary
from repro.sim.engine import Engine
from repro.sim.events import MidRoundDecision, RoundDecision
from repro.sim.process import NodeBehavior

from conftest import mk_rumor


class Scripted(Adversary):
    def __init__(self, decision=None, mid=None):
        self.decision = decision or RoundDecision()
        self.mid = mid or MidRoundDecision()

    def round_start(self, view):
        return self.decision

    def mid_round(self, view, outgoing):
        return self.mid


def make_view():
    engine = Engine(4, lambda pid: NodeBehavior(pid, 4))
    return engine.view


class TestBaseAdversary:
    def test_does_nothing(self):
        view = make_view()
        adversary = Adversary()
        assert adversary.round_start(view).is_empty()
        assert adversary.mid_round(view, []).is_empty()


class TestComposition:
    def test_merges_crashes_and_restarts(self):
        composed = ComposedAdversary(
            [
                Scripted(RoundDecision(crashes={0})),
                Scripted(RoundDecision(restarts={1})),
            ]
        )
        decision = composed.round_start(make_view())
        assert decision.crashes == {0}
        assert decision.restarts == {1}

    def test_conflicting_pid_rejected(self):
        composed = ComposedAdversary(
            [
                Scripted(RoundDecision(crashes={0})),
                Scripted(RoundDecision(restarts={0})),
            ]
        )
        with pytest.raises(ValueError):
            composed.round_start(make_view())

    def test_merges_injections(self):
        composed = ComposedAdversary(
            [
                Scripted(RoundDecision(injections=[(0, mk_rumor(src=0))])),
                Scripted(RoundDecision(injections=[(1, mk_rumor(src=1))])),
            ]
        )
        decision = composed.round_start(make_view())
        assert len(decision.injections) == 2

    def test_duplicate_injection_pid_rejected(self):
        composed = ComposedAdversary(
            [
                Scripted(RoundDecision(injections=[(0, mk_rumor(seq=0))])),
                Scripted(RoundDecision(injections=[(0, mk_rumor(seq=1))])),
            ]
        )
        with pytest.raises(ValueError):
            composed.round_start(make_view())

    def test_injection_at_crashed_pid_dropped(self):
        """A workload cannot see a sibling's same-round crash; the
        composition silently drops the conflicting injection."""
        composed = ComposedAdversary(
            [
                Scripted(RoundDecision(crashes={2})),
                Scripted(RoundDecision(injections=[(2, mk_rumor(src=2))])),
            ]
        )
        decision = composed.round_start(make_view())
        assert decision.injections == []
        assert decision.crashes == {2}

    def test_mid_round_merge(self):
        composed = ComposedAdversary(
            [
                Scripted(mid=MidRoundDecision(crashes={0}, dropped_messages={1})),
                Scripted(mid=MidRoundDecision(crashes={2}, dropped_messages={3})),
            ]
        )
        decision = composed.mid_round(make_view(), [])
        assert decision.crashes == {0, 2}
        assert decision.dropped_messages == {1, 3}

    def test_mid_round_conflict_rejected(self):
        composed = ComposedAdversary(
            [
                Scripted(mid=MidRoundDecision(crashes={0})),
                Scripted(mid=MidRoundDecision(crashes={0})),
            ]
        )
        with pytest.raises(ValueError):
            composed.mid_round(make_view(), [])

    def test_empty_composition(self):
        composed = ComposedAdversary([])
        assert composed.round_start(make_view()).is_empty()
