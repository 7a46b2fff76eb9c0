"""Tests for repro.gossip.continuous: the continuous-gossip black box.

These drive a group of ContinuousGossip instances directly (no Engine) —
a minimal synchronous harness routes messages between them — so that the
black box's interface guarantees can be checked in isolation, exactly as
CONGOS consumes them.
"""

import random

import pytest

from repro.gossip.continuous import ContinuousGossip
from repro.sim.messages import ServiceTags


class GossipHarness:
    """Minimal synchronous loop over one gossip instance per scope member."""

    def __init__(self, scope, n=None, seed=0, **kwargs):
        self.scope = sorted(scope)
        self.n = n if n is not None else max(self.scope) + 1
        self.delivered = {pid: [] for pid in self.scope}
        self.services = {}
        self.sent = 0
        self.round = 0
        for pid in self.scope:
            self.services[pid] = ContinuousGossip(
                pid=pid,
                n=self.n,
                channel="test",
                scope=self.scope,
                rng=random.Random(seed * 1000 + pid),
                deliver=self._deliver_cb(pid),
                **kwargs,
            )

    def _deliver_cb(self, pid):
        def callback(round_no, item):
            self.delivered[pid].append((round_no, item))

        return callback

    def run_round(self, crashed=frozenset()):
        outgoing = []
        for pid in self.scope:
            if pid in crashed:
                continue
            outgoing.extend(self.services[pid].send_phase(self.round))
        self.sent += len(outgoing)
        inboxes = {pid: [] for pid in self.scope}
        for message in outgoing:
            if message.dst not in crashed and message.dst in inboxes:
                inboxes[message.dst].append(message)
        for pid in self.scope:
            if pid in crashed:
                continue
            for message in inboxes[pid]:
                self.services[pid].on_message(self.round, message)
            self.services[pid].end_round(self.round)
        self.round += 1

    def run(self, rounds, crashed=frozenset()):
        for _ in range(rounds):
            self.run_round(crashed)


class TestInjection:
    def test_self_delivery_immediate(self):
        harness = GossipHarness(range(4))
        harness.services[0].inject(0, "hello", deadline=4, dest=[0, 1])
        assert harness.delivered[0][0][1].payload == "hello"

    def test_no_self_delivery_outside_dest(self):
        harness = GossipHarness(range(4))
        harness.services[0].inject(0, "hello", deadline=4, dest=[1])
        assert harness.delivered[0] == []

    def test_duplicate_uid_rejected(self):
        harness = GossipHarness(range(4))
        harness.services[0].inject(0, "a", deadline=4, dest=[1], uid=("u",))
        with pytest.raises(ValueError):
            harness.services[0].inject(0, "b", deadline=4, dest=[1], uid=("u",))

    def test_zero_deadline_rejected(self):
        harness = GossipHarness(range(4))
        with pytest.raises(ValueError):
            harness.services[0].inject(0, "a", deadline=0, dest=[1])

    def test_dest_restricted_to_scope(self):
        harness = GossipHarness([0, 1, 2], n=8)
        item = harness.services[0].inject(0, "a", deadline=4, dest=range(8))
        assert item.dest == frozenset({0, 1, 2})

    def test_pid_outside_scope_rejected(self):
        with pytest.raises(ValueError):
            ContinuousGossip(
                pid=7,
                n=8,
                channel="x",
                scope=[0, 1],
                rng=random.Random(0),
            )


class TestSpreading:
    def test_saturates_group(self):
        harness = GossipHarness(range(16))
        harness.services[3].inject(0, "payload", deadline=12, dest=range(16))
        harness.run(12)
        for pid in range(16):
            assert harness.delivered[pid], "pid {} missed the item".format(pid)

    def test_only_dest_members_get_delivery(self):
        harness = GossipHarness(range(8))
        harness.services[0].inject(0, "payload", deadline=10, dest=[2, 5])
        harness.run(10)
        for pid in range(8):
            if pid in (2, 5):
                assert harness.delivered[pid]
            else:
                assert not harness.delivered[pid]

    def test_delivery_at_most_once(self):
        harness = GossipHarness(range(8))
        harness.services[0].inject(0, "payload", deadline=10, dest=range(8))
        harness.run(20)
        for pid in range(8):
            assert len(harness.delivered[pid]) == 1

    def test_items_expire(self):
        harness = GossipHarness(range(4))
        harness.services[0].inject(0, "payload", deadline=3, dest=range(4))
        harness.run(10)
        for pid in range(4):
            assert not harness.services[pid].has_active()

    def test_no_traffic_when_idle(self):
        harness = GossipHarness(range(8))
        harness.run(5)
        assert harness.sent == 0

    def test_two_concurrent_items_batched(self):
        harness = GossipHarness(range(8))
        harness.services[0].inject(0, "a", deadline=10, dest=range(8))
        harness.services[1].inject(0, "b", deadline=10, dest=range(8))
        harness.run(10)
        for pid in range(8):
            payloads = {item.payload for _, item in harness.delivered[pid]}
            assert payloads == {"a", "b"}

    def test_filter_never_fires_for_correct_build(self):
        harness = GossipHarness([0, 2, 4, 6], n=8)
        harness.services[0].inject(0, "a", deadline=8, dest=range(8))
        harness.run(8)
        for pid in harness.scope:
            assert harness.services[pid].filter.dropped == 0

    def test_filter_counts_an_out_of_scope_target(self):
        """A target-selection bug must still become a counted drop: the
        whole-fan-out scope check falls through to the filter."""
        gossip = ContinuousGossip(
            pid=0, n=8, channel="test", scope=[0, 2, 4], rng=random.Random(0)
        )
        gossip.inject(0, "a", deadline=8, dest=range(8))
        gossip._choose_targets = lambda round_no: [2, 5, 4]
        sent = gossip.send_phase(1)
        assert [message.dst for message in sent] == [2, 4]
        assert sent[0].payload is sent[1].payload
        assert gossip.filter.dropped == 1

    def test_expander_schedule_saturates(self):
        harness = GossipHarness(range(16), schedule="expander")
        harness.services[0].inject(0, "payload", deadline=14, dest=range(16))
        harness.run(14)
        for pid in range(16):
            assert harness.delivered[pid]

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            GossipHarness(range(4), schedule="quantum")


class TestReliableMode:
    def test_origin_flush_guarantees_delivery(self):
        """With reliable=True even a fanout-starved group delivers by the
        deadline (the origin flushes directly at expiry)."""
        harness = GossipHarness(range(12), fanout_scale=0.01, reliable=True)
        harness.services[0].inject(0, "must-arrive", deadline=5, dest=range(12))
        harness.run(6)
        for pid in range(12):
            assert harness.delivered[pid], "pid {} missed".format(pid)
            delivered_round = harness.delivered[pid][0][0]
            assert delivered_round <= 5

    def test_unreliable_mode_keeps_messages_lower(self):
        reliable = GossipHarness(range(16), seed=1, reliable=True, fanout_scale=0.01)
        unreliable = GossipHarness(range(16), seed=1, reliable=False, fanout_scale=0.01)
        for harness in (reliable, unreliable):
            harness.services[0].inject(0, "x", deadline=6, dest=range(16))
            harness.run(7)
        assert reliable.sent > unreliable.sent


class TestResendHorizon:
    def test_old_items_stop_being_sent(self):
        harness = GossipHarness(range(8), resend_horizon=2)
        harness.services[0].inject(0, "x", deadline=50, dest=range(8))
        harness.run(10)
        sent_after = harness.sent
        harness.run(10)
        assert harness.sent == sent_after  # horizon passed: radio silence

    def test_auto_horizon_reasonable(self):
        service = ContinuousGossip(
            pid=0, n=64, channel="x", scope=range(64), rng=random.Random(0)
        )
        assert service.resend_horizon >= 8


class TestCrashTolerance:
    def test_survivors_still_saturate(self):
        harness = GossipHarness(range(16), seed=3)
        harness.services[0].inject(0, "x", deadline=14, dest=range(16))
        crashed = frozenset({5, 6, 7, 8, 9})
        harness.run(14, crashed=crashed)
        for pid in range(16):
            if pid not in crashed:
                assert harness.delivered[pid]
