"""Tests for repro.gossip.continuous: the continuous-gossip black box.

These drive a group of ContinuousGossip instances directly (no Engine) —
a minimal synchronous harness routes messages between them — so that the
black box's interface guarantees can be checked in isolation, exactly as
CONGOS consumes them.
"""

import random

import pytest

from repro.gossip.continuous import ContinuousGossip
from repro.gossip.rumor import ItemBatch, _UidSetTable
from repro.sim.messages import Message, ServiceTags


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


class TestSharedUidSets:
    """The receive-side cover and the uid-set interning table."""

    @staticmethod
    def _batch(round_no):
        sender = ContinuousGossip(
            pid=0, n=4, channel="test", scope=range(4), rng=random.Random(0)
        )
        for index in range(3):
            sender.inject(round_no, ("x", index), deadline=20, dest=range(4))
        return sender.send_phase(round_no)[0]

    def test_equal_batch_from_another_sender_is_covered(self):
        receiver = ContinuousGossip(
            pid=1, n=4, channel="test", scope=range(4), rng=random.Random(1)
        )
        first = self._batch(0)
        receiver.on_message(0, first)
        assert first.payload.uids in receiver._covered
        twin = ItemBatch(reversed(first.payload))
        assert twin.uids == first.payload.uids
        receiver.on_message(0, Message(2, 1, first.service, twin, channel="test"))
        assert len(receiver._covered) == 1

    def test_restarted_instance_absorbs_what_the_old_one_covered(self):
        delivered = []

        def restart():
            # A restart builds the node's services afresh.
            return ContinuousGossip(
                pid=1, n=4, channel="test", scope=range(4),
                rng=random.Random(1),
                deliver=lambda round_no, item: delivered.append(item.uid),
            )

        message = self._batch(0)
        old = restart()
        old.on_message(0, message)
        old.end_round(0)
        assert message.payload.uids in old._covered
        assert len(delivered) == 3
        fresh = restart()
        fresh.on_message(1, message)
        fresh.end_round(1)
        assert all(fresh.knows(item.uid) for item in message.payload)
        assert delivered[3:] == [item.uid for item in message.payload]
        assert len(fresh.active_items()) == 3

    def test_expiry_clears_the_cover(self):
        receiver = ContinuousGossip(
            pid=1, n=4, channel="test", scope=range(4), rng=random.Random(1)
        )
        message = self._batch(0)
        receiver.on_message(0, message)
        assert receiver._covered
        receiver.send_phase(30)  # every item expired at round 20
        assert not receiver._covered
        receiver.on_message(30, message)  # all expired: nothing new
        assert not receiver.has_active()

    def test_expired_uid_leaves_no_trace(self):
        delivered = []
        receiver = ContinuousGossip(
            pid=1, n=4, channel="test", scope=range(4), rng=random.Random(1),
            deliver=lambda round_no, item: delivered.append(item.uid),
        )
        message = self._batch(0)
        uids = [item.uid for item in message.payload]
        receiver.on_message(0, message)
        receiver.end_round(0)
        assert delivered == uids
        receiver.send_phase(30)  # every item expired at round 20

        def traces():
            # A cover is a set of uid sets: look inside those too.
            return [
                (name, uid)
                for name, value in vars(receiver).items()
                if isinstance(value, (set, frozenset, dict))
                for uid in uids
                if uid in value
                or any(isinstance(m, frozenset) and uid in m for m in value)
            ]

        assert not any(receiver.knows(uid) for uid in uids)
        assert traces() == []
        # A late chaos copy of the same batch: no delivery, no activation,
        # and still nothing remembered.
        receiver.on_message(31, message)
        receiver.end_round(31)
        assert delivered == uids
        assert not receiver.has_active()
        assert not any(receiver.knows(uid) for uid in uids)
        assert traces() == []

    def test_table_holds_two_generations(self):
        table = _UidSetTable()
        a = frozenset({("u", 1)})
        assert table.intern(a, 0) is a
        assert table.intern(_copy(a), 0) is a  # equal values, one object
        assert table.intern(_copy(a), 1) is a  # promoted from round 0
        b = frozenset({("u", 2)})
        assert table.intern(b, 1) is b
        assert len(table) == 3  # a in both generations, b in the newest
        c = frozenset({("u", 3)})
        assert table.intern(c, 2) is c
        assert len(table) == 3  # round 0 is gone: a and b of round 1, c
        copy = _copy(a)
        assert table.intern(copy, 3) is copy  # a was last asked for in 1
        assert table.intern(_copy(c), 3) is c  # c was asked for in 2
        assert len(table) == 3  # round 1 is gone: c of 2; the copy and c
        copy = _copy(c)
        assert table.intern(copy, 9) is copy  # a gap: both generations go
        assert len(table) == 1

    def test_round_moving_backwards_starts_afresh(self):
        # A second run in the same process starts again at round 0.
        table = _UidSetTable()
        a = frozenset({("u", 1)})
        table.intern(a, 240)
        copy = _copy(a)
        assert table.intern(copy, 0) is copy
        assert len(table) == 1


def _copy(uids):
    """An equal set that is a new object (``frozenset(s)`` returns ``s``)."""
    return frozenset(list(uids))


class TestCrashTolerance:
    def test_survivors_still_saturate(self):
        harness = GossipHarness(range(16), seed=3)
        harness.services[0].inject(0, "x", deadline=14, dest=range(16))
        crashed = frozenset({5, 6, 7, 8, 9})
        harness.run(14, crashed=crashed)
        for pid in range(16):
            if pid not in crashed:
                assert harness.delivered[pid]
