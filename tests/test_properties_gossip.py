"""Property-based tests of the continuous-gossip black box.

The interface contract CONGOS relies on (DESIGN.md §2): in reliable mode,
every admissible item reaches every in-scope destination by its deadline —
for *any* scope, deadline, fanout and crash set hypothesis dreams up.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gossip.continuous import ContinuousGossip
from repro.gossip.rumor import GossipItem, ItemBatch, intern_uids
from repro.sim.messages import Message, ServiceTags


class MiniHarness:
    def __init__(self, scope, seed, crashed=frozenset(), **kwargs):
        self.scope = sorted(scope)
        self.crashed = set(crashed)
        self.delivered = {pid: set() for pid in self.scope}
        self.services = {}
        self.round = 0
        for pid in self.scope:
            self.services[pid] = ContinuousGossip(
                pid=pid,
                n=max(self.scope) + 1,
                channel="prop",
                scope=self.scope,
                rng=random.Random(seed * 7919 + pid),
                deliver=self._cb(pid),
                **kwargs,
            )

    def _cb(self, pid):
        def callback(round_no, item):
            self.delivered[pid].add(item.uid)

        return callback

    def run(self, rounds):
        for _ in range(rounds):
            outgoing = []
            for pid in self.scope:
                if pid not in self.crashed:
                    outgoing.extend(self.services[pid].send_phase(self.round))
            for message in outgoing:
                if message.dst not in self.crashed:
                    self.services[message.dst].on_message(self.round, message)
            for pid in self.scope:
                if pid not in self.crashed:
                    self.services[pid].end_round(self.round)
            self.round += 1


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scope_size=st.integers(min_value=2, max_value=40),
    deadline=st.integers(min_value=2, max_value=20),
    fanout_scale=st.floats(min_value=0.01, max_value=3.0),
    seed=st.integers(min_value=0, max_value=100),
)
def test_reliable_mode_always_delivers(scope_size, deadline, fanout_scale, seed):
    """Admissible items (origin alive throughout) reach every in-scope
    destination by the deadline — probability 1 in reliable mode."""
    harness = MiniHarness(
        range(scope_size), seed, fanout_scale=fanout_scale, reliable=True
    )
    item = harness.services[0].inject(
        0, "payload", deadline=deadline, dest=range(scope_size)
    )
    harness.run(deadline + 1)
    for pid in range(scope_size):
        assert item.uid in harness.delivered[pid]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scope_size=st.integers(min_value=3, max_value=32),
    seed=st.integers(min_value=0, max_value=100),
    data=st.data(),
)
def test_crashed_members_never_receive(scope_size, seed, data):
    """No delivery at crashed members; survivors still served (reliable)."""
    crashed = data.draw(
        st.sets(
            st.integers(min_value=1, max_value=scope_size - 1),
            max_size=scope_size - 2,
        )
    )
    harness = MiniHarness(
        range(scope_size), seed, crashed=crashed, reliable=True
    )
    item = harness.services[0].inject(
        0, "payload", deadline=12, dest=range(scope_size)
    )
    harness.run(13)
    for pid in range(scope_size):
        if pid in crashed:
            assert item.uid not in harness.delivered[pid]
        else:
            assert item.uid in harness.delivered[pid]


@settings(max_examples=20, deadline=None)
@given(
    scope_size=st.integers(min_value=2, max_value=32),
    dest_size=st.integers(min_value=0, max_value=32),
    seed=st.integers(min_value=0, max_value=50),
)
def test_deliveries_respect_destination_sets(scope_size, dest_size, seed):
    """Delivery callbacks fire only at destination-set members."""
    dest = set(range(min(dest_size, scope_size)))
    harness = MiniHarness(range(scope_size), seed, reliable=True)
    item = harness.services[0].inject(0, "payload", deadline=10, dest=dest)
    harness.run(11)
    for pid in range(scope_size):
        if pid in item.dest:
            assert item.uid in harness.delivered[pid]
        else:
            assert item.uid not in harness.delivered[pid]


@settings(max_examples=15, deadline=None)
@given(
    scope_size=st.integers(min_value=2, max_value=24),
    item_count=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=50),
)
def test_concurrent_items_all_delivered(scope_size, item_count, seed):
    harness = MiniHarness(range(scope_size), seed, reliable=True)
    uids = []
    for index in range(item_count):
        origin = index % scope_size
        item = harness.services[origin].inject(
            0, "p{}".format(index), deadline=14, dest=range(scope_size)
        )
        uids.append(item.uid)
    harness.run(15)
    for pid in range(scope_size):
        assert harness.delivered[pid] >= set(uids)


# ----------------------------------------------------------------------
# Batch set algebra vs. the per-item reference
# ----------------------------------------------------------------------
#
# ContinuousGossip receives with set algebra on a batch's uid set and
# sends from a maintained broadcast dict plus a backoff wake-up schedule.
# ReferenceGossip is the per-item implementation that replaced: a stateless
# send rule evaluated over every active item and a seen-check per received
# item.  The two must agree on everything a peer or the protocol can see.

PID = 0
SCOPE = range(4)


def backoff_due(age, horizon):
    """Exponentially spaced ages past the resend horizon: +1, +2, +4, ..."""
    offset = age - horizon
    return offset >= 1 and (offset & (offset - 1)) == 0


class ReferenceGossip:
    def __init__(self, horizon, backoff):
        self.horizon = horizon
        self.backoff = backoff
        self.active = {}
        self.seen = set()
        self.pending = []
        self.delivered = []

    def inject(self, round_no, item):
        self.seen.add(item.uid)
        self.active[item.uid] = item
        if PID in item.dest:
            self.delivered.append((round_no, item.uid))

    def send(self, round_no):
        for uid in [u for u, i in self.active.items() if i.expiry < round_no]:
            del self.active[uid]
        return tuple(
            item
            for item in self.active.values()
            if round_no - item.born <= self.horizon
            or (self.backoff and backoff_due(round_no - item.born, self.horizon))
        )

    def within_horizon(self, round_no):
        return [
            uid
            for uid, item in self.active.items()
            if round_no - item.born <= self.horizon
        ]

    def on_message(self, round_no, payload):
        for item in payload:
            if item.uid in self.seen:
                continue
            self.seen.add(item.uid)
            if round_no > item.expiry:
                continue
            self.active[item.uid] = item
            if PID in item.dest:
                self.pending.append(item)

    def end_round(self, round_no):
        self.delivered.extend((round_no, item.uid) for item in self.pending)
        self.pending = []


def pool_items(draw, count):
    """Items other processes might push at PID: str+int uids (so set order
    depends on the hash seed), born before or during the run, some already
    expired when they first arrive, some not addressed to PID."""
    items = []
    for index in range(count):
        born = draw(st.integers(min_value=0, max_value=10))
        items.append(
            GossipItem(
                uid=("prop/{}".format(index % 3), "share", index),
                origin=1 + index % 3,
                payload=("blob", index),
                expiry=born + draw(st.integers(min_value=0, max_value=24)),
                dest=frozenset(draw(st.sets(st.sampled_from(list(SCOPE))))),
                born=born,
            )
        )
    return items


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_batch_paths_match_per_item_reference(data):
    draw = data.draw
    horizon = draw(st.integers(min_value=1, max_value=5), label="horizon")
    backoff = draw(st.booleans(), label="backoff")
    pool = pool_items(draw, draw(st.integers(min_value=1, max_value=12)))
    delivered = []
    gossip = ContinuousGossip(
        pid=PID, n=len(SCOPE), channel="prop", scope=SCOPE,
        rng=random.Random(0), resend_horizon=horizon, resend_backoff=backoff,
        deliver=lambda round_no, item: delivered.append((round_no, item.uid)),
    )
    reference = ReferenceGossip(horizon, backoff)
    in_flight = []  # payload objects a chaos plane could deliver again

    round_no = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30), label="rounds")):
        # Mostly consecutive rounds, as the engine drives them; sometimes a
        # gap, as unit tests do.
        round_no += draw(st.sampled_from([1, 1, 1, 1, 2, 5]))

        if draw(st.booleans()):
            item = gossip.inject(
                round_no,
                ("own", round_no),
                deadline=draw(st.integers(min_value=1, max_value=24)),
                dest=draw(st.sets(st.sampled_from(list(SCOPE)))),
            )
            reference.inject(round_no, item)

        expected = reference.send(round_no)
        messages = gossip.send_phase(round_no)
        if expected:
            batch = messages[0].payload
            assert all(message.payload is batch for message in messages)
            assert len(batch) == len(expected)
            assert all(a is b for a, b in zip(batch, expected))
            assert batch.uids == {item.uid for item in expected}
            assert sorted(m.dst for m in messages) == [1, 2, 3]
        else:
            assert messages == []
        assert list(gossip._active) == list(reference.active)
        assert list(gossip._broadcast) == reference.within_horizon(round_no)

        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            if in_flight and draw(st.booleans()):
                source = draw(st.sampled_from(in_flight))
                again = draw(st.sampled_from(["same", "batch", "interned"]))
                if again == "same":
                    # A duplicated or delayed copy: the same object, again.
                    payload = source
                else:
                    # Another sender's batch of the same items: an equal
                    # uid set in a new object, in its own arrival order.
                    payload = rebuild(draw(st.permutations(source)), again, round_no)
            else:
                chosen = draw(
                    st.lists(st.sampled_from(pool), max_size=2 * len(pool))
                )
                wrap = draw(st.sampled_from(["tuple", "batch", "interned"]))
                payload = rebuild(chosen, wrap, round_no)  # duplicates allowed
                in_flight.append(payload)
            deliver(gossip, reference, round_no, payload)
        gossip.end_round(round_no)
        reference.end_round(round_no)
        assert_agree(gossip, reference, delivered, pool)

    # Past every expiry: the sweep drops what is left and clears the cover,
    # then every payload seen so far arrives again and must bring nothing.
    round_no += 60
    expiring = bool(gossip._active)
    assert gossip.send_phase(round_no) == [] and reference.send(round_no) == ()
    assert not (expiring and gossip._covered)
    for payload in in_flight:
        deliver(gossip, reference, round_no, payload)
    gossip.end_round(round_no)
    reference.end_round(round_no)
    assert_agree(gossip, reference, delivered, pool)


def rebuild(items, how, round_no):
    """``items`` as a plain tuple, an ItemBatch deriving its own uid set,
    or an ItemBatch whose uid set went through the interning table."""
    if how == "tuple":
        return tuple(items)
    batch = ItemBatch(items)
    if how == "interned":
        batch = ItemBatch(batch, intern_uids(batch.uids, round_no))
    return batch


def deliver(gossip, reference, round_no, payload):
    gossip.on_message(
        round_no,
        Message(1, PID, ServiceTags.GROUP_GOSSIP, payload, channel="prop"),
    )
    reference.on_message(round_no, payload)


def assert_agree(gossip, reference, delivered, pool):
    assert delivered == reference.delivered
    assert list(gossip._active) == list(reference.active)
    for item in pool:
        # The reference remembers every uid forever; the real instance
        # forgets an expired one, and that must change no decision above.
        assert gossip.knows(item.uid) == (item.uid in reference.active)
