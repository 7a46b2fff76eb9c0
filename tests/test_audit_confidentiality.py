"""Tests for repro.audit.confidentiality: the knowledge auditor."""

import copy
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.collusion import GreedyCoalition
from repro.audit.confidentiality import (
    ConfidentialityAuditor,
    _popcount_bin,
    popcount,
)
from repro.core.confidential_gossip import DirectAck
from repro.core.group_distribution import FragmentDelivery
from repro.core.splitting import split_rumor
from repro.gossip.rumor import GossipItem, ItemBatch
from repro.sim.messages import ServiceTags, reveals_of

from conftest import mk_message, mk_rumor


def make_auditor(num_partitions=3, num_groups=2):
    return ConfidentialityAuditor(num_partitions, num_groups)


def fragments_for(rumor, partition=0, groups=2, seed=0):
    return split_rumor(rumor, partition, groups, random.Random(seed), 64, 100)


class TestPlaintextTracking:
    def test_source_knows_plaintext_without_violation(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        assert auditor.is_clean()
        assert 0 in auditor.plaintext_holders[rumor.rid]

    def test_delivery_to_destination_clean(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        auditor.on_deliver(1, mk_message(src=0, dst=1, payload=rumor))
        assert auditor.is_clean()

    def test_delivery_to_outsider_flagged(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        auditor.on_deliver(1, mk_message(src=0, dst=5, payload=rumor))
        assert not auditor.is_clean()
        assert auditor.violation_counts()["plaintext"] == 1

    def test_duplicate_delivery_single_violation(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        auditor.on_deliver(1, mk_message(src=0, dst=5, payload=rumor))
        auditor.on_deliver(2, mk_message(src=0, dst=5, payload=rumor))
        assert auditor.violation_counts()["plaintext"] == 1


class TestFragmentTracking:
    def test_single_fragment_clean(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        auditor.on_deliver(1, mk_message(src=0, dst=5, payload=frag))
        assert auditor.is_clean()

    def test_outsider_completing_partition_flagged(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        for frag in fragments_for(rumor):
            auditor.on_deliver(1, mk_message(src=0, dst=5, payload=frag))
        counts = auditor.violation_counts()
        assert counts["reconstruction"] == 1
        assert counts["multiplicity"] >= 1
        assert not auditor.is_clean()

    def test_destination_completing_partition_clean(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        for frag in fragments_for(rumor):
            auditor.on_deliver(1, mk_message(src=0, dst=1, payload=frag))
        assert auditor.is_clean()

    def test_fragments_across_partitions_clean(self):
        """One fragment from each of two partitions reveals nothing."""
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag_a = fragments_for(rumor, partition=0)[0]
        frag_b = fragments_for(rumor, partition=1, seed=1)[1]
        auditor.on_deliver(1, mk_message(src=0, dst=5, payload=frag_a))
        auditor.on_deliver(1, mk_message(src=0, dst=5, payload=frag_b))
        assert auditor.is_clean()

    def test_gossip_batch_payloads_walked(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        item = GossipItem(
            uid=frag.uid, origin=0, payload=frag, expiry=10, dest=frozenset({5})
        )
        auditor.on_deliver(
            1, mk_message(src=0, dst=5, payload=(item,), service=ServiceTags.GROUP_GOSSIP)
        )
        assert 5 in auditor.fragment_holders[(rumor.rid, 0, 0)]

    def test_repeated_batch_deliveries_cached(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        item = GossipItem(
            uid=frag.uid, origin=0, payload=frag, expiry=10, dest=frozenset({5})
        )
        message = mk_message(src=0, dst=5, payload=(item,))
        auditor.on_deliver(1, message)
        auditor.on_deliver(2, message)
        assert len(auditor.knowledge[5]) == 1


class TestBorderMessages:
    def test_border_counted(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        auditor.on_deliver(1, mk_message(src=0, dst=5, payload=frag))
        assert auditor.border_messages[rumor.rid] == 1

    def test_inside_delivery_not_border(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        auditor.on_deliver(1, mk_message(src=0, dst=1, payload=frag))
        assert auditor.total_border_messages == 0

    def test_outsider_to_outsider_not_border(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        auditor.on_deliver(1, mk_message(src=6, dst=5, payload=frag))
        assert auditor.total_border_messages == 0

    def test_repeat_border_copies_counted(self):
        """Theorem 12 counts message copies, so repeats accumulate."""
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        item = GossipItem(
            uid=frag.uid, origin=0, payload=frag, expiry=10, dest=frozenset({5})
        )
        message = mk_message(src=0, dst=5, payload=(item,))
        auditor.on_deliver(1, message)
        auditor.on_deliver(2, message)
        assert auditor.border_messages[rumor.rid] == 2


class TestCoalitions:
    def _leak_fragments(self, auditor, rumor, holders_by_group):
        for group, holder in holders_by_group.items():
            frag = fragments_for(rumor)[group]
            auditor.on_deliver(1, mk_message(src=0, dst=holder, payload=frag))

    def test_min_coalition_size(self):
        auditor = make_auditor(num_partitions=1)
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        self._leak_fragments(auditor, rumor, {0: 5, 1: 6})
        assert auditor.min_coalition_size(rumor.rid, 8) == 2

    def test_min_coalition_none_when_fragment_never_leaked(self):
        auditor = make_auditor(num_partitions=1)
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        self._leak_fragments(auditor, rumor, {0: 5})
        assert auditor.min_coalition_size(rumor.rid, 8) is None

    def test_coalition_reconstructs(self):
        auditor = make_auditor(num_partitions=1)
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        self._leak_fragments(auditor, rumor, {0: 5, 1: 6})
        yes, partition = auditor.coalition_reconstructs(rumor.rid, {5, 6}, 8)
        assert yes and partition == 0
        no, _ = auditor.coalition_reconstructs(rumor.rid, {5}, 8)
        assert not no

    def test_check_coalitions_with_greedy(self):
        auditor = make_auditor(num_partitions=1)
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        self._leak_fragments(auditor, rumor, {0: 5, 1: 6})
        findings = auditor.check_coalitions(GreedyCoalition(), tau=2, n=8)
        assert len(findings) == 1
        assert findings[0].reconstructs

    def test_greedy_blocked_at_tau_one(self):
        auditor = make_auditor(num_partitions=1)
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        self._leak_fragments(auditor, rumor, {0: 5, 1: 6})
        findings = auditor.check_coalitions(GreedyCoalition(), tau=1, n=8)
        assert not findings[0].reconstructs

    def test_allowed_members_excluded_from_coalitions(self):
        auditor = make_auditor(num_partitions=1)
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        # Destination 1 legitimately holds fragments; outsider 5 has one.
        self._leak_fragments(auditor, rumor, {0: 5, 1: 1})
        # Coalition {5, 1} is invalid (1 is a destination): pooling only
        # counts outsiders.
        yes, _ = auditor.coalition_reconstructs(rumor.rid, {5, 1}, 8)
        assert not yes


class TestSummary:
    def test_summary_shape(self):
        auditor = make_auditor()
        summary = auditor.summary()
        assert set(summary) == {"rumors", "violations", "border_messages"}


# ----------------------------------------------------------------------
# Batch digest vs. the per-item reference
# ----------------------------------------------------------------------


class PerItemAuditor(ConfidentialityAuditor):
    """The reference: one message at a time, a gossip batch one item at a
    time, no fan-outs, no masks, no digest.

    Only the walk over deliveries and payloads is re-implemented; the
    verdict logic (``_absorb_atoms``, ``_is_border``, ``_check_ack``) is
    the auditor's own, so any disagreement is the fan-out path's doing.
    """

    def __init__(self, num_partitions, num_groups):
        super().__init__(num_partitions, num_groups)
        self.absorbed = defaultdict(set)

    def on_deliver_round(self, round_no, delivered):
        for message in delivered:
            self.on_deliver(round_no, message)

    def on_deliver(self, round_no, message):
        src, dst, payload = message.src, message.dst, message.payload
        if isinstance(payload, DirectAck):
            self._check_ack(round_no, message)
        if isinstance(payload, tuple) and all(
            isinstance(item, GossipItem) for item in payload
        ):
            parts = [(item.uid, tuple(reveals_of(item))) for item in payload]
        else:
            parts = [(None, tuple(reveals_of(payload)))]
        crossed = []
        for uid, atoms in parts:
            for atom in atoms:
                if (
                    atom[0] == "fragment"
                    and atom[1] not in crossed
                    and self._is_border(atom[1], src, dst)
                ):
                    crossed.append(atom[1])
            if uid is None:
                self._absorb_atoms(round_no, src, dst, atoms, None)
            elif atoms and uid not in self.absorbed[dst]:
                self.absorbed[dst].add(uid)
                self._absorb_atoms(round_no, src, dst, atoms, None)
        for rid in crossed:
            self.border_messages[rid] += 1
            self.total_border_messages += 1


def audit_state(auditor):
    return {
        "knowledge": {p: a for p, a in auditor.knowledge.items() if a},
        "fragment_holders": {
            k: h for k, h in auditor.fragment_holders.items() if h
        },
        "plaintext_holders": dict(auditor.plaintext_holders),
        "border_messages": dict(auditor.border_messages),
        "total_border_messages": auditor.total_border_messages,
        "violations": auditor.violations,
    }


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_digest_matches_per_item_reference(data):
    draw = data.draw
    n, partitions, groups = 6, 2, 2
    # Two rumors; pid 5 is in neither destination set and is no source,
    # so there is always an outsider to leak to.
    rumors = [
        mk_rumor(src=0, seq=0, dest=draw(st.sets(st.integers(1, 4), min_size=1))),
        mk_rumor(src=1, seq=1, dest=draw(st.sets(st.integers(2, 4), min_size=1))),
    ]
    pool = []
    for rumor in rumors:
        for partition in range(partitions):
            for frag in fragments_for(rumor, partition, groups):
                pool.append(GossipItem(
                    uid=frag.uid, origin=rumor.rid.src, payload=frag,
                    expiry=50, dest=frozenset(range(n)),
                ))
    for index in range(6):
        pool.append(GossipItem(
            uid=("gd/64/0", "share", index), origin=index % n,
            payload=("hitset", index), expiry=50, dest=frozenset(range(n)),
        ))
    leak = GossipItem(
        uid=("leak", rumors[0].rid), origin=0, payload=rumors[0],
        expiry=50, dest=frozenset(range(n)),
    )
    pool.append(leak)

    batched = ConfidentialityAuditor(partitions, groups)
    reference = PerItemAuditor(partitions, groups)
    in_flight = []

    def deliver(round_no, src, dst, payload):
        message = mk_message(
            src=src, dst=dst, service=ServiceTags.GROUP_GOSSIP, payload=payload
        )
        batched.on_deliver(round_no, message)
        reference.on_deliver(round_no, message)

    for round_no in range(draw(st.integers(1, 6), label="rounds")):
        if round_no < len(rumors):  # injections open a round, as in the engine
            for auditor in (batched, reference):
                auditor.on_inject(
                    round_no, rumors[round_no].rid.src, rumors[round_no]
                )
        for _ in range(draw(st.integers(0, 4))):
            if in_flight and draw(st.booleans()):
                src, payload = draw(st.sampled_from(in_flight))  # late copy
            else:
                chosen = draw(st.lists(st.sampled_from(pool), max_size=16))
                payload = draw(st.sampled_from([tuple, ItemBatch]))(chosen)
                src = draw(st.integers(0, n - 1))
                in_flight.append((src, payload))
            # One payload object, fanned out (possibly twice to one pid).
            for dst in draw(st.lists(st.integers(0, n - 1), max_size=5)):
                deliver(round_no, src, dst, payload)
        assert audit_state(batched) == audit_state(reference)

    # The planted leak: the auditor must still bite, on both paths alike.
    deliver(7, 0, 5, ItemBatch(pool))
    assert audit_state(batched) == audit_state(reference)
    assert not batched.is_clean()
    assert any(
        v.kind == "plaintext" and v.pid == 5 and v.rid == rumors[0].rid
        for v in batched.violations
    )


# ----------------------------------------------------------------------
# Fan-outs over a round's delivered list vs. the same reference
# ----------------------------------------------------------------------


def _audit_stream(auditor, stream, injections):
    """Feed ``stream`` (one delivered list per round) through the round
    hook; ``injections[round]`` open that round, as in the engine."""
    states = []
    for round_no, delivered in enumerate(stream):
        for pid, rumor in injections.get(round_no, ()):
            auditor.on_inject(round_no, pid, rumor)
        auditor.on_deliver_round(round_no, delivered)
        states.append(copy.deepcopy(audit_state(auditor)))
    return states


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fanout_audit_matches_per_message_reference(data):
    draw = data.draw
    n, partitions, groups = 7, 2, 2
    # pid 6 is in no destination set and is no source: always an outsider.
    rumors = [
        mk_rumor(src=0, seq=0, dest=draw(st.sets(st.integers(1, 5), min_size=1))),
        mk_rumor(src=1, seq=1, dest=draw(st.sets(st.integers(2, 5), min_size=1))),
        mk_rumor(src=2, seq=2, dest=draw(st.sets(st.integers(3, 5), min_size=1))),
    ]
    # The third rumor is registered only after its fragments circulate.
    scheduled = {0: [(0, rumors[0])], 1: [(1, rumors[1])], 3: [(2, rumors[2])]}
    everyone = frozenset(range(n))
    fragments = [
        frag
        for rumor in rumors
        for partition in range(partitions)
        for frag in fragments_for(rumor, partition, groups)
    ]
    pool = [
        GossipItem(uid=frag.uid, origin=frag.rid.src, payload=frag,
                   expiry=50, dest=everyone)
        for frag in fragments
    ]
    pool += [
        GossipItem(uid=("gd/64/0", "share", index), origin=index % n,
                   payload=("hitset", index), expiry=50, dest=everyone)
        for index in range(6)
    ]
    # A plaintext leak, and a second object under an already-used uid.
    pool.append(GossipItem(uid=("leak", 0), origin=0, payload=rumors[0],
                           expiry=50, dest=everyone))
    pool.append(GossipItem(uid=pool[0].uid, origin=3, payload=fragments[1],
                           expiry=50, dest=everyone))

    items = st.lists(st.sampled_from(pool), max_size=12)
    frags = st.lists(st.sampled_from(fragments), min_size=1, max_size=3)
    payloads = st.one_of(
        items.map(ItemBatch),
        items.map(tuple),
        frags.map(lambda chosen: ("not-an-item",) + tuple(chosen)),
        frags.map(lambda chosen: FragmentDelivery(0, tuple(chosen))),
        st.sampled_from(rumors),
        st.builds(DirectAck, st.sampled_from(rumors).map(lambda r: r.rid),
                  st.sampled_from([3, b"leaked-bytes"])),
    )

    stream, sent = [], []
    for _ in range(draw(st.integers(1, 6), label="rounds")):
        delivered = []
        for _ in range(draw(st.integers(0, 6), label="fan-outs")):
            if sent and draw(st.booleans()):
                # A payload object seen before, from the same or another
                # sender: a later fan-out of a standing batch.
                payload = draw(st.sampled_from(sent)).payload
            else:
                payload = draw(payloads)
            src = draw(st.integers(0, n - 1))
            # Possibly the same pid twice inside one run.
            for dst in draw(st.lists(st.integers(0, n - 1), max_size=5)):
                delivered.append(mk_message(
                    src=src, dst=dst, service=ServiceTags.GROUP_GOSSIP,
                    payload=payload,
                ))
        sent.extend(delivered)
        # Matured chaos copies: earlier messages again, in any order.
        if sent:
            delivered.extend(draw(st.lists(st.sampled_from(sent), max_size=4)))
        stream.append(delivered)

    def both(injections):
        fanout = ConfidentialityAuditor(partitions, groups)
        reference = PerItemAuditor(partitions, groups)
        got = _audit_stream(fanout, stream, injections)
        assert got == _audit_stream(reference, stream, injections)
        return fanout

    both(scheduled)
    # A second auditor over the very same ItemBatch objects, their digests
    # already resolved, but with every rumor registered up front: nothing
    # of the first auditor's view may have travelled with the batch.
    upfront = {0: [entry for entries in scheduled.values() for entry in entries]}
    both(upfront)


@given(st.integers(min_value=0, max_value=2 ** 200))
def test_popcount_spellings_agree(mask):
    assert popcount(mask) == _popcount_bin(mask) == sum(
        mask >> bit & 1 for bit in range(mask.bit_length())
    )
