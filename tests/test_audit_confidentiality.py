"""Tests for repro.audit.confidentiality: the knowledge auditor."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.collusion import GreedyCoalition, min_cover_size
from repro.audit.confidentiality import (
    ConfidentialityAuditor,
    Violation,
    _popcount_bin,
    pids_of,
    popcount,
)
from repro.core.confidential_gossip import DirectAck
from repro.core.group_distribution import FragmentDelivery
from repro.core.splitting import split_rumor
from repro.gossip.rumor import GossipItem, ItemBatch
from repro.sim.engine import flatten
from repro.sim.messages import (
    ServiceTags, fragment_atom, plaintext_atom, reveals_of,
)

from conftest import atom_holders, deliver, mk_message, mk_rumor


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
        assert auditor.holders(plaintext_atom(rumor.rid)) == {0}

    def test_delivery_to_destination_clean(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        deliver(auditor, 1, mk_message(src=0, dst=1, payload=rumor))
        assert auditor.is_clean()

    def test_delivery_to_outsider_flagged(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=rumor))
        assert not auditor.is_clean()
        assert auditor.violation_counts()["plaintext"] == 1

    def test_duplicate_delivery_single_violation(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=rumor))
        deliver(auditor, 2, mk_message(src=0, dst=5, payload=rumor))
        assert auditor.violation_counts()["plaintext"] == 1


class TestFragmentTracking:
    def test_single_fragment_clean(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=frag))
        assert auditor.is_clean()

    def test_outsider_completing_partition_flagged(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        for frag in fragments_for(rumor):
            deliver(auditor, 1, mk_message(src=0, dst=5, payload=frag))
        counts = auditor.violation_counts()
        assert counts["reconstruction"] == 1
        assert counts["multiplicity"] >= 1
        assert not auditor.is_clean()

    def test_destination_completing_partition_clean(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        for frag in fragments_for(rumor):
            deliver(auditor, 1, mk_message(src=0, dst=1, payload=frag))
        assert auditor.is_clean()

    def test_fragments_across_partitions_clean(self):
        """One fragment from each of two partitions reveals nothing."""
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag_a = fragments_for(rumor, partition=0)[0]
        frag_b = fragments_for(rumor, partition=1, seed=1)[1]
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=frag_a))
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=frag_b))
        assert auditor.is_clean()

    def test_gossip_batch_payloads_walked(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        item = GossipItem(
            uid=frag.uid, origin=0, payload=frag, expiry=10, dest=frozenset({5})
        )
        deliver(
            auditor, 1,
            mk_message(src=0, dst=5, payload=(item,), service=ServiceTags.GROUP_GOSSIP),
        )
        assert auditor.holders(fragment_atom(rumor.rid, 0, 0)) == {5}

    def test_repeated_batch_deliveries_cached(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        item = GossipItem(
            uid=frag.uid, origin=0, payload=frag, expiry=10, dest=frozenset({5})
        )
        message = mk_message(src=0, dst=5, payload=(item,))
        deliver(auditor, 1, message)
        deliver(auditor, 2, message)
        assert atom_holders(auditor) == {
            plaintext_atom(rumor.rid): {0},
            fragment_atom(rumor.rid, 0, 0): {5},
        }


class TestReusedUid:
    """A curious receiver reads every payload it is handed: a second
    fragment under a uid it already holds is still learned."""

    def _items(self, rumor):
        first, second = fragments_for(rumor)
        return [
            GossipItem(uid=("reused",), origin=0, payload=frag, expiry=10,
                       dest=frozenset({5}))
            for frag in (first, second)
        ]

    def _assert_outsider_learned_both(self, auditor, rumor):
        assert auditor.violation_counts()["multiplicity"] == 1
        assert auditor.violation_counts()["reconstruction"] == 1
        assert [(v.kind, v.pid) for v in auditor.violations] == [
            ("multiplicity", 5), ("reconstruction", 5),
        ]
        assert auditor.holders(fragment_atom(rumor.rid, 0, 1)) == {5}
        assert not auditor.is_clean()

    def test_across_two_fanouts(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        for round_no, item in enumerate(self._items(rumor), 1):
            deliver(auditor, round_no,
                    mk_message(src=0, dst=5, payload=ItemBatch([item])))
        self._assert_outsider_learned_both(auditor, rumor)

    def test_inside_one_batch(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        batch = ItemBatch(self._items(rumor))
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=batch))
        self._assert_outsider_learned_both(auditor, rumor)


class TestBorderMessages:
    def test_border_counted(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        deliver(auditor, 1, mk_message(src=0, dst=5, payload=frag))
        assert auditor.border_messages[rumor.rid] == 1

    def test_inside_delivery_not_border(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        deliver(auditor, 1, mk_message(src=0, dst=1, payload=frag))
        assert auditor.total_border_messages == 0

    def test_outsider_to_outsider_not_border(self):
        auditor = make_auditor()
        rumor = mk_rumor(src=0, dest=(1,))
        auditor.on_inject(0, 0, rumor)
        frag = fragments_for(rumor)[0]
        deliver(auditor, 1, mk_message(src=6, dst=5, payload=frag))
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
        deliver(auditor, 1, message)
        deliver(auditor, 2, message)
        assert auditor.border_messages[rumor.rid] == 2


class TestCoalitions:
    def _leak_fragments(self, auditor, rumor, holders_by_group):
        for group, holder in holders_by_group.items():
            frag = fragments_for(rumor)[group]
            deliver(auditor, 1, mk_message(src=0, dst=holder, payload=frag))

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


class PerItemAuditor:
    """The reference: one message at a time (a fan-out cut is flattened
    back into its messages), a payload walked atom by atom, and per
    process the set of atoms it knows — no masks, no digest.  A curious
    receiver learns every atom it is handed, whatever uid it came under.
    Its verdict logic is the per-process one the holder-mask auditor
    replaced; only the direct-ack check is the auditor's own.
    """

    def __init__(self, num_partitions, num_groups):
        self.num_partitions = num_partitions
        self.num_groups = num_groups
        self.rumors, self.sources = {}, {}
        self.knowledge = defaultdict(set)
        self.violations = []
        self.border_messages = defaultdict(int)
        self.total_border_messages = 0

    def on_inject(self, round_no, pid, rumor):
        self.rumors[rumor.rid] = rumor
        self.sources[rumor.rid] = pid
        self.knowledge[pid].add(plaintext_atom(rumor.rid))

    def allowed_set(self, rid):
        if rid not in self.rumors:
            return frozenset()
        return frozenset(self.rumors[rid].dest) | {self.sources[rid]}

    def holders(self, atom):
        return frozenset(pid for pid, known in self.knowledge.items() if atom in known)

    def holder_map(self, rid, n):
        outsiders = set(range(n)) - self.allowed_set(rid)
        found = {}
        for partition in range(self.num_partitions):
            for group in range(self.num_groups):
                pids = self.holders(fragment_atom(rid, partition, group)) & outsiders
                if pids:
                    found[(partition, group)] = set(pids)
        return found

    def min_coalition_size(self, rid, n):
        holders = self.holder_map(rid, n)
        sizes = [
            size
            for size in (
                min_cover_size(holders, partition, self.num_groups)
                for partition in range(self.num_partitions)
            )
            if size is not None
        ]
        return min(sizes, default=None)

    def on_fanouts(self, round_no, cut):
        for message in flatten(cut):
            self.deliver_message(round_no, message)

    def deliver_message(self, round_no, message):
        src, dst, payload = message.src, message.dst, message.payload
        atoms = tuple(reveals_of(payload))
        if isinstance(payload, DirectAck):
            ConfidentialityAuditor._check_ack(
                self, round_no, payload, atoms, [dst], self.violations
            )
        crossed = []
        for atom in atoms:
            allowed = self.allowed_set(atom[1])
            if (
                atom[0] == "fragment"
                and atom[1] not in crossed
                and src in allowed
                and dst not in allowed
            ):
                crossed.append(atom[1])
        self.absorb(round_no, dst, atoms)
        for rid in crossed:
            self.border_messages[rid] += 1
            self.total_border_messages += 1

    def absorb(self, round_no, dst, atoms):
        known = self.knowledge[dst]
        for atom in atoms:
            if atom[0] not in ("fragment", "plaintext") or atom in known:
                continue
            known.add(atom)
            rid = atom[1]
            if rid not in self.rumors or dst in self.allowed_set(rid):
                continue
            if atom[0] == "plaintext":
                self.violations.append(Violation(
                    "plaintext", rid, dst, round_no,
                    "plaintext delivered outside destination set",
                ))
                continue
            partition = atom[2]
            held = [
                group
                for group in range(self.num_groups)
                if fragment_atom(rid, partition, group) in known
            ]
            if len(held) >= 2:
                self.violations.append(Violation(
                    "multiplicity", rid, dst, round_no,
                    "outsider holds groups {} of partition {}".format(
                        held, partition
                    ),
                ))
            if len(held) == self.num_groups:
                self.violations.append(Violation(
                    "reconstruction", rid, dst, round_no,
                    "outsider completed partition {}".format(partition),
                ))


def audit_state(auditor, rumors, n):
    """Everything either auditor concludes: per-atom holders, per-rid
    border counts, the violations in order and the coalition view."""
    rids = [rumor.rid for rumor in rumors]
    atoms = [plaintext_atom(rid) for rid in rids] + [
        fragment_atom(rid, partition, group)
        for rid in rids
        for partition in range(auditor.num_partitions)
        for group in range(auditor.num_groups)
    ]
    return {
        "holders": {atom: auditor.holders(atom) for atom in atoms},
        "border_messages": dict(auditor.border_messages),
        "total_border_messages": auditor.total_border_messages,
        "violations": list(auditor.violations),
        "holder_map": {rid: auditor.holder_map(rid, n) for rid in rids},
        "min_coalition_size": {
            rid: auditor.min_coalition_size(rid, n) for rid in rids
        },
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

    def send(round_no, src, dst, payload):
        message = mk_message(
            src=src, dst=dst, service=ServiceTags.GROUP_GOSSIP, payload=payload
        )
        deliver(batched, round_no, message)
        reference.deliver_message(round_no, message)

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
                send(round_no, src, dst, payload)
        assert audit_state(batched, rumors, n) == audit_state(reference, rumors, n)

    # The planted leak: the auditor must still bite, on both paths alike.
    send(7, 0, 5, ItemBatch(pool))
    assert audit_state(batched, rumors, n) == audit_state(reference, rumors, n)
    assert not batched.is_clean()
    assert any(
        v.kind == "plaintext" and v.pid == 5 and v.rid == rumors[0].rid
        for v in batched.violations
    )


# ----------------------------------------------------------------------
# Fan-outs over a round's delivered list vs. the same reference
# ----------------------------------------------------------------------


def _audit_stream(auditor, stream, injections, rumors, n):
    """Feed ``stream`` (one delivered list per round) through the fan-out
    hook; ``injections[round]`` open that round, as in the engine."""
    states = []
    for round_no, delivered in enumerate(stream):
        for pid, rumor in injections.get(round_no, ()):
            auditor.on_inject(round_no, pid, rumor)
        deliver(auditor, round_no, *delivered)
        states.append(audit_state(auditor, rumors, n))
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
        got = _audit_stream(fanout, stream, injections, rumors, n)
        assert got == _audit_stream(reference, stream, injections, rumors, n)
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


def test_fanout_violations_follow_delivered_order():
    # Two outsiders complete a partition in one fan-out, delivered 5
    # before 3: a message-at-a-time audit raises 5's breaches first, and
    # so must the fan-out.  Then a new item repeats an atom both already
    # hold, which breaches nothing more.
    rumor = mk_rumor(src=0, dest=(1,))
    first, second = fragments_for(rumor)
    batches = [
        ItemBatch([GossipItem(uid=(uid,), origin=0, payload=frag, expiry=50,
                              dest=frozenset(range(8)))])
        for uid, frag in (("a", first), ("b", second), ("c", second))
    ]
    auditor, reference = make_auditor(num_partitions=1), PerItemAuditor(1, 2)
    for each in (auditor, reference):
        each.on_inject(0, 0, rumor)
        for round_no, batch in enumerate(batches, 1):
            deliver(each, round_no, *(
                mk_message(src=0, dst=dst, payload=batch) for dst in (5, 3)
            ))
    assert [(v.kind, v.pid, v.round_no) for v in auditor.violations] == [
        ("multiplicity", 5, 2), ("reconstruction", 5, 2),
        ("multiplicity", 3, 2), ("reconstruction", 3, 2),
    ]
    assert auditor.violations == reference.violations


@given(st.integers(min_value=0, max_value=2 ** 200))
def test_pids_of_lists_the_set_bits(mask):
    assert list(pids_of(mask)) == [
        bit for bit in range(mask.bit_length()) if mask >> bit & 1
    ]
