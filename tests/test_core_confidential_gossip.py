"""Unit tests for the ConfidentialGossip coordinator (Figure 8 logic)."""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.confidential_gossip import ConfidentialGossipCoordinator
from repro.core.config import CongosParams
from repro.core.group_distribution import DistributionShare
from repro.core.partitions import BitPartitions
from repro.core.splitting import split_rumor
from repro.gossip.rumor import RumorId
from repro.sim.messages import ServiceTags

from conftest import mk_message, mk_rumor


def make_coordinator(pid=0, n=8, deliveries=None, params=None):
    params = params if params is not None else CongosParams()
    partitions = BitPartitions(n)
    callback = None
    if deliveries is not None:
        callback = lambda p, r, rid, data, path: deliveries.append(
            (p, r, rid, data, path)
        )
    return ConfidentialGossipCoordinator(pid, n, params, partitions, callback)


def share(dline, partition, group, entries, sender=1):
    return DistributionShare(
        sender=sender,
        dline=dline,
        partition=partition,
        group=group,
        hits=frozenset(entries),
    )


class TestDeliverLocal:
    def test_records_and_notifies(self):
        deliveries = []
        coordinator = make_coordinator(deliveries=deliveries)
        rumor = mk_rumor()
        coordinator.deliver_local(5, rumor.rid, rumor.data, "local")
        assert coordinator.delivered() == {rumor.rid: rumor.data}
        assert deliveries == [(0, 5, rumor.rid, rumor.data, "local")]

    def test_idempotent(self):
        deliveries = []
        coordinator = make_coordinator(deliveries=deliveries)
        rumor = mk_rumor()
        coordinator.deliver_local(5, rumor.rid, rumor.data, "local")
        coordinator.deliver_local(6, rumor.rid, rumor.data, "shoot")
        assert len(deliveries) == 1
        assert coordinator.deliveries[rumor.rid].path == "local"


class TestReassembly:
    def test_complete_partition_reassembles(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(data=b"classified")
        fragments = split_rumor(rumor, 0, 2, random.Random(0), 64, 100)
        coordinator.on_fragment(10, fragments[0])
        assert rumor.rid not in coordinator.delivered()
        coordinator.on_fragment(11, fragments[1])
        assert coordinator.delivered()[rumor.rid] == b"classified"
        assert coordinator.reassemblies == 1

    def test_duplicate_fragment_ignored(self):
        coordinator = make_coordinator()
        rumor = mk_rumor()
        fragments = split_rumor(rumor, 0, 2, random.Random(0), 64, 100)
        coordinator.on_fragment(10, fragments[0])
        coordinator.on_fragment(11, fragments[0])
        assert rumor.rid not in coordinator.delivered()

    def test_fragments_across_partitions_do_not_mix(self):
        coordinator = make_coordinator()
        rumor = mk_rumor()
        rng = random.Random(0)
        p0 = split_rumor(rumor, 0, 2, rng, 64, 100)
        p1 = split_rumor(rumor, 1, 2, rng, 64, 100)
        coordinator.on_fragment(10, p0[0])
        coordinator.on_fragment(11, p1[1])
        assert rumor.rid not in coordinator.delivered()


class TestConfirmation:
    def test_confirms_when_all_groups_cover(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1, 2))
        coordinator.register(0, rumor, dline=64)
        entries = {(1, rumor.rid), (2, rumor.rid)}
        coordinator.on_distribution_share(10, share(64, 2, 0, entries))
        coordinator.on_distribution_share(10, share(64, 2, 1, entries))
        coordinator.end_round(10)
        assert rumor.rid not in coordinator.pending_rumors()
        assert coordinator.confirmations == 1

    def test_partial_coverage_does_not_confirm(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1, 2))
        coordinator.register(0, rumor, dline=64)
        coordinator.on_distribution_share(
            10, share(64, 0, 0, {(1, rumor.rid), (2, rumor.rid)})
        )
        coordinator.on_distribution_share(10, share(64, 0, 1, {(1, rumor.rid)}))
        coordinator.end_round(10)
        assert rumor.rid in coordinator.pending_rumors()

    def test_coverage_must_be_same_partition(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1,))
        coordinator.register(0, rumor, dline=64)
        coordinator.on_distribution_share(10, share(64, 0, 0, {(1, rumor.rid)}))
        coordinator.on_distribution_share(10, share(64, 1, 1, {(1, rumor.rid)}))
        coordinator.end_round(10)
        assert rumor.rid in coordinator.pending_rumors()

    def test_wrong_dline_does_not_confirm(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1,))
        coordinator.register(0, rumor, dline=64)
        coordinator.on_distribution_share(10, share(128, 0, 0, {(1, rumor.rid)}))
        coordinator.on_distribution_share(10, share(128, 0, 1, {(1, rumor.rid)}))
        coordinator.end_round(10)
        assert rumor.rid in coordinator.pending_rumors()

    def test_confirmed_rumor_not_shot(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1,), deadline=64)
        coordinator.register(0, rumor, dline=64)
        entries = {(1, rumor.rid)}
        coordinator.on_distribution_share(5, share(64, 0, 0, entries))
        coordinator.on_distribution_share(5, share(64, 0, 1, entries))
        messages = coordinator.send_phase(64)  # the deadline round
        assert messages == []
        assert coordinator.fallbacks == 0


class TestFallback:
    def test_shoot_at_deadline(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1, 3), deadline=64)
        coordinator.register(0, rumor, dline=64)
        assert coordinator.send_phase(63) == []
        messages = coordinator.send_phase(64)
        assert sorted(m.dst for m in messages) == [1, 3]
        assert all(m.service == ServiceTags.CONFIDENTIAL for m in messages)
        assert coordinator.fallbacks == 1
        # Cache entry consumed; no double shooting.
        assert coordinator.send_phase(64) == []

    def test_shoot_skips_self(self):
        coordinator = make_coordinator(pid=0)
        rumor = mk_rumor(dest=(0, 1), deadline=64)
        coordinator.register(0, rumor, dline=64)
        messages = coordinator.send_phase(64)
        assert [m.dst for m in messages] == [1]

    def test_direct_send_immediate(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(2,), deadline=8)
        coordinator.direct_send(0, rumor)
        messages = coordinator.send_phase(0)
        assert [m.dst for m in messages] == [2]
        assert coordinator.direct_sends == 1

    def test_shoot_received_delivers(self):
        deliveries = []
        coordinator = make_coordinator(pid=1, deliveries=deliveries)
        rumor = mk_rumor(dest=(1,))
        coordinator.on_message(9, mk_message(payload=rumor, channel="shoot"))
        assert deliveries[0][2] == rumor.rid
        assert deliveries[0][4] == "shoot"

    def test_unexpected_payload_rejected(self):
        coordinator = make_coordinator()
        with pytest.raises(TypeError):
            coordinator.on_message(0, mk_message(payload={"weird": 1}))


class TestPendingQueries:
    def test_pending_rumors_listed(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1,))
        coordinator.register(0, rumor, dline=64)
        assert coordinator.pending_rumors() == [rumor.rid]

    def test_empty_destination_confirms_trivially(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=())
        coordinator.register(0, rumor, dline=64)
        coordinator.on_distribution_share(1, share(64, 0, 0, set()))
        coordinator.end_round(1)
        assert coordinator.pending_rumors() == []
        assert coordinator.confirmations == 1


def mentions(value, rid):
    """Whether ``rid`` appears anywhere inside ``value``: dict keys and
    values, set and sequence members, dataclass fields."""
    if value == rid:
        return True
    if isinstance(value, dict):
        return any(
            mentions(key, rid) or mentions(item, rid) for key, item in value.items()
        )
    if isinstance(value, (set, frozenset, list, tuple)):
        return any(mentions(item, rid) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(
            mentions(getattr(value, f.name), rid) for f in dataclasses.fields(value)
        )
    return False


def traces(coordinator, rid):
    return sorted(
        name for name, value in vars(coordinator).items() if mentions(value, rid)
    )


class TestFinishedRumorLeavesNoTrace:
    def test_confirmed_rumor_forgotten(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1, 2))
        coordinator.register(0, rumor, dline=64)
        entries = {(1, rumor.rid), (2, rumor.rid)}
        coordinator.on_distribution_share(10, share(64, 0, 0, entries))
        assert traces(coordinator, rumor.rid) == ["rumor_cache"]
        coordinator.on_distribution_share(10, share(64, 0, 1, entries))
        coordinator.end_round(10)
        assert coordinator.confirmations == 1
        assert traces(coordinator, rumor.rid) == []
        # A share arriving after confirmation is not kept either.
        coordinator.on_distribution_share(20, share(64, 1, 0, entries))
        coordinator.end_round(20)
        assert coordinator.send_phase(64) == []
        assert traces(coordinator, rumor.rid) == []

    def test_shot_rumor_forgotten(self):
        coordinator = make_coordinator()
        rumor = mk_rumor(dest=(1, 2), deadline=64)
        coordinator.register(0, rumor, dline=64)
        coordinator.on_distribution_share(10, share(64, 0, 0, {(1, rumor.rid)}))
        coordinator.on_distribution_share(10, share(64, 0, 1, {(1, rumor.rid)}))
        coordinator.end_round(10)
        assert coordinator.confirmations == 0
        assert sorted(m.dst for m in coordinator.send_phase(64)) == [1, 2]
        assert traces(coordinator, rumor.rid) == []

    def test_reassembled_rumor_leaves_no_fragments(self):
        coordinator = make_coordinator(pid=1)
        rumor = mk_rumor(dest=(1,))
        rng = random.Random(0)
        p0 = split_rumor(rumor, 0, 2, rng, 64, 100)
        p1 = split_rumor(rumor, 1, 2, rng, 64, 100)
        coordinator.on_fragment(10, p1[0])
        coordinator.on_fragment(10, p0[0])
        coordinator.on_fragment(11, p0[1])
        assert coordinator.deliveries[rumor.rid].path == "reassembled"
        assert coordinator.fragment_store == {}
        coordinator.on_fragment(12, p1[1])  # late: no bucket, no delivery
        assert coordinator.fragment_store == {}
        assert coordinator.reassemblies == 1

    def test_shot_rumor_drops_its_fragments(self):
        coordinator = make_coordinator(pid=1)
        rumor = mk_rumor(dest=(1,))
        fragments = split_rumor(rumor, 0, 2, random.Random(0), 64, 100)
        coordinator.on_fragment(10, fragments[0])
        coordinator.on_message(11, mk_message(payload=rumor, channel="shoot"))
        assert coordinator.fragment_store == {}
        coordinator.on_fragment(12, fragments[1])
        assert coordinator.fragment_store == {}
        assert coordinator.reassemblies == 0


class ReferenceHitSetM:
    """Figure 8's source side with the full hitSetM: every share is folded
    into one (dline, partition, group) matrix, whatever rids it names,
    and a confirmed rumor stays registered."""

    def __init__(self, pid, partition_set, scope):
        self.pid = pid
        self.partition_set = partition_set
        self.scope = scope
        self.matrix = {}
        self.cache = {}
        self.confirmed = set()
        self.confirmations = 0
        self.fallbacks = 0
        self.dirty = False

    def register(self, round_no, rumor, dline):
        self.cache[rumor.rid] = (rumor, dline, round_no)

    def on_share(self, share):
        key = (share.dline, share.partition, share.group)
        self.matrix.setdefault(key, set()).update(share.hits)
        self.dirty = True

    def holds(self, entries, dline, partition):
        return all(
            entries <= self.matrix.get((dline, partition, group), set())
            for group in range(self.partition_set.num_groups)
        )

    def check(self):
        if not self.dirty:
            return
        self.dirty = False
        for rid, (rumor, dline, _) in self.cache.items():
            need = {(dst, rid) for dst in rumor.dest}
            if rid not in self.confirmed and any(
                self.holds(need, dline, partition)
                for partition in range(self.partition_set.count)
            ):
                self.confirmed.add(rid)
                self.confirmations += 1

    def send_phase(self, round_no):
        self.check()
        sends = []
        for rid, (rumor, dline, injected_at) in list(self.cache.items()):
            if rid in self.confirmed or round_no < injected_at + rumor.deadline:
                continue
            targets = set(rumor.dest)
            if self.scope == "unconfirmed":
                targets = {
                    dst
                    for dst in targets
                    if not any(
                        self.holds({(dst, rid)}, dline, partition)
                        for partition in range(self.partition_set.count)
                    )
                }
            sends.extend((dst, rid) for dst in sorted(targets) if dst != self.pid)
            self.fallbacks += 1
            del self.cache[rid]
        return sends

    def pending(self):
        return [rid for rid in self.cache if rid not in self.confirmed]


FOREIGN = RumorId(5, 0)
DLINES = (64, 128)

operations = st.one_of(
    st.tuples(
        st.just("register"),
        st.integers(0, 2),
        st.sampled_from(DLINES),
        st.sets(st.integers(0, 7), max_size=4),
    ),
    st.tuples(
        st.just("share"),
        st.sampled_from(DLINES),
        st.integers(0, 2),
        st.integers(0, 1),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=8),
        st.sampled_from((set(), set(range(8)), {1, 2}, {3, 4, 5})),
    ),
    st.tuples(st.just("send"), st.integers(0, 40)),
    st.tuples(st.just("end"), st.integers(0, 40)),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scope=st.sampled_from(("all", "unconfirmed")),
    stream=st.lists(operations, max_size=40),
)
def test_forgetting_changes_no_decision(scope, stream):
    """Keeping hitSetM per own pending rumor, and dropping a rumor once
    confirmed or shot, confirms and shoots exactly as the full matrix
    does: same confirmation count, same fallback sends in order."""
    coordinator = make_coordinator(params=CongosParams(fallback_scope=scope))
    reference = ReferenceHitSetM(0, coordinator.partition_set, scope)
    rumors = {}
    round_no = 0
    for op in stream:
        kind = op[0]
        if kind == "register":
            _, seq, dline, dest = op
            if seq in rumors:
                continue
            rumors[seq] = rumor = mk_rumor(
                seq=seq, dest=dest, deadline=dline, injected_at=round_no
            )
            coordinator.register(round_no, rumor, dline)
            reference.register(round_no, rumor, dline)
        elif kind == "share":
            _, dline, partition, group, entries, cover = op
            # A share names a rid only once its source registered it.
            hits = {
                (dst, rumors[seq].rid if seq in rumors else FOREIGN)
                for dst, seq in entries
            }
            # Name these destinations of every registered rumor: a few
            # fixed sets, so that both groups of a partition often agree.
            hits |= {
                (dst, rumor.rid)
                for rumor in rumors.values()
                for dst in rumor.dest & cover
            }
            record = share(dline, partition, group, hits)
            coordinator.on_distribution_share(round_no, record)
            reference.on_share(record)
        elif kind == "send":
            round_no += op[1]
            sends = [
                (m.dst, m.payload.rumor.rid) for m in coordinator.send_phase(round_no)
            ]
            assert sends == reference.send_phase(round_no)
        else:
            round_no += op[1]
            coordinator.end_round(round_no)
            reference.check()
        assert coordinator.confirmations == reference.confirmations
        assert coordinator.fallbacks == reference.fallbacks
        assert coordinator.pending_rumors() == reference.pending()
