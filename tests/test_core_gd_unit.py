"""Direct unit tests of the GroupDistributionService state machine (Fig 10)."""

import random

import pytest

from repro.core import group_distribution as gd_mod
from repro.core.config import CongosParams
from repro.core.group_distribution import (
    DistributionShare,
    FragmentDelivery,
    GDShare,
    GroupDistributionService,
)
from repro.core.partitions import BitPartitions
from repro.core.splitting import split_rumor
from repro.gossip.continuous import ContinuousGossip
from repro.sim.clock import BlockSchedule
from repro.sim.messages import Message, ServiceTags

from conftest import mk_rumor

N = 8
DLINE = 64  # block 16, activation round offset 1
PARTITION = 0


def make_gd(pid=0, wakeup=-100, params=None, received=None):
    partitions = BitPartitions(N)
    resolved = params if params is not None else CongosParams()
    scope = partitions.members(PARTITION, partitions.group_of(PARTITION, pid))
    gossip = ContinuousGossip(pid, N, "gg-test", scope, random.Random(1))
    all_gossip = ContinuousGossip(pid, N, "all-test", range(N), random.Random(2))
    sink = received if received is not None else []
    service = GroupDistributionService(
        pid=pid,
        n=N,
        channel="gd-test",
        schedule=BlockSchedule(DLINE),
        partition=PARTITION,
        partition_set=partitions,
        params=resolved,
        rng=random.Random(3),
        gossip=gossip,
        all_gossip=all_gossip,
        on_fragments=lambda r, frags: sink.extend(frags),
        wakeup=wakeup,
    )
    return service, partitions, gossip, all_gossip


def own_fragment(partitions, pid=0, seq=0, dest=(3, 5), expiry=1000):
    my_group = partitions.group_of(PARTITION, pid)
    rumor = mk_rumor(seq=seq, dest=dest)
    fragments = split_rumor(rumor, PARTITION, 2, random.Random(seq), DLINE, expiry)
    return fragments[my_group]


class TestActivation:
    def test_uptime_gate(self):
        service, *_ = make_gd(wakeup=0)
        service.send_phase(17)  # block 1 activation round, uptime 17 < 42
        assert service.status == gd_mod.WAITING
        service.send_phase(49)  # block 3 activation, uptime 49 >= 42
        assert service.status == gd_mod.ACTIVE

    def test_active_regardless_of_fragments(self):
        """Unlike the Proxy, GD's census counts every uptime-qualified
        member (Section 4.5)."""
        service, *_ = make_gd()
        service.send_phase(17)
        assert service.status == gd_mod.ACTIVE
        assert service.partials == {}

    def test_waiting_collected_at_activation(self):
        service, partitions, *_ = make_gd()
        fragment = own_fragment(partitions)
        service.add_waiting(5, fragment)
        service.send_phase(17)
        assert fragment.uid in service.partials

    def test_wrong_group_fragment_rejected(self):
        service, partitions, *_ = make_gd(pid=0)
        my_group = partitions.group_of(PARTITION, 0)
        rumor = mk_rumor()
        fragments = split_rumor(rumor, PARTITION, 2, random.Random(0), DLINE, 100)
        with pytest.raises(ValueError):
            service.add_waiting(5, fragments[1 - my_group])

    def test_expired_waiting_dropped(self):
        service, partitions, *_ = make_gd()
        fragment = own_fragment(partitions, expiry=10)
        service.add_waiting(5, fragment)
        service.send_phase(17)
        assert service.partials == {}

    def test_local_destination_served_at_activation(self):
        received = []
        service, partitions, *_ = make_gd(pid=0, received=received)
        fragment = own_fragment(partitions, dest=(0, 5))
        service.add_waiting(5, fragment)
        service.send_phase(17)
        assert received == [fragment]
        assert (0, fragment.rid) in service.hit_set


class TestDistribution:
    def test_sends_only_to_destinations(self):
        service, partitions, *_ = make_gd()
        fragment = own_fragment(partitions, dest=(3, 5))
        service.add_waiting(5, fragment)
        messages = service.send_phase(17)
        assert messages
        assert {m.dst for m in messages} <= {3, 5}
        for message in messages:
            assert isinstance(message.payload, FragmentDelivery)
            for frag in message.payload.fragments:
                assert message.dst in frag.dest

    def test_hits_recorded_per_send(self):
        service, partitions, *_ = make_gd()
        fragment = own_fragment(partitions, dest=(3, 5))
        service.add_waiting(5, fragment)
        messages = service.send_phase(17)
        for message in messages:
            assert (message.dst, fragment.rid) in service.hit_set

    def test_hit_destinations_not_resent_within_block(self):
        service, partitions, *_ = make_gd()
        service.send_phase(17)  # activate with empty partials
        fragment = own_fragment(partitions, dest=(3,))
        service.partials[fragment.uid] = fragment
        service.hit_set.add((3, fragment.rid))  # already served this block
        assert service._send_fragments(18) == []

    def test_hit_set_resets_per_block(self):
        """hitSets are per-block state (Figure 10): a new block clears
        them and re-serves the new block's partials."""
        service, partitions, *_ = make_gd()
        fragment = own_fragment(partitions, dest=(3,))
        service.add_waiting(5, fragment)
        service.send_phase(17)
        assert service.hit_set
        service.send_phase(33)  # next block activation
        assert service.hit_set == set()

    def test_group_pool_mode_sends_to_other_group(self):
        params = CongosParams(gd_target_pool="group")
        service, partitions, *_ = make_gd(params=params)
        fragment = own_fragment(partitions, dest=(3,))
        service.add_waiting(5, fragment)
        messages = service.send_phase(17)
        my_group = partitions.group_of(PARTITION, 0)
        for message in messages:
            assert partitions.group_of(PARTITION, message.dst) != my_group
            # Appropriateness: only destination-set members get fragments.
            for frag in message.payload.fragments:
                assert message.dst in frag.dest

    def test_receive_delivers_fragments_up(self):
        received = []
        service, partitions, *_ = make_gd(pid=3, received=received)
        fragment = own_fragment(partitions, pid=3, dest=(3,))
        message = Message(
            src=1,
            dst=3,
            service=ServiceTags.GROUP_DISTRIBUTION,
            payload=FragmentDelivery(1, (fragment,)),
            channel="gd-test",
        )
        service.on_message(20, message)
        assert received == [fragment]

    def test_expired_incoming_fragments_ignored(self):
        received = []
        service, partitions, *_ = make_gd(pid=3, received=received)
        fragment = own_fragment(partitions, pid=3, dest=(3,), expiry=10)
        message = Message(
            src=1,
            dst=3,
            service=ServiceTags.GROUP_DISTRIBUTION,
            payload=FragmentDelivery(1, (fragment,)),
            channel="gd-test",
        )
        service.on_message(20, message)
        assert received == []


class TestSharesAndPublication:
    def test_share_injected_when_busy(self):
        service, partitions, _, all_gossip = make_gd()
        fragment = own_fragment(partitions)
        service.add_waiting(5, fragment)
        service.send_phase(17)
        service.send_phase(18)  # iteration round 2: GDShare injected
        gossip_items = service.gossip.active_items()
        assert any(isinstance(i.payload, GDShare) for i in gossip_items)

    def test_no_share_when_idle(self):
        service, *_ = make_gd()
        service.send_phase(17)
        service.send_phase(18)
        assert service.gossip.active_items() == []

    def test_share_merges_hits_and_census(self):
        service, partitions, *_ = make_gd()
        service.send_phase(17)
        share = GDShare(sender=4, hits=frozenset({(3, mk_rumor().rid)}))
        service.on_share(18, share)
        assert 4 in service._collaborators_next
        assert share.hits <= service.hit_set

    def test_distribution_published_at_block_end(self):
        service, partitions, _, all_gossip = make_gd()
        fragment = own_fragment(partitions, dest=(3,))
        service.add_waiting(5, fragment)
        service.send_phase(17)
        service.end_round(31)  # block 1 last round
        records = [
            item.payload
            for item in all_gossip.active_items()
            if isinstance(item.payload, DistributionShare)
        ]
        assert len(records) == 1
        record = records[0]
        assert record.partition == PARTITION
        assert record.dline == DLINE
        assert (3, fragment.rid) in record.hits

    def test_no_publication_without_hits(self):
        service, _, _, all_gossip = make_gd()
        service.send_phase(17)
        service.end_round(31)
        assert all_gossip.active_items() == []


class TestCatchUp:
    def test_catch_up_mid_block(self):
        service, *_ = make_gd(wakeup=-100)
        service.catch_up(20)
        assert service.status == gd_mod.ACTIVE

    def test_catch_up_before_activation_round_noop(self):
        service, *_ = make_gd(wakeup=-100)
        service.catch_up(17)
        assert service.status == gd_mod.WAITING
