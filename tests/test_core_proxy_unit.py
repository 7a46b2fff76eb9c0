"""Direct unit tests of the ProxyService state machine (Figure 9)."""

import random

import pytest

from repro.core import proxy as proxy_mod
from repro.core.config import CongosParams
from repro.core.partitions import BitPartitions
from repro.core.proxy import ProxyAck, ProxyRequest, ProxyService, ProxyShare
from repro.core.splitting import split_rumor
from repro.gossip.continuous import ContinuousGossip
from repro.sim.clock import BlockSchedule
from repro.sim.messages import Message, ServiceTags

from conftest import mk_rumor

N = 8
DLINE = 64  # block 16, iteration 10
PARTITION = 0


def make_proxy(pid=0, wakeup=-100, returns=None):
    partitions = BitPartitions(N)
    params = CongosParams()
    scope = partitions.members(PARTITION, partitions.group_of(PARTITION, pid))
    gossip = ContinuousGossip(
        pid, N, "gg-test", scope, random.Random(1)
    )
    sink = returns if returns is not None else []
    service = ProxyService(
        pid=pid,
        n=N,
        channel="px-test",
        schedule=BlockSchedule(DLINE),
        partition=PARTITION,
        partition_set=partitions,
        params=params,
        rng=random.Random(2),
        gossip=gossip,
        on_group_fragments=lambda r, frags: sink.append((r, frags)),
        wakeup=wakeup,
    )
    return service, partitions, gossip


def other_group_fragment(partitions, pid=0, seq=0, expiry=1000):
    my_group = partitions.group_of(PARTITION, pid)
    rumor = mk_rumor(seq=seq)
    fragments = split_rumor(rumor, PARTITION, 2, random.Random(seq), DLINE, expiry)
    return fragments[1 - my_group]


def own_group_fragment(partitions, pid=0, seq=0, expiry=1000):
    my_group = partitions.group_of(PARTITION, pid)
    rumor = mk_rumor(seq=seq)
    fragments = split_rumor(rumor, PARTITION, 2, random.Random(seq), DLINE, expiry)
    return fragments[my_group]


def request_message(service, fragment, sender=1):
    return Message(
        src=sender,
        dst=service.pid,
        service=ServiceTags.PROXY,
        payload=ProxyRequest(sender, (fragment,)),
        channel=service.channel,
    )


class TestBlockCollection:
    def test_uptime_gate(self):
        service, partitions, _ = make_proxy(wakeup=0)
        service.send_phase(0)  # block start, zero uptime
        assert service.status == proxy_mod.WAITING
        for r in range(1, 16):
            service.send_phase(r)
        service.send_phase(16)  # next block start: 16 rounds uptime
        assert service.status == proxy_mod.IDLE

    def test_fragments_collected_next_block(self):
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions)
        service.distribute(3, [fragment])  # during block 0
        messages = service.send_phase(16)  # block 1 start
        assert service.status == proxy_mod.ACTIVE
        assert messages, "requests expected at iteration round 0"

    def test_fragment_at_block_start_round_deferred(self):
        """A fragment arriving in round 16 (block 1's start) belongs to
        block 1 and is collected at block 2."""
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions)
        service.distribute(16, [fragment])
        service.send_phase(16)
        assert service.status == proxy_mod.IDLE  # not yet collected
        service.send_phase(32)
        assert service.status == proxy_mod.ACTIVE

    def test_expired_fragments_dropped_at_collection(self):
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions, expiry=10)
        service.distribute(3, [fragment])
        service.send_phase(16)
        assert service.status == proxy_mod.IDLE

    def test_requests_carry_only_target_group_fragments(self):
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions)
        service.distribute(3, [fragment])
        messages = service.send_phase(16)
        my_group = partitions.group_of(PARTITION, 0)
        for message in messages:
            assert partitions.group_of(PARTITION, message.dst) != my_group
            for frag in message.payload.fragments:
                assert frag.group != my_group

    def test_own_group_fragment_rejected(self):
        service, partitions, _ = make_proxy()
        with pytest.raises(ValueError):
            service.distribute(3, [own_group_fragment(partitions)])


class TestProxyRole:
    def test_request_cached_and_ack_pending(self):
        service, partitions, _ = make_proxy(pid=1)
        service.send_phase(16)  # becomes IDLE
        fragment = own_group_fragment(partitions, pid=1)
        service.on_message(16, request_message(service, fragment, sender=0))
        assert fragment.uid in service.proxy_buffer
        assert 0 in service.ack_pending

    def test_waiting_service_ignores_requests(self):
        service, partitions, _ = make_proxy(pid=1, wakeup=15)
        service.send_phase(16)  # uptime 1 < 16 -> WAITING
        fragment = own_group_fragment(partitions, pid=1)
        service.on_message(16, request_message(service, fragment, sender=0))
        assert not service.proxy_buffer
        assert not service.ack_pending

    def test_ack_sent_at_iteration_last_round(self):
        service, partitions, _ = make_proxy(pid=1)
        service.send_phase(16)
        fragment = own_group_fragment(partitions, pid=1)
        service.on_message(16, request_message(service, fragment, sender=0))
        for r in range(17, 25):
            assert not any(
                isinstance(m.payload, ProxyAck) for m in service.send_phase(r)
            )
        acks = [
            m
            for m in service.send_phase(25)  # block offset 9: iteration end
            if isinstance(m.payload, ProxyAck)
        ]
        assert [m.dst for m in acks] == [0]
        assert service.ack_pending == set()

    def test_wrong_group_request_asserts(self):
        service, partitions, _ = make_proxy(pid=1)
        service.send_phase(16)
        fragment = other_group_fragment(partitions, pid=1)
        with pytest.raises(AssertionError):
            service.on_message(16, request_message(service, fragment, sender=0))

    def test_buffer_returned_via_share_self_delivery(self):
        returns = []
        service, partitions, gossip = make_proxy(pid=1, returns=returns)
        # Re-wire gossip delivery into the proxy (as CongosNode does).
        gossip.deliver = lambda r, item: service.on_share(r, item.payload)
        service.send_phase(16)
        fragment = own_group_fragment(partitions, pid=1)
        service.on_message(16, request_message(service, fragment, sender=0))
        service.send_phase(17)  # iteration round 1: share injected
        assert fragment.uid in service.partial_rumors
        # End of block: partial rumors handed up.
        service.end_round(31)
        assert returns and returns[0][1][0].uid == fragment.uid
        assert service.partial_rumors == {}


class TestAckBookkeeping:
    def test_unacked_targets_blacklisted(self):
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions)
        service.distribute(3, [fragment])
        messages = service.send_phase(16)
        targets = {m.dst for m in messages}
        for r in range(17, 26):
            service.send_phase(r)
        service.end_round(25)  # iteration last round, no acks arrived
        assert targets <= service.failed_proxies
        assert service.status == proxy_mod.ACTIVE  # keeps retrying

    def test_ack_sets_idle_and_marks_group(self):
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions)
        service.distribute(3, [fragment])
        messages = service.send_phase(16)
        acker = messages[0].dst
        service.on_message(
            25,
            Message(
                src=acker,
                dst=0,
                service=ServiceTags.PROXY,
                payload=ProxyAck(acker),
                channel=service.channel,
            ),
        )
        service.end_round(25)
        assert service.status == proxy_mod.IDLE
        assert fragment.group in service.acked_groups

    def test_desperation_reset_when_everyone_blacklisted(self):
        service, partitions, _ = make_proxy()
        fragment = other_group_fragment(partitions)
        service.distribute(3, [fragment])
        other = partitions.members(PARTITION, fragment.group)
        service.send_phase(16)
        service.failed_proxies = set(other)
        # Next block: fragment already consumed; inject a new one to force
        # another active block with a full blacklist.
        service.distribute(20, [other_group_fragment(partitions, seq=1)])
        messages = service.send_phase(32)
        assert messages, "desperation reset must retry the full group"


class TestShares:
    def test_share_updates_blacklist_and_census(self):
        service, partitions, _ = make_proxy()
        service.send_phase(16)
        share = ProxyShare(
            sender=2,
            fragments=(),
            failed_proxies=frozenset({5}),
            collaborator=True,
        )
        service.on_share(17, share)
        assert 5 in service.failed_proxies
        assert 2 in service._collaborators_next

    def test_share_fragments_enter_partial_rumors(self):
        service, partitions, _ = make_proxy()
        service.send_phase(16)
        fragment = own_group_fragment(partitions)
        share = ProxyShare(
            sender=2,
            fragments=(fragment,),
            failed_proxies=frozenset(),
            collaborator=False,
        )
        service.on_share(17, share)
        assert fragment.uid in service.partial_rumors

    def test_expired_share_fragments_skipped(self):
        service, partitions, _ = make_proxy()
        service.send_phase(16)
        fragment = own_group_fragment(partitions, expiry=10)
        share = ProxyShare(
            sender=2,
            fragments=(fragment,),
            failed_proxies=frozenset(),
            collaborator=False,
        )
        service.on_share(17, share)
        assert fragment.uid not in service.partial_rumors


class TestCatchUp:
    def test_catch_up_mid_block(self):
        service, partitions, _ = make_proxy(wakeup=-100)
        service.catch_up(20)  # mid block 1
        assert service.status == proxy_mod.IDLE

    def test_catch_up_noop_at_block_start(self):
        service, partitions, _ = make_proxy(wakeup=-100)
        service.catch_up(16)
        assert service.status == proxy_mod.WAITING  # send_phase will handle it

    def test_catch_up_respects_uptime(self):
        service, partitions, _ = make_proxy(wakeup=18)
        service.catch_up(20)
        assert service.status == proxy_mod.WAITING
