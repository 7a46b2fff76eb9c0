"""Regression tests for the hot-path overhaul's equivalence claims.

Each optimization landed with an argument for why behavior is unchanged;
these tests pin those arguments down individually (the golden-digest
tests in ``test_golden_digests.py`` pin the composition).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import repro
from repro.audit.confidentiality import ConfidentialityAuditor
from repro.gossip.continuous import ContinuousGossip
from repro.gossip.epidemic import _POOL_CACHE, choose_push_targets
from repro.gossip.rumor import GossipItem, ItemBatch, Rumor, RumorId
from repro.sim.engine import AdversaryView, Engine, SimObserver
from repro.sim.messages import Message, ServiceTags, fragment_atom, reveals_of
from repro.sim.metrics import MessageStats
from repro.sim.process import NodeBehavior


def make_engine(n=6, observers=()):
    return Engine(n, lambda pid: NodeBehavior(pid, n), observers=observers)


class Revealer:
    def __init__(self, atom):
        self.atom = atom

    def reveals(self):
        yield self.atom

    def __repr__(self):
        return "Revealer({!r})".format(self.atom)

    def __eq__(self, other):
        return isinstance(other, Revealer) and other.atom == self.atom

    def __hash__(self):
        return hash(self.atom)


# ----------------------------------------------------------------------
# Satellite 1: reveals_of over sets must not depend on hash order
# ----------------------------------------------------------------------


class TestRevealsOfSetOrder:
    def test_set_payload_yields_sorted_order(self):
        atoms = [fragment_atom("r{}".format(i), i, 0) for i in range(6)]
        payload = frozenset(Revealer(atom) for atom in atoms)
        got = list(reveals_of(payload))
        want = [item.atom for item in sorted(payload, key=repr)]
        assert got == want
        assert sorted(got) == sorted(atoms)

    def test_set_order_stable_across_construction_orders(self):
        atoms = [
            fragment_atom("rumor-{}".format(i), i % 3, i % 2) for i in range(8)
        ]
        forward = {Revealer(a) for a in atoms}
        backward = {Revealer(a) for a in reversed(atoms)}
        assert list(reveals_of(forward)) == list(reveals_of(backward))


# ----------------------------------------------------------------------
# Satellite 2: AdversaryView.crashed_pids caching + incremental alive set
# ----------------------------------------------------------------------


class TestAliveSetMaintenance:
    def test_crashed_pids_tracks_engine_crashes(self):
        engine = make_engine(5)
        view = AdversaryView(engine)
        assert view.crashed_pids() == set()
        engine._crash(0, 3, mid_round=False)
        assert view.crashed_pids() == {3}
        assert view.alive_pids() == {0, 1, 2, 4}
        engine._restart(1, 3)
        assert view.crashed_pids() == set()

    def test_all_pids_frozenset_is_cached(self):
        view = AdversaryView(make_engine(4))
        assert view.all_pids == frozenset(range(4))
        assert view.all_pids is view.all_pids

    def test_alive_pids_returns_defensive_copy(self):
        engine = make_engine(4)
        alive = engine.alive_pids()
        alive.discard(0)
        assert engine.alive_pids() == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# Observer dispatch tables
# ----------------------------------------------------------------------


class CountingObserver(SimObserver):
    def __init__(self):
        self.delivered = 0

    def on_deliver(self, round_no, message):
        self.delivered += 1


class ChattyBehavior(NodeBehavior):
    def send_phase(self, round_no):
        return [
            Message(
                src=self.pid,
                dst=(self.pid + 1) % self.n,
                service=ServiceTags.BASELINE,
            )
        ]


class TestObserverDispatch:
    def test_base_noop_observer_excluded_from_dispatch(self):
        engine = make_engine(4, observers=[SimObserver()])
        assert all(not hooks for hooks in engine._dispatch.values())

    def test_subclass_override_registered_and_called(self):
        counting = CountingObserver()
        engine = Engine(
            4,
            lambda pid: ChattyBehavior(pid, 4),
            observers=[SimObserver(), counting],
        )
        deliver_hooks = engine._dispatch["on_deliver"]
        assert len(deliver_hooks) == 1
        engine.run(2)
        assert counting.delivered == 8

    def test_instance_attribute_hook_registered(self):
        # A hook monkeypatched onto an *instance* (not the class) must
        # still dispatch — the table check looks at the instance dict too.
        observer = SimObserver()
        calls = []
        observer.on_round_end = lambda round_no, engine: calls.append(round_no)
        engine = make_engine(4, observers=[observer])
        engine.run(3)
        assert calls == [0, 1, 2]


# ----------------------------------------------------------------------
# Batched per-round stats
# ----------------------------------------------------------------------


class TestRecordRoundEquivalence:
    def test_record_round_matches_per_message_recording(self):
        messages = [
            Message(
                src=0,
                dst=1,
                service=ServiceTags.ALL_GOSSIP if i % 2 else ServiceTags.BASELINE,
                size=1 + i % 3,
            )
            for i in range(9)
        ]
        one = MessageStats()
        for message in messages:
            one.record_send(7, message)
        by_service = {}
        for message in messages:
            by_service[message.service] = by_service.get(message.service, 0) + 1
        other = MessageStats()
        other.record_round(
            7,
            len(messages),
            sum(m.size for m in messages),
            by_service,
        )
        assert one.per_round(7) == other.per_round(7)
        assert one.by_service() == other.by_service()
        assert one.round_record(7) == other.round_record(7)
        assert one.summary() == other.summary()

    def test_record_round_empty_is_noop(self):
        stats = MessageStats()
        stats.record_round(3, 0, 0, {})
        assert stats.rounds_observed == 0


# ----------------------------------------------------------------------
# Pooled epidemic target selection
# ----------------------------------------------------------------------


class TestPushTargetPool:
    def test_cached_pool_preserves_rng_call_sequence(self):
        scope = tuple(range(20))
        first = random.Random(5)
        got_first = [
            choose_push_targets(first, scope, pid % 20, 4) for pid in range(30)
        ]
        _POOL_CACHE.clear()
        second = random.Random(5)
        got_second = [
            choose_push_targets(second, scope, pid % 20, 4) for pid in range(30)
        ]
        assert got_first == got_second
        # And both rngs consumed the identical stream.
        assert first.random() == second.random()

    def test_small_pool_returned_sorted_without_rng(self):
        rng = random.Random(0)
        before = rng.getstate()
        targets = choose_push_targets(rng, (3, 1, 2), 2, 5)
        assert targets == [1, 3]
        assert rng.getstate() == before

    def test_exclude_participates_in_cache_key(self):
        rng = random.Random(1)
        scope = tuple(range(10))
        with_exclude = choose_push_targets(
            rng, scope, 0, 8, exclude=frozenset({1, 2, 3})
        )
        assert not {1, 2, 3} & set(with_exclude)
        plain = choose_push_targets(random.Random(1), scope, 0, 9)
        assert set(plain) == set(range(1, 10))


# ----------------------------------------------------------------------
# Gossip broadcast horizon + min-expiry gating
# ----------------------------------------------------------------------


def make_gossip(pid=0, n=8, **kwargs):
    return ContinuousGossip(
        pid=pid,
        n=n,
        channel="t/equiv",
        scope=range(n),
        rng=random.Random(pid),
        **kwargs,
    )


class TestBroadcastHorizon:
    def test_item_leaves_broadcast_set_after_horizon(self):
        gossip = make_gossip(resend_horizon=4)
        item = gossip.inject(0, payload="p", deadline=100, dest=range(8))
        for round_no in range(1, 5):
            assert any(m.payload for m in gossip.send_phase(round_no))
        # Past the horizon: scanned out, but still active (not expired).
        assert gossip.send_phase(6) == []
        assert item.uid not in gossip._broadcast
        assert item.uid in gossip._active

    def test_backoff_path_still_rebroadcasts_after_horizon(self):
        gossip = make_gossip(resend_horizon=4, resend_backoff=True)
        gossip.inject(0, payload="p", deadline=100, dest=range(8))
        # ages 5 (=horizon+1) and 6 (=horizon+2) are backoff-due.
        assert gossip.send_phase(5) != []
        assert gossip.send_phase(6) != []
        assert gossip.send_phase(7) == []

    def test_min_expiry_skips_sweep_then_expires_both_dicts(self):
        gossip = make_gossip()
        item = gossip.inject(0, payload="p", deadline=3, dest=range(8))
        assert gossip._min_expiry == item.expiry
        gossip._expire(item.expiry)  # round == expiry: still alive
        assert item.uid in gossip._active
        gossip._expire(item.expiry + 1)
        assert item.uid not in gossip._active
        assert item.uid not in gossip._broadcast
        assert gossip._min_expiry > 2 ** 62


# ----------------------------------------------------------------------
# Auditor batch digest (kept on the batch) and item holder masks
# ----------------------------------------------------------------------


def frag_items(count, rid="r0", partitions=4):
    return tuple(
        GossipItem(
            uid=("equiv", i),
            origin=0,
            payload=Revealer(fragment_atom(rid, i % partitions, 0)),
            expiry=100,
            dest=frozenset(range(8)),
        )
        for i in range(count)
    )


class TestAuditorBatchCache:
    def _deliver_all(self, auditor, payload, dsts, rounds):
        for round_no in rounds:
            for dst in dsts:
                auditor.on_deliver(
                    round_no,
                    Message(
                        src=0,
                        dst=dst,
                        service=ServiceTags.GROUP_GOSSIP,
                        payload=payload,
                    ),
                )

    def test_repeated_batch_delivery_matches_fresh_auditor(self):
        payload = frag_items(6)
        cached = ConfidentialityAuditor(num_partitions=4, num_groups=2)
        # Same payload tuple fanned out repeatedly: after the first
        # delivery every item's holder mask rules the rest out.
        self._deliver_all(cached, payload, dsts=range(1, 5), rounds=range(3))
        fresh = ConfidentialityAuditor(num_partitions=4, num_groups=2)
        for round_no in range(3):
            for dst in range(1, 5):
                # Re-built tuple each delivery: different object, same uids.
                rebuilt = frag_items(6)
                fresh.on_deliver(
                    round_no,
                    Message(
                        src=0,
                        dst=dst,
                        service=ServiceTags.GROUP_GOSSIP,
                        payload=rebuilt,
                    ),
                )
        assert {
            pid: atoms for pid, atoms in cached.knowledge.items()
        } == {pid: atoms for pid, atoms in fresh.knowledge.items()}
        assert cached.total_border_messages == fresh.total_border_messages

    def test_digest_on_batch_never_goes_stale(self):
        # The digest kept on a batch holds no allowed set, so a rumor
        # registered after the batch was first audited is bordered
        # correctly the next time the same object is delivered — and a
        # second auditor sharing the object shares none of that.
        rumor = Rumor(RumorId(0, 0), b"late", 64, frozenset({1, 2}))
        batch = ItemBatch(frag_items(2, rid=rumor.rid))
        auditor = ConfidentialityAuditor(num_partitions=4, num_groups=2)
        self._deliver_all(auditor, batch, dsts=[5], rounds=[0])
        assert auditor.total_border_messages == 0
        assert "audit_digest" in vars(batch)
        auditor.on_inject(1, 0, rumor)
        self._deliver_all(auditor, batch, dsts=[5, 1], rounds=[1])
        assert dict(auditor.border_messages) == {rumor.rid: 1}
        unregistered = ConfidentialityAuditor(num_partitions=4, num_groups=2)
        self._deliver_all(unregistered, batch, dsts=[5, 1], rounds=[1])
        assert unregistered.total_border_messages == 0
        assert unregistered.knowledge[1] == auditor.knowledge[1]

    def test_atomless_items_become_inert(self):
        # Items that reveal nothing (hitSet shares, confirmations) must
        # never touch the audit state, however often they are delivered.
        items = tuple(
            GossipItem(
                uid=("inert", i),
                origin=0,
                payload="opaque-share",
                expiry=100,
                dest=frozenset(range(8)),
            )
            for i in range(3)
        )
        auditor = ConfidentialityAuditor(num_partitions=4, num_groups=2)
        self._deliver_all(auditor, items, dsts=[1, 2], rounds=[0, 1])
        assert not any(auditor.knowledge.values())
        assert not auditor.fragment_holders
        assert auditor.total_border_messages == 0
        assert auditor.violations == []
        # ... and do not hide the atom-bearing items that share their batch.
        mixed = items + frag_items(2)
        self._deliver_all(auditor, mixed, dsts=[1], rounds=[2])
        assert auditor.knowledge[1] == {
            fragment_atom("r0", 0, 0), fragment_atom("r0", 1, 0)
        }
        assert not auditor.knowledge.get(2)


# ----------------------------------------------------------------------
# Hash-seed independence
# ----------------------------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib
from repro import api
from repro.exec.results import RunRecord
from repro.exec.tasks import canonical_json
from repro.sim.engine import SimObserver


class WireOrder(SimObserver):
    # Every delivered message with its batch's uids *in batch order*: the
    # run record alone is too coarse to notice two items swapping places.
    def __init__(self):
        self.sha = hashlib.sha256()

    def on_deliver(self, round_no, message):
        payload = message.payload
        uids = (
            [repr(item.uid) for item in payload]
            if isinstance(payload, tuple) else type(payload).__name__
        )
        self.sha.update(repr(
            (round_no, message.src, message.dst, message.channel, uids)
        ).encode("utf-8"))


cells = [
    ("steady", dict(rate=1, period=4)),
    ("chaos", dict(drop=0.15, delay=0.1, duplicate=0.02, churn=0.01,
                   hardened=True)),
]
for name, kwargs in cells:
    wire = WireOrder()
    result = api.run_scenario(
        name, seed=4, n=16, rounds=160, deadline=64, observers=[wire], **kwargs
    )
    record = RunRecord.from_result(result).without_profile()
    print(hashlib.sha256(
        canonical_json(record.to_dict()).encode("utf-8")).hexdigest(),
        wire.sha.hexdigest())
"""


class TestHashSeedIndependence:
    def test_payload_digests_do_not_depend_on_pythonhashseed(self):
        """Gossip receive does set algebra on uid sets whose iteration
        order follows the interpreter's str hash seed (the audit keys a
        dict by uid but walks tuples only).  That order must stay inside
        the sets: a steady cell and a hardened
        chaos cell (default parameters, so items age past the resend
        horizon and backoff wake-ups fire) must produce the same record
        digest and the same delivered stream, batch order included, under
        two seeds."""
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.dirname(os.path.dirname(repro.__file__))]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            done = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.split())
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]
