"""Tests for the metadata-exposure auditor (Section 7 quantified)."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.injection import ScriptedWorkload
from repro.audit.metadata import MetadataAuditor
from repro.core.extensions import DestinationHidingWorkload
from repro.core.group_distribution import DistributionShare, FragmentDelivery
from repro.core.proxy import ProxyRequest, ProxyShare
from repro.core.splitting import Fragment, split_rumor
from repro.gossip.rumor import GossipItem, ItemBatch, Rumor
from repro.harness.runner import Scenario, run_congos_scenario
from repro.sim.engine import fanouts
from repro.sim.messages import ServiceTags
from repro.sim.rng import derive_rng

from conftest import mk_message, mk_rumor

N = 8
DEADLINE = 64


def run_with_metadata(workload_factory, rounds=300, seed=0):
    auditor = MetadataAuditor()
    scenario = Scenario(
        name="meta",
        n=N,
        rounds=rounds,
        seed=seed,
        workload_factory=workload_factory,
    )
    result = run_congos_scenario(scenario, observers=[auditor])
    return result, auditor


def plain_workload(rng):
    return ScriptedWorkload([(64, 0, DEADLINE, {2, 5})], rng)


def hidden_workload(rng):
    inner = ScriptedWorkload([(64, 0, DEADLINE, {2, 5})], derive_rng(0, "in"))
    return DestinationHidingWorkload(inner, N, rng)


class TestExposureTracking:
    def test_outsiders_learn_existence(self):
        """The paper's admission: the rumor's existence leaks."""
        result, auditor = run_with_metadata(plain_workload)
        rid = next(iter(auditor.rumors))
        assert auditor.observers_of(rid), "fragments must have crossed outsiders"

    def test_outsiders_learn_destination_set(self):
        """Fragments carry D as routing metadata: outsiders see it."""
        result, auditor = run_with_metadata(plain_workload)
        rid = next(iter(auditor.rumors))
        disclosed = auditor.dest_disclosed_to(rid)
        assert disclosed
        some_pid = next(iter(disclosed))
        assert auditor.knows_dest[some_pid][rid] == frozenset({2, 5})

    def test_exposure_summary_shape(self):
        result, auditor = run_with_metadata(plain_workload)
        exposure = auditor.exposure(N)
        assert exposure.rumors == 1
        assert exposure.observer_rumor_pairs > 0
        assert 0 <= exposure.disclosure_rate() <= 1
        assert exposure.max_dest_set_size_seen == 2


class TestDestinationHidingReducesExposure:
    def test_observed_dest_sets_are_singletons(self):
        """With hiding on, no observer ever sees a multi-member D."""
        result, auditor = run_with_metadata(hidden_workload)
        exposure = auditor.exposure(N)
        assert exposure.max_dest_set_size_seen <= 1

    def test_true_destination_set_never_visible(self):
        result, auditor = run_with_metadata(hidden_workload)
        for per_rid in auditor.knows_dest.values():
            for dest in per_rid.values():
                assert dest != frozenset({2, 5})

    def test_plain_run_does_disclose(self):
        """Contrast: without hiding, the same traffic discloses D."""
        _, plain_auditor = run_with_metadata(plain_workload)
        plain_exposure = plain_auditor.exposure(N)
        assert plain_exposure.max_dest_set_size_seen == 2


class TestApparentCounts:
    def test_apparent_rumor_count(self):
        result, auditor = run_with_metadata(plain_workload)
        counts = [auditor.apparent_rumor_count(pid) for pid in range(N)]
        assert max(counts) >= 1

    def test_hiding_inflates_apparent_count(self):
        """n-1 sub-rumors look like n-1 independent rumors to observers —
        existence of the *logical* rumor is still visible, its multiplicity
        is not."""
        _, plain_auditor = run_with_metadata(plain_workload)
        _, hidden_auditor = run_with_metadata(hidden_workload)
        plain_max = max(
            plain_auditor.apparent_rumor_count(pid) for pid in range(N)
        )
        hidden_max = max(
            hidden_auditor.apparent_rumor_count(pid) for pid in range(N)
        )
        assert hidden_max > plain_max


# ----------------------------------------------------------------------
# Fan-outs vs. the per-message walk
# ----------------------------------------------------------------------


class PerMessageReference:
    """The reference: every delivered message walked on its own, a batch
    item by item — the walk the auditor made before it read fan-outs."""

    def __init__(self):
        self.knows_existence = defaultdict(set)
        self.knows_dest = defaultdict(dict)

    def absorb(self, pid, payload):
        if isinstance(payload, Fragment):
            self.knows_existence[pid].add(payload.rid)
            self.knows_dest[pid][payload.rid] = payload.dest
        elif isinstance(payload, (ProxyRequest, FragmentDelivery, ProxyShare)):
            for fragment in payload.fragments:
                self.absorb(pid, fragment)
        elif isinstance(payload, DistributionShare):
            for _, rid in payload.hits:
                self.knows_existence[pid].add(rid)
        elif isinstance(payload, Rumor):
            self.knows_existence[pid].add(payload.rid)
            self.knows_dest[pid][payload.rid] = payload.dest
        elif isinstance(payload, tuple):
            for item in payload:
                self.absorb(pid, getattr(item, "payload", item))


def _metadata_state(auditor):
    return dict(auditor.knows_existence), dict(auditor.knows_dest)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fanout_walk_matches_per_message_reference(data):
    draw = data.draw
    n = 7
    pids = st.integers(0, n - 1)
    rumors = [
        mk_rumor(src=src, seq=src, dest=draw(st.sets(pids, min_size=1)))
        for src in range(3)
    ]
    fragments = [
        frag
        for rumor in rumors
        for partition in range(2)
        for frag in split_rumor(rumor, partition, 2, random.Random(partition), 64, 100)
    ]
    frags = st.lists(st.sampled_from(fragments), max_size=3).map(tuple)
    hits = st.frozensets(
        st.tuples(pids, st.sampled_from([rumor.rid for rumor in rumors])), max_size=4
    )
    leaves = st.one_of(
        st.sampled_from(fragments),
        st.sampled_from(rumors),
        st.builds(ProxyRequest, sender=pids, fragments=frags),
        st.builds(FragmentDelivery, sender=pids, fragments=frags),
        st.builds(
            ProxyShare, sender=pids, fragments=frags,
            failed_proxies=st.frozensets(pids, max_size=2), collaborator=st.booleans(),
        ),
        st.builds(
            DistributionShare, sender=pids, dline=st.just(64),
            partition=st.integers(0, 1), group=st.integers(0, 1), hits=hits,
        ),
        st.just("opaque"),
    )
    items = st.lists(
        st.builds(
            GossipItem, uid=st.tuples(st.just("item"), st.integers(0, 9)),
            origin=pids, payload=leaves, expiry=st.just(100),
            dest=st.just(frozenset(range(n))),
        ),
        max_size=6,
    )
    payloads = st.one_of(
        leaves,
        items.map(ItemBatch),
        items.map(tuple),
        frags.map(lambda chosen: ("not-an-item",) + chosen),
    )

    stream, sent = [], []
    for _ in range(draw(st.integers(1, 5), label="rounds")):
        delivered = []
        for _ in range(draw(st.integers(0, 5), label="fan-outs")):
            if sent and draw(st.booleans()):
                payload = draw(st.sampled_from(sent))  # the same object again
            else:
                payload = draw(payloads)
                sent.append(payload)
            src = draw(pids)
            # Possibly the same pid twice inside one run.
            for dst in draw(st.lists(pids, max_size=5)):
                delivered.append(mk_message(
                    src=src, dst=dst, service=ServiceTags.GROUP_GOSSIP,
                    payload=payload,
                ))
        stream.append(delivered)

    maximal, singles = MetadataAuditor(), MetadataAuditor()
    reference = PerMessageReference()
    for round_no, delivered in enumerate(stream):
        maximal.on_fanouts(round_no, fanouts(delivered))
        singles.on_fanouts(
            round_no, [(message, [message.dst], 1 << message.dst) for message in delivered]
        )
        for message in delivered:
            reference.absorb(message.dst, message.payload)
        expected = _metadata_state(reference)
        assert _metadata_state(maximal) == expected
        assert _metadata_state(singles) == expected
