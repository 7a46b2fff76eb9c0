"""Tests for the metadata-exposure auditor (Section 7 quantified)."""

import dataclasses
import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.injection import ScriptedWorkload
from repro.audit.metadata import Facts, MetadataAuditor, facts_of
from repro.core.extensions import DestinationHidingWorkload
from repro.core.group_distribution import DistributionShare, FragmentDelivery
from repro.core.proxy import ProxyRequest, ProxyShare
from repro.core.config import CongosParams
from repro.core.splitting import Fragment, split_rumor
from repro.fastcore import UnsupportedScenario, numpy_available
from repro.gossip.rumor import GossipItem, ItemBatch, Rumor, RumorId
from repro.harness.runner import Scenario, run_congos_scenario
from repro.harness.scenarios import get_builder
from repro.sim.engine import fanouts
from repro.sim.messages import ServiceTags, reveals_of
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
        assert auditor.dest_seen[rid] >> some_pid & 1
        assert auditor.dests[rid] == frozenset({2, 5})

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
        assert auditor.dests
        for dest in auditor.dests.values():
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
        elif isinstance(payload, Facts):
            for rid, dest in payload:
                self.knows_existence[pid].add(rid)
                if dest is not None:
                    self.knows_dest[pid][rid] = dest
        elif isinstance(payload, tuple):
            for item in payload:
                self.absorb(pid, getattr(item, "payload", item))


def _metadata_state(auditor):
    """Each pid's existence set and observed destination sets, read off
    the auditor's per-rumor masks."""
    existence, dests = defaultdict(set), defaultdict(dict)
    for rid, mask in auditor.existence.items():
        for pid in _bits(mask):
            existence[pid].add(rid)
    for rid, mask in auditor.dest_seen.items():
        for pid in _bits(mask):
            dests[pid][rid] = auditor.dests[rid]
    return dict(existence), dict(dests)


def _bits(mask):
    return [pid for pid in range(mask.bit_length()) if mask >> pid & 1]


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
        # The array engine's payload-free fan-outs.
        st.lists(
            st.sampled_from(
                [(rumor.rid, rumor.dest) for rumor in rumors]
                + [(rumor.rid, None) for rumor in rumors]
            ),
            max_size=4,
        ).map(Facts),
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
        expected = dict(reference.knows_existence), dict(reference.knows_dest)
        assert _metadata_state(maximal) == expected
        assert _metadata_state(singles) == expected


def test_facts_are_read_once_per_item_and_batch():
    rumor = mk_rumor(src=0, seq=0, dest={1, 2})
    item = GossipItem(("frag", 0), 0, rumor, 100, frozenset(range(4)))
    share = GossipItem(
        ("share", 0), 1,
        DistributionShare(sender=1, dline=64, partition=0, group=0, hits=frozenset({(1, rumor.rid)})),
        100, frozenset(range(4)),
    )
    batch = ItemBatch((item, share, item))
    facts = facts_of(batch)
    assert facts == ((rumor.rid, rumor.dest), (rumor.rid, None))
    assert type(facts) is Facts
    assert facts_of(batch) is facts and facts_of(item) is facts_of(item)
    assert facts_of(facts) is facts
    # Equal items' facts are one object: a batch drops repeats by identity.
    twin = GossipItem(("frag", 1), 0, rumor, 100, frozenset(range(4)))
    assert facts_of(twin) is facts_of(item)


def test_a_content_question_on_facts_names_the_object_engine():
    facts = Facts([(RumorId(0, 0), frozenset({1}))])
    with pytest.raises(UnsupportedScenario, match="object engine"):
        list(reveals_of(facts))


@pytest.mark.skipif(not numpy_available(), reason="needs numpy>=2.0")
def test_array_exposure_matches_the_object_engine():
    """Steady n=64, seed 3, lean, 240 rounds: the array engine's lowered
    fan-outs disclose what the object engine's messages do, within 5 %
    (DESIGN.md §11: a cohort item stands for many per-pid shares)."""
    exposures = {}
    for engine in ("object", "array"):
        scenario = get_builder("steady")(
            n=64, rounds=240, seed=3, deadline=64, params=CongosParams.preset("lean")
        )
        auditor = MetadataAuditor()
        run_congos_scenario(
            dataclasses.replace(scenario, engine=engine), observers=[auditor]
        )
        exposures[engine] = auditor.exposure(64)
    reference, array = exposures["object"], exposures["array"]
    assert (reference.observer_rumor_pairs, reference.dest_set_disclosures) == (1652, 1652)
    assert array.rumors == reference.rumors
    for field in ("observer_rumor_pairs", "dest_set_disclosures"):
        got, want = getattr(array, field), getattr(reference, field)
        assert abs(got - want) <= 0.05 * want, (field, got, want)
