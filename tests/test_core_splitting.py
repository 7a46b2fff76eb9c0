"""Tests for repro.core.splitting: XOR secret sharing of rumors."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.splitting import (
    Fragment,
    can_reconstruct,
    merge_fragments,
    split_data,
    split_rumor,
    xor_bytes,
)
from repro.gossip.rumor import RumorId
from repro.sim.messages import fragment_atom

from conftest import mk_rumor


class TestXorBytes:
    def test_roundtrip(self):
        a, b = b"\x01\x02\x03", b"\xff\x00\x10"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")

    def test_self_inverse(self):
        a = b"payload"
        assert xor_bytes(a, a) == bytes(len(a))


class TestSplitData:
    def test_roundtrip_two_way(self, rng):
        shares = split_data(b"secret", 2, rng)
        assert xor_bytes(shares[0], shares[1]) == b"secret"

    def test_share_count(self, rng):
        assert len(split_data(b"secret", 5, rng)) == 5

    def test_shares_same_length(self, rng):
        for share in split_data(b"0123456789", 4, rng):
            assert len(share) == 10

    def test_single_share_rejected(self, rng):
        with pytest.raises(ValueError):
            split_data(b"x", 1, rng)

    def test_proper_subset_independent_of_data(self):
        """The same RNG state yields identical non-final shares regardless
        of the secret — information-theoretic secrecy in code form."""
        shares_a = split_data(b"AAAA", 3, random.Random(7))
        shares_b = split_data(b"BBBB", 3, random.Random(7))
        assert shares_a[:-1] == shares_b[:-1]
        assert shares_a[-1] != shares_b[-1]


@given(
    data=st.binary(min_size=0, max_size=64),
    groups=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_split_merge_roundtrip_property(data, groups, seed):
    """Property: XOR of all shares always recovers the data."""
    shares = split_data(data, groups, random.Random(seed))
    assert len(shares) == groups
    merged = shares[0]
    for share in shares[1:]:
        merged = xor_bytes(merged, share)
    assert merged == data


def make_fragments(rumor=None, partition=0, groups=2, seed=0, dline=64, expiry=64):
    rumor = rumor if rumor is not None else mk_rumor(data=b"topsecret")
    return split_rumor(rumor, partition, groups, random.Random(seed), dline, expiry)


class TestSplitRumor:
    def test_metadata_carried(self):
        rumor = mk_rumor(dest=(1, 2, 3))
        fragments = make_fragments(rumor, partition=2, groups=3)
        for index, fragment in enumerate(fragments):
            assert fragment.rid == rumor.rid
            assert fragment.partition == 2
            assert fragment.group == index
            assert fragment.total_groups == 3
            assert fragment.dest == rumor.dest
            assert fragment.dline == 64

    def test_fragments_reveal_their_slot(self):
        fragments = make_fragments(partition=1)
        assert list(fragments[0].reveals()) == [
            fragment_atom(fragments[0].rid, 1, 0)
        ]

    def test_uid_unique_per_slot(self):
        fragments = make_fragments(groups=3)
        assert len({f.uid for f in fragments}) == 3

    def test_different_partitions_use_fresh_randomness(self):
        rumor = mk_rumor(data=b"topsecret")
        rng = random.Random(0)
        first = split_rumor(rumor, 0, 2, rng, 64, 64)
        second = split_rumor(rumor, 1, 2, rng, 64, 64)
        assert first[0].data != second[0].data

    def test_expired(self):
        fragment = make_fragments(expiry=50)[0]
        assert not fragment.expired(50)
        assert fragment.expired(51)

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            Fragment(
                rid=RumorId(0, 0),
                partition=0,
                group=3,
                total_groups=2,
                data=b"",
                dest=frozenset(),
                dline=64,
                expiry=0,
            )


class TestMergeFragments:
    def test_roundtrip(self):
        rumor = mk_rumor(data=b"topsecret")
        fragments = make_fragments(rumor, groups=4)
        assert merge_fragments(fragments) == b"topsecret"

    def test_roundtrip_any_order(self):
        rumor = mk_rumor(data=b"topsecret")
        fragments = make_fragments(rumor, groups=3)
        assert merge_fragments(list(reversed(fragments))) == b"topsecret"

    def test_missing_fragment_rejected(self):
        fragments = make_fragments(groups=3)
        with pytest.raises(ValueError):
            merge_fragments(fragments[:2])

    def test_duplicate_fragment_rejected(self):
        fragments = make_fragments(groups=2)
        with pytest.raises(ValueError):
            merge_fragments([fragments[0], fragments[0]])

    def test_cross_partition_merge_rejected(self):
        """Lemma 3: fragments of different partitions cannot combine."""
        rumor = mk_rumor(data=b"topsecret")
        rng = random.Random(0)
        first = split_rumor(rumor, 0, 2, rng, 64, 64)
        second = split_rumor(rumor, 1, 2, rng, 64, 64)
        with pytest.raises(ValueError):
            merge_fragments([first[0], second[1]])

    def test_cross_rumor_merge_rejected(self):
        a = make_fragments(mk_rumor(seq=0, data=b"aaaa"))
        b = make_fragments(mk_rumor(seq=1, data=b"bbbb"))
        with pytest.raises(ValueError):
            merge_fragments([a[0], b[1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_fragments([])


@given(
    data=st.binary(min_size=1, max_size=32),
    groups=st.integers(min_value=2, max_value=6),
    partition=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=999),
)
def test_split_rumor_merge_property(data, groups, partition, seed):
    rumor = mk_rumor(data=data)
    fragments = split_rumor(
        rumor, partition, groups, random.Random(seed), 64, 100
    )
    assert merge_fragments(fragments) == data


class TestCanReconstruct:
    def test_complete_set_detected(self):
        fragments = make_fragments(groups=2)
        complete = can_reconstruct(fragments)
        assert len(complete) == 1
        key = (fragments[0].rid, 0)
        assert merge_fragments(complete[key]) == b"topsecret"

    def test_incomplete_set_empty(self):
        fragments = make_fragments(groups=3)
        assert can_reconstruct(fragments[:2]) == {}

    def test_mixed_partitions_grouped_separately(self):
        rumor = mk_rumor(data=b"topsecret")
        rng = random.Random(0)
        p0 = split_rumor(rumor, 0, 2, rng, 64, 64)
        p1 = split_rumor(rumor, 1, 2, rng, 64, 64)
        complete = can_reconstruct(p0 + p1[:1])
        assert set(complete) == {(rumor.rid, 0)}
