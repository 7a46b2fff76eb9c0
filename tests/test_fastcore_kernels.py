"""Unit tests for the array engine's bitset and batch kernels.

The whole file needs the ``repro[fast]`` extra; without numpy it skips
cleanly (tier-1 must pass either way — see test_fastcore_optional.py).
"""

import pytest

np = pytest.importorskip("numpy", minversion="2.0")

from hypothesis import given, strategies as st

from repro.fastcore import bitset
from repro.fastcore.kernels import (
    _EXACT_POOL_LIMIT,
    gd_score,
    merge_shares,
    sample_rows,
    sample_targets_excluding_self,
    split_shares,
)


class TestBitset:
    def test_empty_and_full(self):
        for n in (1, 63, 64, 65, 200):
            assert bitset.popcount(bitset.empty(n)) == 0
            assert bitset.popcount(bitset.full(n)) == n
            assert list(bitset.to_indices(bitset.full(n), n)) == list(range(n))

    def test_from_to_indices_roundtrip(self):
        rng = np.random.default_rng(3)
        for n in (70, 130, 1024):
            members = np.sort(rng.choice(n, size=n // 3, replace=False))
            bits = bitset.from_indices(members, n)
            assert bitset.popcount(bits) == len(members)
            assert np.array_equal(bitset.to_indices(bits, n), members)

    def test_test_bits_membership(self):
        bits = bitset.from_indices([0, 5, 63, 64, 100], 128)
        probes = np.array([0, 1, 5, 63, 64, 99, 100, 127])
        got = bitset.test_bits(bits, probes)
        assert list(got) == [True, False, True, True, True, False, True, False]

    def test_set_algebra(self):
        n = 150
        a = bitset.from_indices([1, 2, 3, 70, 149], n)
        b = bitset.from_indices([2, 3, 4, 70], n)
        assert list(bitset.to_indices(bitset.intersect(a, b), n)) == [2, 3, 70]
        assert list(bitset.to_indices(bitset.andnot(a, b), n)) == [1, 149]
        assert bitset.is_subset(b, bitset.union_into(a.copy(), b))
        assert not bitset.is_subset(a, b)
        assert bitset.any_common(a, b)
        assert not bitset.any_common(a, bitset.from_indices([5, 90], n))

    def test_union_into_is_in_place(self):
        n = 64
        target = bitset.from_indices([1], n)
        out = bitset.union_into(target, bitset.from_indices([2], n))
        assert out is target
        assert list(bitset.to_indices(target, n)) == [1, 2]

    def test_test_bits_over_a_stack_of_sets(self):
        n = 130
        stack = np.stack(
            [bitset.from_indices([0, 64, 129], n), bitset.from_indices([1, 64], n)]
        )
        got = bitset.test_bits(stack, np.array([0, 1, 64, 129]))
        assert got.tolist() == [[True, False, True, True], [False, True, True, False]]
        flags = bitset.to_flags(stack)
        assert flags.shape == (2, 192)
        assert np.flatnonzero(flags[1]).tolist() == [1, 64]


@st.composite
def _universe_and_indices(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    indices = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=400))
    return n, indices


class TestFromIndicesProperties:
    """``from_indices`` is a scatter: order, repeats and container type of
    its input must not matter, for any ``n`` (multiple of 64 or not)."""

    @given(_universe_and_indices())
    def test_roundtrip_is_the_sorted_distinct_set(self, case):
        n, indices = case
        bits = bitset.from_indices(indices, n)
        assert bits.dtype == np.uint64 and bits.shape == (bitset.n_words(n),)
        assert bitset.to_indices(bits, n).tolist() == sorted(set(indices))
        assert bitset.popcount(bits) == len(set(indices))

    @given(_universe_and_indices())
    def test_list_and_ndarray_inputs_agree(self, case):
        n, indices = case
        from_list = bitset.from_indices(indices, n)
        for dtype in (np.int64, np.int32):
            from_array = bitset.from_indices(np.asarray(indices, dtype=dtype), n)
            assert np.array_equal(from_list, from_array)

    @given(_universe_and_indices())
    def test_membership_agrees_with_python_sets(self, case):
        n, indices = case
        bits = bitset.from_indices(indices, n)
        probes = np.arange(n)
        assert bitset.test_bits(bits, probes).tolist() == [
            p in set(indices) for p in range(n)
        ]

    def test_empty_input(self):
        for n in (1, 64, 65):
            for empty in ([], np.empty(0, dtype=np.int64)):
                bits = bitset.from_indices(empty, n)
                assert bits.shape == (bitset.n_words(n),) and not bits.any()

    def test_out_of_universe_index_is_rejected(self):
        with pytest.raises(IndexError):
            bitset.from_indices([128], 128)


class TestSplitShares:
    def test_shares_xor_back_to_payload(self):
        rng = np.random.default_rng(5)
        data = bytes(range(64))
        shares = split_shares(data, partitions=6, groups=3, rng=rng)
        assert shares.shape == (6, 3, 64)
        for p in range(6):
            assert merge_shares(shares[p]) == data

    def test_fresh_randomness_per_partition(self):
        rng = np.random.default_rng(5)
        shares = split_shares(b"\x00" * 32, partitions=4, groups=2, rng=rng)
        # With independent randomness, two partitions sharing the same
        # first-share bytes is astronomically unlikely.
        assert not np.array_equal(shares[0, 0], shares[1, 0])

    def test_single_group_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="at least 2"):
            split_shares(b"xy", partitions=2, groups=1, rng=rng)


class TestSampling:
    def test_sample_rows_distinct_small_pool(self):
        rng = np.random.default_rng(9)
        pool = np.arange(20, dtype=np.int64)
        rows = sample_rows(rng, pool, rows=200, k=6)
        assert rows.shape == (200, 6)
        for row in rows:
            assert len(set(row.tolist())) == 6
            assert set(row.tolist()) <= set(pool.tolist())

    def test_sample_rows_whole_pool_degenerate(self):
        rng = np.random.default_rng(9)
        pool = np.arange(4, dtype=np.int64)
        rows = sample_rows(rng, pool, rows=3, k=10)
        assert rows.shape == (3, 4)
        assert np.array_equal(rows[0], pool)

    def test_exclude_self_small_scope(self):
        rng = np.random.default_rng(11)
        scope = np.arange(32, dtype=np.int64)
        senders = np.arange(32, dtype=np.int64)
        picks = sample_targets_excluding_self(rng, scope, senders, 5)
        assert picks.shape == (32, 5)
        for pos, row in enumerate(picks):
            assert pos not in set(row.tolist())
            assert len(set(row.tolist())) == 5

    def test_exclude_self_large_scope(self):
        rng = np.random.default_rng(11)
        m = _EXACT_POOL_LIMIT + 64
        scope = np.arange(m, dtype=np.int64)
        senders = np.arange(m, dtype=np.int64)
        picks = sample_targets_excluding_self(rng, scope, senders, 6)
        assert picks.shape == (m, 6)
        for pos, row in enumerate(picks):
            assert pos not in set(row.tolist())
            assert max(row.tolist()) < m


@st.composite
def _gd_key(draw):
    n = draw(st.integers(min_value=2, max_value=200))
    pid = st.integers(min_value=0, max_value=n - 1)
    pools = draw(st.lists(st.lists(pid, max_size=40), min_size=1, max_size=12))
    classes = draw(st.integers(min_value=1, max_value=5))
    holding = draw(st.lists(
        st.lists(st.booleans(), min_size=len(pools), max_size=len(pools)),
        min_size=classes, max_size=classes,
    ))
    draws = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=classes - 1), pid),
        max_size=120,
    ))
    return n, pools, holding, draws


class TestGdScore:
    @given(_gd_key())
    def test_matches_the_per_rumor_isin_unique_formulation(self, case):
        n, pools, holding, draws = case
        holding = np.asarray(holding, dtype=np.bool_)
        # Class by class, in class order, as the engine hands them over.
        draws = sorted(draws, key=lambda draw: draw[0])
        cid = np.asarray([c for c, _ in draws], dtype=np.int64)
        flat = np.asarray([t for _, t in draws], dtype=np.int64)
        sizes = np.bincount(cid, minlength=len(holding))
        stacked = np.stack([bitset.from_indices(pool, n) for pool in pools])
        appropriate, hits, order = gd_score(stacked, holding, flat, sizes)
        assert appropriate.shape == (len(holding),)
        # The reference the engine used before the batch kernels: one isin
        # + unique per (class, rumor) over the class's draws.
        expected_hits = [set() for _ in pools]
        for c, held in enumerate(holding):
            class_flat = flat[cid == c]
            landed = 0
            for r in np.flatnonzero(held):
                pool = np.asarray(sorted(set(pools[r])), dtype=np.int64)
                in_pool = np.isin(class_flat, pool)
                landed += int(in_pool.sum())
                expected_hits[r].update(np.unique(class_flat[in_pool]).tolist())
            assert int(appropriate[c]) == landed
        for r, expected in enumerate(expected_hits):
            assert bitset.to_indices(hits[r], n).tolist() == sorted(expected)
        assert sorted(order.tolist()) == [r for r, e in enumerate(expected_hits) if e]


class TestPerfRegistry:
    def test_fastcore_cases_registered_with_numpy(self):
        from repro.perf.cases import case_keys, get_case

        keys = case_keys()
        for key in (
            "fastcore_bitset_membership",
            "fastcore_fragment_xor",
            "fastcore_fanout_sampling",
            "fastcore_scatter_mask",
            "fastcore_gd_score",
        ):
            assert key in keys
            case = get_case(key)
            assert "fastcore" in case.tags
            # Each setup must build a runnable op.
            assert case.setup()() is not None
