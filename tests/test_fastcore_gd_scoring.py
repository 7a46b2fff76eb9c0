"""GroupDistribution key scoring against the per-class pass it replaced.

``kernels.gd_union_pools`` builds every sender class's union pool and
``kernels.gd_score`` scores every class's draws of one ``(partition,
group)`` key at once.  The reference here is the class loop the engine
ran before: each class's pools OR-reduced, one ``gd_hit_batch`` per class
against the rumors that class holds, then one ``union_into`` per hit
rumor and a ``_reassembly_dirty`` append, in class order.  Both must give
the same union pools, per-class fragment-bearing counts, per-rumor hit
sets, first-touch order of the hit rumors and GD tally.

Needs the ``repro[fast]`` extra (skips without numpy).
"""

import pytest

np = pytest.importorskip("numpy", minversion="2.0")

from hypothesis import example, given, settings, strategies as st

from repro.fastcore import bitset
from repro.fastcore.kernels import gd_score, gd_union_pools


def _gd_hit_batch(pools, pool_bits, flat):
    """One class's draws scored against its rumors' pools: a target
    histogram times the unpacked pools, and the pools masked by the draws."""
    universe = pool_bits.shape[1]
    histogram = np.bincount(flat, minlength=universe)
    return pool_bits @ histogram, pools & bitset.from_indices(flat, universe)


def _per_class(pools, holding, draws, counts):
    """The class-by-class pass: ``(appropriate, hits, dirty, tally)``."""
    hits = np.zeros_like(pools)
    appropriate, dirty = [], []
    count = size = 0
    for c, flat in enumerate(draws):
        in_class = np.flatnonzero(holding[c])
        if not len(flat):
            appropriate.append(0)
            continue
        landed, class_hits = _gd_hit_batch(
            pools[in_class], bitset.to_flags(pools[in_class]), flat
        )
        for j in np.flatnonzero(class_hits.any(axis=1)):
            bitset.union_into(hits[in_class[j]], class_hits[j])
            dirty.append(int(in_class[j]))
        appropriate.append(int(landed.sum()))
        count += counts[c]
        size += max(counts[c], int(landed.sum()))
    # The reassembly pass reads each dirty rumor once, at its first entry.
    return appropriate, hits, list(dict.fromkeys(dirty)), (count, size)


def _key(n, rumors, classes, seed):
    """A random key: pools (some empty), the classes' holdings, and each
    class's draws from the union of its pools — sampled rows, rows drawn
    with replacement and broadcast rows (the whole pool, self included)."""
    rng = np.random.default_rng(seed)
    density = rng.choice([0.0, 0.05, 0.3, 1.0], size=(rumors, 1))
    flags = rng.random((rumors, n)) < density
    pools = np.stack([bitset.from_indices(np.flatnonzero(row), n) for row in flags])
    holding = rng.random((classes, rumors)) < rng.choice([0.1, 0.5, 0.9])
    draws, counts, unions = [], [], []
    for held in holding:
        unions.append(np.bitwise_or.reduce(pools[held], axis=0))
        union = bitset.to_indices(unions[-1], n)
        rows, count = [], 0
        modes = rng.integers(0, 3, size=rng.integers(1, 5)) if len(union) else []
        for mode in modes:
            if mode == 0 and len(union) > 1:
                rows.append(union)
                count += len(union) - 1
            elif mode != 0:
                k = int(rng.integers(1, len(union) + 1))
                rows.append(rng.choice(union, size=k, replace=mode == 2))
                count += k
        draws.append(np.concatenate(rows) if rows else np.zeros(0, np.int64))
        counts.append(count)
    counts = np.asarray(counts, dtype=np.int64)
    return pools, holding, np.stack(unions), draws, counts


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=260),
    rumors=st.integers(min_value=1, max_value=90),
    classes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=130, rumors=90, classes=8, seed=0)  # > 64 rumors, tail bits
@example(n=64, rumors=70, classes=3, seed=1)   # no tail bits
@example(n=2, rumors=1, classes=1, seed=2)
def test_key_scoring_matches_the_per_class_pass(n, rumors, classes, seed):
    pools, holding, unions, draws, counts = _key(n, rumors, classes, seed)
    assert np.array_equal(gd_union_pools(pools, holding), unions)
    flat = np.concatenate(draws).astype(np.int64)
    sizes = np.asarray([len(class_flat) for class_flat in draws], dtype=np.int64)

    appropriate, hits, order = gd_score(pools, holding, flat, sizes)
    ref_appropriate, ref_hits, ref_dirty, ref_tally = _per_class(
        pools, holding, draws, counts
    )

    assert appropriate.tolist() == ref_appropriate
    assert np.array_equal(hits, ref_hits)
    assert order.tolist() == ref_dirty
    # The engine's one GD tally for the key.
    tally = (int(counts.sum()), int(np.maximum(counts, appropriate).sum()))
    assert tally == ref_tally
