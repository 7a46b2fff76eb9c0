"""Array kernels: batched XOR splitting, fanout sampling and GD hits.

These are the inner loops of the array engine, factored out so the
``repro.perf`` microbench registry can pin their cost:

* :func:`split_shares` — XOR secret-split one payload into ``(P, G)``
  shares for all partitions at once (Section 4.1, vectorized);
* :func:`merge_shares` — XOR-fold one partition's shares back;
* :func:`sample_rows` — per-sender distinct fanout sampling as one
  argpartition over a random matrix (small pools), with a
  with-replacement fast path for large pools where collisions are
  negligible and only the *count* of sends is observable;
* :func:`gd_hit_batch` — one sender class's GroupDistribution draws
  scored against every rumor's target pool at once (a target histogram
  and a target mask; no sort, no per-rumor ``isin``).
"""

from __future__ import annotations

import numpy as np

from repro.fastcore import bitset

__all__ = [
    "split_shares",
    "merge_shares",
    "sample_rows",
    "sample_targets_excluding_self",
    "gd_hit_batch",
]

# Pools at or below this size get exact distinct-per-row sampling (the
# object engine's rng.sample semantics); larger pools use independent
# draws — at fanout k from a pool of m >> k the probability of a repeated
# target per row is O(k^2/m) and a repeat only slows the epidemic by the
# one duplicated edge, never changes message counts.
_EXACT_POOL_LIMIT = 192


def split_shares(data: bytes, partitions: int, groups: int, rng) -> np.ndarray:
    """XOR-split ``data`` into ``groups`` shares per partition, batched.

    Returns a ``(partitions, groups, len(data))`` uint8 array where each
    partition's shares XOR back to ``data`` and every proper subset is
    uniform (fresh randomness per partition, as Lemma 3 requires).
    """
    if groups < 2:
        raise ValueError("need at least 2 fragments for secrecy")
    length = len(data)
    payload = np.frombuffer(data, dtype=np.uint8)
    shares = np.empty((partitions, groups, length), dtype=np.uint8)
    if partitions == 0:
        return shares
    shares[:, : groups - 1] = rng.integers(
        0, 256, size=(partitions, groups - 1, length), dtype=np.uint8
    )
    last = np.broadcast_to(payload, (partitions, length)).copy()
    for g in range(groups - 1):
        np.bitwise_xor(last, shares[:, g], out=last)
    shares[:, groups - 1] = last
    return shares


def merge_shares(shares: np.ndarray) -> bytes:
    """XOR-fold one partition's ``(groups, length)`` shares to the payload."""
    return np.bitwise_xor.reduce(shares, axis=0).tobytes()


def sample_rows(rng, pool: np.ndarray, rows: int, k: int) -> np.ndarray:
    """``rows`` independent samples of ``k`` distinct elements of ``pool``.

    Returns a ``(rows, k)`` array.  ``k == len(pool)`` degenerates to the
    whole pool per row (the object engine sends to the full pool then).
    """
    m = len(pool)
    if k >= m:
        return np.broadcast_to(pool, (rows, m))
    if m <= _EXACT_POOL_LIMIT:
        keys = rng.random((rows, m))
        picks = np.argpartition(keys, k - 1, axis=1)[:, :k]
        return pool[picks]
    return pool[rng.integers(0, m, size=(rows, k))]


def sample_targets_excluding_self(
    rng, scope: np.ndarray, sender_pos: np.ndarray, k: int
) -> np.ndarray:
    """Per-sender gossip targets: ``k`` picks from ``scope`` minus self.

    ``sender_pos`` holds each sender's own position within ``scope``.
    Small scopes sample exactly (distinct per row); large scopes draw
    independently from the ``len(scope) - 1`` non-self positions and
    shift past the sender's own slot.
    """
    m = len(scope)
    rows = len(sender_pos)
    if m - 1 <= _EXACT_POOL_LIMIT:
        keys = rng.random((rows, m))
        # Push each sender's own position past the cut so it is never picked.
        keys[np.arange(rows), sender_pos] = 2.0
        picks = np.argpartition(keys, k - 1, axis=1)[:, :k]
        return scope[picks]
    draws = rng.integers(0, m - 1, size=(rows, k))
    draws += draws >= sender_pos[:, None]
    return scope[draws]


def gd_hit_batch(pools: np.ndarray, pool_bits: np.ndarray, flat: np.ndarray):
    """Score one batch of GroupDistribution draws against ``R`` rumor pools.

    ``pools`` is the ``(R, words)`` stack of the rumors' target-pool
    bitsets and ``pool_bits`` the same sets unpacked to ``(R, 64 * words)``
    0/1 bytes; ``flat`` holds the drawn target pids (repeats allowed, any
    order).  Returns ``(appropriate, hits)``: ``appropriate[r]`` counts the
    draws that landed in pool ``r`` (with multiplicity — each is a
    fragment-bearing message) and ``hits[r]`` is the bitset of distinct
    pids of pool ``r`` that were drawn.
    """
    universe = pool_bits.shape[1]
    histogram = np.bincount(flat, minlength=universe)
    return pool_bits @ histogram, pools & bitset.from_indices(flat, universe)
