"""Array kernels: batched XOR splitting, fanout sampling and GD scoring.

These are the inner loops of the array engine, factored out so the
``repro.perf`` microbench registry can pin their cost:

* :func:`split_shares` — XOR secret-split one payload into ``(P, G)``
  shares for all partitions at once (Section 4.1, vectorized);
* :func:`merge_shares` — XOR-fold one partition's shares back;
* :func:`sample_rows` — per-sender distinct fanout sampling as one
  argpartition over a random matrix (small pools), with a
  with-replacement fast path for large pools where collisions are
  negligible and only the *count* of sends is observable;
* :func:`gd_union_pools` — every GroupDistribution sender class's union
  target pool at once;
* :func:`gd_score` — one ``(partition, group)`` key's GroupDistribution
  draws, from every sender class, scored against every rumor's target
  pool at once: bitsets packed on the rumor axis and ``reduceat`` over
  runs — no sort of the draws, no per-class or per-rumor Python, no
  ``isin`` and no float matmul.
"""

from __future__ import annotations

import numpy as np

from repro.fastcore import bitset

__all__ = [
    "split_shares",
    "merge_shares",
    "sample_rows",
    "sample_targets_excluding_self",
    "gd_union_pools",
    "gd_score",
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


def gd_union_pools(pools: np.ndarray, holding: np.ndarray) -> np.ndarray:
    """Each sender class's union pool, the OR of the ``(R, words)`` pools
    of the rumors its row of the ``(C, R)`` ``holding`` matrix holds: one
    ``reduceat`` over the class-major holding pairs, ``(C, words)``."""
    class_of, rumor_of = np.nonzero(holding)
    unions = np.zeros((len(holding), pools.shape[1]), dtype=pools.dtype)
    held, starts = _run_starts(np.bincount(class_of, minlength=len(holding)))
    if len(held):
        unions[held] = np.bitwise_or.reduceat(pools[rumor_of], starts, axis=0)
    return unions


def gd_score(
    pools: np.ndarray, holding: np.ndarray, flat: np.ndarray, sizes: np.ndarray
):
    """Score one key's GroupDistribution draws against its ``R`` rumor pools.

    ``pools`` is the ``(R, words)`` stack of the rumors' target-pool
    bitsets and ``holding`` the ``(C, R)`` bool matrix of the rumors each
    sender class holds; ``flat`` holds the drawn target pids class by
    class, in class order, ``sizes[c]`` of them for class ``c`` (repeats
    allowed).  Returns ``(appropriate, hits, order)``: ``appropriate[c]``
    counts class ``c``'s draws that landed in the pool of a rumor it
    holds, once per such rumor (each is a fragment-bearing message);
    ``hits[r]`` is the bitset of distinct pids of pool ``r`` drawn by a
    class holding ``r``; ``order`` lists the rumors with a hit by the first
    class whose draws hit them, then by index — the order a class-by-class
    pass would first touch them in.
    """
    classes, rumors = holding.shape
    universe = 64 * pools.shape[1]
    # Both sides packed on the rumor axis: one AND + popcount per draw,
    # summed over each class's run of draws (no per-draw wide integers).
    held = np.packbits(holding, axis=1, bitorder="little")
    pooled = np.ascontiguousarray(
        np.packbits(bitset.to_flags(pools), axis=0, bitorder="little").T
    )
    landed = np.bitwise_count(np.repeat(held, sizes, axis=0) & pooled[flat])
    appropriate = np.zeros(classes, dtype=np.int64)
    drew, starts = _run_starts(sizes)
    if len(drew):
        appropriate[drew] = np.add.reduceat(
            landed, starts, axis=0, dtype=np.int64
        ).sum(axis=1)
    # Each class's drawn pids as one bitset: a bool scatter + packbits.
    flags = np.zeros(classes * universe, dtype=np.bool_)
    cells = np.repeat(np.arange(classes) * universe, sizes)
    cells += flat
    flags[cells] = True
    drawn = np.packbits(
        flags.reshape(classes, universe), axis=1, bitorder="little"
    ).view(np.uint64)
    # Rumor-major (rumor, class) holding pairs, OR-folded per rumor.
    rumor_of, class_of = np.nonzero(holding.T)
    pair_hits = pools[rumor_of] & drawn[class_of]
    hit_class = np.where(pair_hits.any(axis=1), class_of, classes)
    hits = np.zeros_like(pools)
    first = np.full(rumors, classes)
    held_by, starts = _run_starts(np.bincount(rumor_of, minlength=rumors))
    if len(held_by):
        hits[held_by] = np.bitwise_or.reduceat(pair_hits, starts, axis=0)
        first[held_by] = np.minimum.reduceat(hit_class, starts)
    order = np.flatnonzero(first < classes)
    order = order[np.argsort(first[order], kind="stable")]
    return appropriate, hits, order


def _run_starts(lengths: np.ndarray):
    """For back-to-back runs of ``lengths[i]`` items: the indices of the
    non-empty runs and where each starts (``reduceat`` offsets)."""
    nonempty = np.flatnonzero(lengths)
    return nonempty, (np.cumsum(lengths) - lengths)[nonempty]
