"""Packed ``uint64`` bitsets over the pid universe ``[0, n)``.

The array engine keeps every membership set — groups, item holders,
destination sets, hit sets — as a little word array (``(n + 63) // 64``
``uint64`` words), so unions, intersections and subset tests are a
handful of SIMD ops regardless of ``n``.  ``numpy >= 2.0`` gives us a
native popcount (``np.bitwise_count``).  Set algebra never sorts: an
index array becomes a mask by a bool scatter + ``np.packbits``, a mask
becomes (sorted) indices through ``np.unpackbits`` on the byte view, and
``test_bits`` / ``to_flags`` answer for a ``(rows, words)`` stack of sets
in one gather.

All helpers are pure functions over plain arrays; the module imports
numpy eagerly and is only loaded behind :func:`repro.fastcore.require_numpy`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "n_words",
    "empty",
    "full",
    "from_indices",
    "to_flags",
    "to_indices",
    "popcount",
    "test_bits",
    "union_into",
    "andnot",
    "intersect",
    "is_subset",
    "any_common",
]

_WORD_BITS = 64


def n_words(n: int) -> int:
    """Words needed for ``n`` bits."""
    return (n + _WORD_BITS - 1) // _WORD_BITS


def empty(n: int) -> np.ndarray:
    """The empty set over ``[0, n)``."""
    return np.zeros(n_words(n), dtype=np.uint64)


def full(n: int) -> np.ndarray:
    """The full set ``{0, ..., n-1}``."""
    bits = np.full(n_words(n), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = n % _WORD_BITS
    if tail:
        bits[-1] = np.uint64((1 << tail) - 1)
    return bits


def from_indices(indices, n: int) -> np.ndarray:
    """Pack an index array (any order, duplicates allowed) into a bitset.

    A bool scatter followed by ``np.packbits``: linear in ``len(indices)
    + n`` with no sort, hash or ``ufunc.at`` — this is how every index
    array in the round loop becomes a mask.
    """
    flags = np.zeros(n_words(n) * _WORD_BITS, dtype=np.bool_)
    flags[np.asarray(indices, dtype=np.int64)] = True
    return np.packbits(flags, bitorder="little").view(np.uint64)


def to_flags(bits: np.ndarray) -> np.ndarray:
    """Unpack a bitset — or a ``(rows, words)`` stack of them — into 0/1
    bytes along the last axis (``64 * words`` of them, tail bits zero)."""
    return np.unpackbits(bits.view(np.uint8), axis=-1, bitorder="little")


def to_indices(bits: np.ndarray, n: int) -> np.ndarray:
    """Unpack a bitset into a sorted int64 index array."""
    return np.flatnonzero(to_flags(bits)[:n]).astype(np.int64)


def popcount(bits: np.ndarray) -> int:
    """Number of set bits."""
    return int(np.bitwise_count(bits).sum())


def test_bits(bits: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Boolean membership of each index in the bitset.

    ``bits`` may be one bitset or a ``(rows, words)`` stack of them, in
    which case the result has a leading ``rows`` axis: one gather answers
    the question for every set at once.
    """
    idx = np.asarray(indices, dtype=np.int64)
    return (bits[..., idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1) != 0


def union_into(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """``target |= source`` in place; returns ``target``."""
    np.bitwise_or(target, source, out=target)
    return target


def andnot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & ~b`` (set difference)."""
    return a & ~b


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & b``."""
    return a & b


def is_subset(a: np.ndarray, b: np.ndarray) -> bool:
    """True when every bit of ``a`` is set in ``b``."""
    return not np.any(a & ~b)


def any_common(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the sets intersect."""
    return bool(np.any(a & b))
