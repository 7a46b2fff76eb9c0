"""Epidemic (rumor-spreading) primitives.

The continuous-gossip substrate and the plain-gossip baseline both build on
classic randomized push: each informed process forwards to a few targets
chosen uniformly at random each round, which informs an n-process group in
``O(log n)`` rounds w.h.p. (Karp et al., FOCS 2000 — reference [19] of the
paper).  This module centralises target selection and fanout policy.
"""

from __future__ import annotations

import math
import random
from typing import FrozenSet, List, Sequence

__all__ = ["default_fanout", "choose_push_targets"]


def default_fanout(scope_size: int, scale: float = 2.0, minimum: int = 1) -> int:
    """Push fanout for a group of ``scope_size`` processes.

    ``ceil(scale * log2(scope_size))`` targets per round informs the group
    within ``O(log n)`` rounds with failure probability polynomially small
    in the group size; ``scale`` trades messages for speed.
    """
    if scope_size <= 1:
        return 0
    fanout = math.ceil(scale * math.log2(scope_size))
    return max(minimum, min(fanout, scope_size - 1))


# Candidate pools keyed by (scope, self_pid, exclude).  Scopes are small in
# number (groups are fixed per run) but queried every round by every member,
# so the filtered pool is rebuilt millions of times with identical inputs.
# The cached pool preserves the original scope order exactly, so the
# ``rng.sample`` call sequence — and hence every default run — is unchanged.
# Bounded: cleared wholesale if an adversarial workload floods it with
# distinct keys (each entry is O(|scope|), so the cap keeps memory trivial).
_POOL_CACHE: dict = {}
_POOL_CACHE_MAX = 4096


def choose_push_targets(
    rng: random.Random,
    scope: Sequence[int],
    self_pid: int,
    fanout: int,
    exclude: FrozenSet[int] = frozenset(),
) -> List[int]:
    """Choose up to ``fanout`` distinct targets from ``scope``.

    Never selects ``self_pid`` or anything in ``exclude``.  When the
    candidate pool is smaller than ``fanout`` the whole pool is returned
    (deterministically ordered), since sampling more is impossible.
    """
    if fanout <= 0:
        return []
    key = (tuple(scope), self_pid, exclude)
    pool = _POOL_CACHE.get(key)
    if pool is None:
        if len(_POOL_CACHE) >= _POOL_CACHE_MAX:
            _POOL_CACHE.clear()
        pool = [p for p in key[0] if p != self_pid and p not in exclude]
        _POOL_CACHE[key] = pool
    if not pool:
        return []
    if len(pool) <= fanout:
        return sorted(pool)
    return rng.sample(pool, fanout)
