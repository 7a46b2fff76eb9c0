"""Process-set partitions (Section 4.2 and Lemma 13).

The base algorithm uses ``log n`` *bit partitions*: partition ``l`` splits
``[n]`` by the ``l``-th bit of the process identifier, which guarantees
(Lemma 5) that any two distinct alive processes are separated by some
partition.

The collusion-tolerant variant (Section 6.2) instead uses ``~ c tau log n``
*random partitions* of ``tau + 1`` groups each, required to satisfy:

* **Partition-Property 1** — every group of every partition is non-empty;
* **Partition-Property 2** — for every set ``S`` of at least
  ``2 c' tau log n`` processes there is a partition in which every group
  intersects ``S``.

Lemma 13 proves such partition sets exist (for ``tau < n / log^2 n``) via
the probabilistic method; we *construct* them the same way — sample
uniformly, validate Property 1 exactly, and expose exact/Monte-Carlo
checkers for Property 2 (bench E8 measures how reliably random sampling
succeeds).
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "PartitionSet",
    "BitPartitions",
    "RandomPartitions",
    "property1_holds",
    "property2_holds_for_set",
    "property2_exact",
    "property2_monte_carlo",
    "property2_set_size",
]


class PartitionSet:
    """A family of partitions of ``[n]`` into ``num_groups`` groups.

    Concrete classes provide ``group_of``; everything else is derived.
    Partition sets are part of the *algorithm input* (all processes,
    including freshly restarted ones, know them), so instances must be
    deterministic functions of their construction arguments.
    """

    def __init__(self, n: int, count: int, num_groups: int):
        if n < 1:
            raise ValueError("n must be positive")
        if count < 1:
            raise ValueError("need at least one partition")
        if num_groups < 2:
            raise ValueError("need at least two groups per partition")
        self.n = n
        self.count = count
        self.num_groups = num_groups
        self._members_cache: Dict[Tuple[int, int], FrozenSet[int]] = {}

    def group_of(self, partition: int, pid: int) -> int:
        raise NotImplementedError

    def members(self, partition: int, group: int) -> FrozenSet[int]:
        """All pids assigned to ``group`` in ``partition`` (cached)."""
        key = (partition, group)
        cached = self._members_cache.get(key)
        if cached is None:
            if not 0 <= partition < self.count:
                raise IndexError("partition {} out of range".format(partition))
            if not 0 <= group < self.num_groups:
                raise IndexError("group {} out of range".format(group))
            cached = frozenset(
                pid for pid in range(self.n) if self.group_of(partition, pid) == group
            )
            self._members_cache[key] = cached
        return cached

    def assignment(self, partition: int) -> Tuple[int, ...]:
        """Group index of every pid in ``partition``."""
        return tuple(self.group_of(partition, pid) for pid in range(self.n))

    def separating_partition(self, p: int, q: int) -> Optional[int]:
        """Some partition placing ``p`` and ``q`` in different groups."""
        for partition in range(self.count):
            if self.group_of(partition, p) != self.group_of(partition, q):
                return partition
        return None

    def covering_partition(self, alive: Iterable[int]) -> Optional[int]:
        """A partition in which every group contains an alive process."""
        alive_set = set(alive)
        for partition in range(self.count):
            hit = set()
            for pid in alive_set:
                hit.add(self.group_of(partition, pid))
                if len(hit) == self.num_groups:
                    break
            if len(hit) == self.num_groups:
                return partition
        return None

    def validate_property1(self) -> None:
        for partition in range(self.count):
            for group in range(self.num_groups):
                if not self.members(partition, group):
                    raise ValueError(
                        "Partition-Property 1 violated: partition {} group {} "
                        "is empty".format(partition, group)
                    )


class BitPartitions(PartitionSet):
    """``ceil(log2 n)`` partitions by identifier bits (base CONGOS)."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("bit partitions need n >= 2")
        count = max(1, math.ceil(math.log2(n)))
        super().__init__(n, count, 2)
        self.validate_property1()

    def group_of(self, partition: int, pid: int) -> int:
        return (pid >> partition) & 1

    def separating_partition(self, p: int, q: int) -> Optional[int]:
        if p == q:
            return None
        differing = p ^ q
        partition = (differing & -differing).bit_length() - 1
        return partition if partition < self.count else None


class RandomPartitions(PartitionSet):
    """Uniformly random assignments, Property-1 validated (Lemma 13).

    Each partition is resampled (bounded attempts) until every group is
    non-empty — the constructive counterpart of the probabilistic-method
    existence proof.  Property 2 is *checked*, not enforced, because it
    quantifies over exponentially many sets; use :func:`property2_exact`
    (small n) or :func:`property2_monte_carlo`.
    """

    def __init__(self, n: int, assignments: Sequence[Sequence[int]], num_groups: int):
        if not assignments:
            raise ValueError("need at least one assignment")
        for assignment in assignments:
            if len(assignment) != n:
                raise ValueError("assignment length must equal n")
        super().__init__(n, len(assignments), num_groups)
        self._assignments: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(a) for a in assignments
        )
        self.validate_property1()

    def group_of(self, partition: int, pid: int) -> int:
        return self._assignments[partition][pid]

    @classmethod
    def generate(
        cls,
        n: int,
        tau: int,
        rng: random.Random,
        count: Optional[int] = None,
        max_attempts_per_partition: int = 1000,
    ) -> "RandomPartitions":
        """Sample a Lemma-13 partition family for collusion bound ``tau``.

        ``tau + 1`` groups per partition; ``count`` defaults to
        ``ceil(tau * log2 n)``.
        """
        if tau < 1:
            raise ValueError("tau must be >= 1")
        num_groups = tau + 1
        if num_groups > n:
            raise ValueError(
                "cannot form {} non-empty groups from {} processes".format(num_groups, n)
            )
        if count is None:
            log_n = max(1.0, math.log2(max(2, n)))
            count = max(1, math.ceil(tau * log_n))
        assignments: List[Tuple[int, ...]] = []
        for _ in range(count):
            assignment = _sample_nonempty_assignment(
                n, num_groups, rng, max_attempts_per_partition
            )
            assignments.append(assignment)
        return cls(n, assignments, num_groups)


def _sample_nonempty_assignment(
    n: int, num_groups: int, rng: random.Random, max_attempts: int
) -> Tuple[int, ...]:
    for _ in range(max_attempts):
        assignment = tuple(rng.randrange(num_groups) for _ in range(n))
        if len(set(assignment)) == num_groups:
            return assignment
    # Deterministic fallback: seed each group with one process, randomise
    # the rest.  Still a valid Property-1 partition.
    base = list(range(num_groups)) + [
        rng.randrange(num_groups) for _ in range(n - num_groups)
    ]
    rng.shuffle(base)
    return tuple(base)


# ----------------------------------------------------------------------
# Property checkers (Lemma 13)
# ----------------------------------------------------------------------


def property1_holds(partitions: PartitionSet) -> bool:
    try:
        partitions.validate_property1()
    except ValueError:
        return False
    return True


def property2_set_size(n: int, tau: int, c_prime: float = 1.0) -> int:
    """The ``2 c' tau log n`` threshold of Partition-Property 2."""
    log_n = max(1.0, math.log2(max(2, n)))
    return max(tau + 1, math.ceil(2 * c_prime * tau * log_n))


def property2_holds_for_set(partitions: PartitionSet, alive: Iterable[int]) -> bool:
    """Does some partition have every group intersecting ``alive``?"""
    return partitions.covering_partition(alive) is not None


def property2_exact(
    partitions: PartitionSet, set_size: int, limit: int = 200_000
) -> Optional[bool]:
    """Exhaustively check Property 2 over all size-``set_size`` sets.

    Returns ``None`` when the number of sets exceeds ``limit`` (fall back
    to :func:`property2_monte_carlo`).
    """
    total = math.comb(partitions.n, set_size)
    if total > limit:
        return None
    for subset in itertools.combinations(range(partitions.n), set_size):
        if not property2_holds_for_set(partitions, subset):
            return False
    return True


def property2_monte_carlo(
    partitions: PartitionSet,
    set_size: int,
    trials: int,
    rng: random.Random,
) -> Tuple[int, int]:
    """Sample ``trials`` random sets; return (satisfied, trials).

    Adversarially-minded sampling would bias toward bad sets; uniform
    sampling mirrors the probabilistic-method argument of Lemma 13 and is
    what bench E8 reports.
    """
    if set_size > partitions.n:
        raise ValueError("set size exceeds n")
    satisfied = 0
    population = list(range(partitions.n))
    for _ in range(trials):
        subset = rng.sample(population, set_size)
        if property2_holds_for_set(partitions, subset):
            satisfied += 1
    return satisfied, trials
