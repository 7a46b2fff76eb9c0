"""Deadline trimming and protocol-instance keying (Section 4.2).

CONGOS runs one protocol instance per *deadline class*.  Deadlines are
first capped at ``c log^6 n`` ("trimming deadlines that are unnecessarily
big"), then rounded **down** to a power of two, so that rumors injected in
the same round fall into ``O(log log n)`` classes.  Neither step can miss a
deadline — a rumor delivered by its trimmed deadline is delivered by its
real one — and neither changes the asymptotic message complexity.

Rumors whose trimmed deadline does not exceed ``direct_send_threshold``
(the paper analyses ``dline > 48``) skip the pipeline entirely: the source
sends them straight to their destination set.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import CongosParams

__all__ = [
    "PIPELINE_FLOOR",
    "round_down_power_of_two",
    "trim_deadline",
    "pipeline_deadline",
    "goes_direct",
    "deadline_classes",
    "min_pipeline_deadline",
]

# The block pipeline needs at least one iteration per block:
# dline/4 >= sqrt(dline) + 2 first holds at the power of two 64 (Lemma 6
# assumes dline > 48).  Shorter deadlines always go the direct-send route,
# whatever the configured threshold.
PIPELINE_FLOOR = 64


def round_down_power_of_two(value: int) -> int:
    """Largest power of two that is <= ``value``."""
    if value < 1:
        raise ValueError("value must be positive")
    return 1 << (value.bit_length() - 1)


def trim_deadline(deadline: int, cap: int) -> int:
    """Apply both trims: cap at ``cap``, then round down to a power of 2."""
    if deadline < 1:
        raise ValueError("deadline must be positive")
    if cap < 1:
        raise ValueError("cap must be positive")
    return round_down_power_of_two(min(deadline, cap))


def min_pipeline_deadline(params: CongosParams) -> int:
    """Smallest trimmed deadline that runs through the pipeline.

    The smallest power of two strictly above ``direct_send_threshold``;
    with the paper's threshold of 48 this is 64, for which a block holds
    16 rounds and exactly one 10-round iteration fits (Lemma 6 needs
    ``sqrt(dline)/8 >= 1`` iterations, satisfied for dline >= 64).
    """
    threshold = params.direct_send_threshold
    from_threshold = round_down_power_of_two(threshold) * 2 if threshold >= 1 else 1
    return max(PIPELINE_FLOOR, from_threshold)


def pipeline_deadline(deadline: int, params: CongosParams, n: int) -> Optional[int]:
    """The trimmed deadline class for a rumor, or None for direct send.

    ``None`` means the deadline is too short for the block pipeline and
    the source must deliver the rumor itself (Section 5: "If it is not
    [> 48], then the desired bound can be trivially met simply by sending
    rumors directly to their destination sets by the source").
    """
    trimmed = trim_deadline(deadline, params.effective_deadline_cap(n))
    if trimmed <= params.direct_send_threshold or trimmed < PIPELINE_FLOOR:
        return None
    return trimmed


def goes_direct(deadline: int, params: CongosParams, n: int) -> bool:
    """Whether a rumor with this deadline takes the direct-send route.

    Direct-route rumors are the ones ``hardened``'s direct-send settings
    (acks, retransmits, extra copies) protect; pipeline rumors have the
    proxy/GD/gossip redundancy story instead.
    """
    return pipeline_deadline(deadline, params, n) is None


def deadline_classes(params: CongosParams, n: int) -> List[int]:
    """Every possible trimmed-deadline class, smallest first.

    There are ``O(log log n)`` of them — the powers of two between the
    pipeline minimum and the cap.
    """
    cap = params.effective_deadline_cap(n)
    smallest = min_pipeline_deadline(params)
    classes: List[int] = []
    dline = smallest
    while dline <= cap:
        classes.append(dline)
        dline *= 2
    if not classes and cap >= smallest:
        classes.append(smallest)
    return classes
