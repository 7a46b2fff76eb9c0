"""Deterministic fault schedules.

A :class:`FaultSchedule` turns ``(master_seed, FaultSpec, n)`` into a
fully reproducible fault schedule.  The fault model is oblivious, so
:meth:`FaultSchedule.fate` is a pure function of where and when a message
is sent — ``(round, src, dst, copy)``, ``copy`` counting same-(src, dst)
messages within the round — computed with the SplitMix64 finaliser
(:func:`mix64`).  Nothing depends on admission order, so the same seed
yields the same schedule at any ``--jobs``, under any shard layout, and
for a run sliced at any round.  Inbox shuffles draw from one stream per
``(round, dst)``; partition storms from one per storm window, so a cut
does not depend on traffic.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.chaos.spec import FaultSpec
from repro.sim.rng import derive_rng

__all__ = ["FaultSchedule", "FaultDecision", "mix64", "draw_hold"]

# Per-message fates, in precedence order.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"

#: ``(fate, delay_rounds)`` — ``delay_rounds`` is 0 unless fate needs one.
FaultDecision = Tuple[str, int]

_DELIVER: FaultDecision = (DELIVER, 0)

MASK64 = (1 << 64) - 1
#: The golden-ratio increment of SplitMix64; odd, so ``x * PHI`` is a
#: bijection modulo 2**64.
PHI = 0x9E3779B97F4A7C15
_TWO_NEG53 = 2.0 ** -53

#: Hold lanes: ``mix64(h ^ lane)`` of a message's hash ``h`` draws
#: independently of the fate and of the other lane.
DELAY_LANE = 1
TARGETED_LANE = 2


def mix64(z: int) -> int:
    """The SplitMix64 finaliser: a bijective avalanche mix of 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def draw_hold(h: int, lane: int, bound: int) -> int:
    """A hold in ``1..bound`` rounds from lane ``lane`` of message hash ``h``."""
    return 1 + mix64(h ^ lane) % bound


class FaultSchedule:
    """Seed-keyed source of per-message fault decisions."""

    def __init__(self, master_seed: int, spec: FaultSpec, n: int):
        if n <= 0:
            raise ValueError("schedule needs at least one process")
        self.master_seed = int(master_seed)
        self.spec = spec
        self.n = n
        # pack(src, dst, copy): disjoint bit fields of one 64-bit word, so
        # distinct messages stay distinct through ``* PHI`` and the mix.
        self._pid_bits = max(1, (n - 1).bit_length())
        self._copy_shift = 2 * self._pid_bits
        copy_bits = 64 - self._copy_shift
        if copy_bits < 16:
            raise ValueError(
                "n={}: two pid fields leave under 16 of the 64-bit message "
                "key's bits for the copy index".format(n)
            )
        #: Messages one (src, dst) pair may send in a round before two
        #: would share a key.
        self.copy_limit = 1 << copy_bits
        # Cumulative thresholds on u: drop, then delay, then duplicate.
        self._drop_cut = spec.drop
        self._delay_cut = spec.drop + spec.delay
        self._duplicate_cut = spec.drop + spec.delay + spec.duplicate
        self._key_round: Optional[int] = None  # _enter_round sets the rest
        self._partition_cache: Dict[int, frozenset] = {}

    # -- per-message fates ------------------------------------------------

    def _enter_round(self, round_no: int) -> None:
        # One key per round, reused by every fate and hold drawn in it.
        self._key_round = round_no
        self._round_key = mix64((self.master_seed * PHI + round_no) & MASK64)
        # A spec without drop, delay or duplicate decides nothing.
        self._active = self._duplicate_cut > 0 and self.spec.active_in(round_no)

    def message_hash(self, round_no: int, src: int, dst: int, copy: int) -> int:
        """The 64-bit hash every random decision about one message uses."""
        if round_no != self._key_round:
            self._enter_round(round_no)
        packed = (copy << self._copy_shift) | (src << self._pid_bits) | dst
        return mix64((self._round_key + packed * PHI) & MASK64)

    def fate(self, round_no: int, src: int, dst: int, copy: int) -> FaultDecision:
        """Fate of the ``copy``-th (src, dst) message sent in ``round_no``.

        One uniform ``u`` (the hash's top 53 bits) decides: drop, then
        delay, then duplicate.  Only a delay draws a hold, from a lane.
        """
        if round_no != self._key_round:
            self._enter_round(round_no)
        if not self._active:
            return _DELIVER
        # message_hash, inlined: the round key is already entered above.
        packed = (copy << self._copy_shift) | (src << self._pid_bits) | dst
        h = mix64((self._round_key + packed * PHI) & MASK64)
        u = (h >> 11) * _TWO_NEG53
        if u < self._drop_cut:
            return (DROP, 0)
        if u < self._delay_cut:
            return (DELAY, draw_hold(h, DELAY_LANE, self.spec.max_delay))
        if u < self._duplicate_cut:
            return (DUPLICATE, 1)
        return _DELIVER

    def inbox_rng(self, round_no: int, dst: int) -> random.Random:
        """Per-recipient shuffle stream (shard-invariant reordering)."""
        return derive_rng(self.master_seed, "chaos", "reorder", round_no, dst)

    # -- partition storms ------------------------------------------------

    def severed(self, round_no: int) -> Optional[frozenset]:
        """The pid set on one side of the cut, or ``None`` if no storm.

        While a storm is active every message crossing the cut is
        severed.  The bisection for storm window ``k`` is drawn from its
        own stream, so it is identical regardless of when (or whether)
        earlier rounds were simulated.
        """
        spec = self.spec
        if not spec.partition_period or not spec.active_in(round_no):
            return None
        window, phase = divmod(round_no, spec.partition_period)
        if phase >= spec.partition_width:
            return None
        cached = self._partition_cache.get(window)
        if cached is None:
            rng = derive_rng(self.master_seed, "chaos", "partition", window)
            side_size = max(1, self.n // 2)
            cached = frozenset(rng.sample(range(self.n), side_size))
            self._partition_cache[window] = cached
        return cached
