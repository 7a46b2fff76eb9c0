"""Round clock and block/iteration arithmetic.

The paper's CONGOS protocol divides time into *blocks* of ``dline/4`` rounds,
and each block into *iterations* of ``isqrt(dline) + 2`` rounds (Figures 3/4
and Section 4.2).  Blocks are globally aligned: every process derives the
current block from the global round counter, which is what allows a restarted
process (with no durable state) to rejoin the protocol at the next block
boundary.

This module centralises that arithmetic so the Proxy, GroupDistribution and
ConfidentialGossip services, as well as the analysis code, all agree on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ACTIVATE_GD", "ACTIVATE_PROXY", "BlockSchedule", "BlockStage", "GD_CENSUS",
    "GD_SEND", "HAND_UP", "ITERATION_START", "PROXY_ACK", "PROXY_REQUEST",
    "PROXY_SHARE", "RoundClock",
]

# The stage rounds of DESIGN.md §5, as bit flags: ``BlockSchedule.stages``
# of a round is the union of the stages that fall on it.  Every engine
# reads these names; no other module computes a position in a block.
ACTIVATE_PROXY = 1 << 0   # block start: Proxy collects its waiting fragments
ACTIVATE_GD = 1 << 1      # block start + 1: GD takes the hand-up as partials
ITERATION_START = 1 << 2  # iteration position 0: both services roll their census
PROXY_REQUEST = 1 << 3    # position 0: requesters send proxy requests
PROXY_SHARE = 1 << 4      # position 1: Proxy injects its GroupGossip share
GD_SEND = 1 << 5          # position 1: GD sends fragments to destinations
GD_CENSUS = 1 << 6        # position 2: GD injects its hitSet share (the census)
PROXY_ACK = 1 << 7        # the iteration's last round: proxies ack, requesters settle
HAND_UP = 1 << 8          # the block's last round: Proxy hand-up, GD publish


@dataclass(frozen=True)
class BlockStage:
    """One block service's place on the schedule: the flag of its
    activation round and that round's offset in the block, the flag of its
    share round, and the continuous uptime it needs to activate (§5)."""

    activate: int
    offset: int
    share: int
    uptime: int


@dataclass(frozen=True)
class BlockSchedule:
    """Block/iteration timing derived from a trimmed deadline ``dline``.

    Attributes
    ----------
    dline:
        The trimmed, power-of-two deadline this schedule serves.
    block_len:
        ``dline // 4`` — the length of one block, in rounds.
    iteration_len:
        ``isqrt(dline) + 2`` — the length of one iteration, in rounds.
    iterations_per_block:
        How many whole iterations fit in a block.
    gossip_deadline:
        ``max(1, isqrt(dline))`` — deadline for GroupGossip shares inside
        an iteration.
    allgossip_deadline:
        ``max(1, block_len - 1)`` — deadline for the end-of-block AllGossip
        confirmation rumor.
    proxy, gd:
        The :class:`BlockStage` of Proxy (activates at the block start
        after ``dline // 4`` rounds of uptime, shares at position 1) and of
        GroupDistribution (block start + 1, ``2·dline // 3``, position 2).
    """

    dline: int

    def __post_init__(self) -> None:
        if self.dline < 4:
            raise ValueError("dline must be >= 4, got {}".format(self.dline))
        # Derived once: the stages are queried on every round of every
        # service instance.  (Plain attributes, not fields: the dataclass
        # identity — eq/repr — stays keyed on ``dline`` alone, and
        # object.__setattr__ is the frozen-dataclass idiom for init-time
        # caches.)
        block_len = self.dline // 4
        iteration_len = math.isqrt(self.dline) + 2
        proxy = BlockStage(ACTIVATE_PROXY, 0, PROXY_SHARE, self.dline // 4)
        gd = BlockStage(ACTIVATE_GD, 1, GD_CENSUS, (2 * self.dline) // 3)
        # Stages by block offset and by iteration position (iterations are
        # >= 4 rounds long: positions 0, 1, 2 and the last are distinct).
        by_offset = {block_len - 1: HAND_UP}
        for stage in (proxy, gd):
            by_offset[stage.offset] = by_offset.get(stage.offset, 0) | stage.activate
        by_position = [ITERATION_START | PROXY_REQUEST, PROXY_SHARE | GD_SEND, GD_CENSUS]
        by_position += [0] * (iteration_len - 4) + [PROXY_ACK]
        for name, value in dict(
            block_len=block_len,
            iteration_len=iteration_len,
            iterations_per_block=block_len // iteration_len,
            _iterated=block_len // iteration_len * iteration_len,
            gossip_deadline=max(1, math.isqrt(self.dline)),
            allgossip_deadline=max(1, block_len - 1),
            proxy=proxy,
            gd=gd,
            _by_offset=by_offset,
            _by_position=tuple(by_position),
        ).items():
            object.__setattr__(self, name, value)

    def stages(self, round_no: int) -> int:
        """The stage flags that fall on ``round_no`` (0 for none)."""
        offset = round_no % self.block_len
        stages = self._by_offset.get(offset, 0)
        if offset < self._iterated:  # not in the block's slack tail
            stages |= self._by_position[offset % self.iteration_len]
        return stages

    def activation_round(self, stage: BlockStage, round_no: int) -> int:
        """``stage``'s activation round in the block holding ``round_no``."""
        return self.block_start(self.block_of(round_no)) + stage.offset

    def proxy_retransmit(self, round_no: int) -> int:
        """The ``k`` of a hardened Proxy's ``k``-th re-request, due at
        iteration position ``2**k`` short of the ack round; else 0."""
        position = self.round_in_iteration(round_no)
        if 2 <= position < self.iteration_len - 1 and not position & (position - 1):
            return position.bit_length() - 1
        return 0

    def block_of(self, round_no: int) -> int:
        """The (global) block index containing ``round_no``."""
        return round_no // self.block_len

    def block_start(self, block: int) -> int:
        """First round of block ``block``."""
        return block * self.block_len

    def iteration_of(self, round_no: int) -> int:
        """Iteration index within the block, or -1 in the slack tail.

        Rounds beyond ``iterations_per_block * iteration_len`` in a block do
        not belong to any iteration; services idle (or let gossip tails
        drain) during the slack tail.
        """
        iteration = (round_no % self.block_len) // self.iteration_len
        if iteration >= self.iterations_per_block:
            return -1
        return iteration

    def round_in_iteration(self, round_no: int) -> int:
        """Offset of ``round_no`` within its iteration (0-based), or -1."""
        offset = round_no % self.block_len
        if offset // self.iteration_len >= self.iterations_per_block:
            return -1
        return offset % self.iteration_len


class RoundClock:
    """The global synchronous round counter.

    Processes have access to a global clock (Section 2), which is how a
    restarted process re-synchronises with block boundaries.  The clock is
    owned by the engine; everything else holds a read-only reference.
    """

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("start round must be non-negative")
        self._round = start

    @property
    def round(self) -> int:
        return self._round

    def advance(self) -> int:
        """Move to the next round and return the new round number."""
        self._round += 1
        return self._round

    def __repr__(self) -> str:
        return "RoundClock(round={})".format(self._round)
