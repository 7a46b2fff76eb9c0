"""Deterministic expander-like communication schedules.

The continuous-gossip algorithm of [13] (Georgiou, Gilbert, Kowalski,
"Meeting the Deadline", PODC 2010) derandomizes epidemic gossip by replacing
random target choices with carefully chosen expander graphs.  We provide a
lightweight deterministic analogue: a circulant "shift" graph whose offsets
are geometrically spread, which mixes fast in practice, plus a per-round
rotation so that over ``k`` rounds each process contacts ``k * degree``
distinct peers.

This is *not* a certified Ramanujan expander — constructing those is out of
scope (DESIGN.md Section 6) — but it provides the property CONGOS needs
from [13]'s schedules at simulation scale: deterministic, history-free
(restart-safe, since the schedule depends only on the pid, the round and
the group), and rapidly mixing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["ShiftExpander", "circulant_offsets"]


def circulant_offsets(size: int, degree: int) -> Tuple[int, ...]:
    """Geometrically spread circulant offsets ``{1, 2, 4, ...}`` mod size.

    Doubling offsets give the hypercube-like dimension hops that make the
    graph's diameter logarithmic; extra offsets (when ``degree`` exceeds
    ``log2(size)``) are filled with odd strides for additional mixing.
    """
    if size <= 1:
        return ()
    offsets: List[int] = []
    step = 1
    while len(offsets) < degree and step < size:
        offsets.append(step)
        step *= 2
    stride = 3
    while len(offsets) < degree:
        candidate = stride % size
        if candidate not in offsets and candidate != 0:
            offsets.append(candidate)
        stride += 2
        if stride > 2 * size:  # degenerate tiny groups
            break
    return tuple(offsets)


class ShiftExpander:
    """A deterministic rotating schedule over an ordered group of pids.

    The group is given as a sorted sequence; each member contacts, in round
    ``r``, the members at circulant offsets rotated by ``r``.  Restarted
    processes recompute the same schedule from the global clock alone.
    """

    def __init__(self, members: Sequence[int], degree: int):
        self.members: Tuple[int, ...] = tuple(sorted(set(members)))
        if not self.members:
            raise ValueError("expander group must be non-empty")
        self.size = len(self.members)
        self.degree = max(0, min(degree, self.size - 1))
        self.offsets = circulant_offsets(self.size, self.degree)
        self._index = {pid: i for i, pid in enumerate(self.members)}

    def contains(self, pid: int) -> bool:
        return pid in self._index

    def neighbors(self, pid: int) -> List[int]:
        """The static (round-0) neighborhood of ``pid``."""
        return self.targets(pid, 0)

    def targets(self, pid: int, round_no: int) -> List[int]:
        """Deterministic contact targets of ``pid`` in ``round_no``."""
        if self.size <= 1:
            return []
        position = self._index.get(pid)
        if position is None:
            raise KeyError("pid {} not in expander group".format(pid))
        rotation = round_no % self.size
        out: List[int] = []
        for offset in self.offsets:
            target = self.members[(position + offset + rotation) % self.size]
            if target != pid and target not in out:
                out.append(target)
        return out
