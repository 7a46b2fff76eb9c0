"""The group Filter (Figure 11).

Every message a GroupGossip[l] instance sends is filtered before reaching
the network: if the sender belongs to group ``P`` of partition ``l``, any
message addressed outside ``P`` is silently dropped.  "From the perspective
of GroupGossip[l], the processes that cannot be reached due to the filter
are effectively failed."

Our :class:`ContinuousGossip` chooses targets inside its scope to begin
with, so in a correct build the filter never fires — it is the *enforcement
boundary* that turns a target-selection bug into a counted drop instead of
a confidentiality violation.  ``tests/test_gossip_filter.py`` runs steady
(tau=1) and collusion (tau=2) scenarios and checks ``dropped == 0`` on
every gossip instance of every node.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List

from repro.sim.messages import Message

__all__ = ["GroupFilter", "PassFilter"]


class GroupFilter:
    """Drops messages whose destination lies outside ``scope``."""

    def __init__(self, scope: Iterable[int]):
        self.scope: FrozenSet[int] = frozenset(scope)
        if not self.scope:
            raise ValueError("filter scope must be non-empty")
        self.dropped = 0

    def allows(self, pid: int) -> bool:
        return pid in self.scope

    def apply(self, messages: List[Message]) -> List[Message]:
        """Return only the messages whose destination is in scope."""
        allowed: List[Message] = []
        for message in messages:
            if message.dst in self.scope:
                allowed.append(message)
            else:
                self.dropped += 1
        return allowed

    def restrict(self, pids: Iterable[int]) -> FrozenSet[int]:
        """Intersect a destination set with the scope."""
        return frozenset(pids) & self.scope

    def __repr__(self) -> str:
        return "GroupFilter(|scope|={}, dropped={})".format(
            len(self.scope), self.dropped
        )


class PassFilter(GroupFilter):
    """The identity filter used by AllGossip (scope = all of [n])."""

    def __init__(self, n: int):
        super().__init__(range(n))
