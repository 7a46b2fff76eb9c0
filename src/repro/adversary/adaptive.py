"""Adaptive, omniscient attackers.

The paper's adversary "can make decisions in a round t based on the events
in all prior rounds before t, as well as the random choices being made in
round t itself".  These adversaries implement the attack strategies the
proofs defend against:

* :class:`ProxyKillerAdversary` — "every time a source sends a rumor (or
  rumor fragment) to another process, the adversary may choose to
  immediately crash that recipient" (Section 1): observes this round's
  proxy requests and kills the sampled proxies before they can act.
* :class:`GroupKillerAdversary` — wipes out one whole group of one
  partition (the reason a single split is insufficient and CONGOS runs
  ``log n`` partitions).
* :class:`IsolatorAdversary` — crashes everyone a victim process talks to,
  isolating it in terms of sending.
* :class:`SourceKillerAdversary` — kills a rumor's source right after
  injection (the rumor becomes inadmissible; QoD demands nothing, and the
  benches check nothing *breaks*).
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.adversary.base import Adversary
from repro.core.partitions import PartitionSet
from repro.core.proxy import ProxyRequest
from repro.sim.engine import AdversaryView
from repro.sim.events import MidRoundDecision, RoundDecision
from repro.sim.messages import Message, ServiceTags

__all__ = [
    "ProxyKillerAdversary",
    "GroupKillerAdversary",
    "IsolatorAdversary",
    "SourceKillerAdversary",
]


class ProxyKillerAdversary(Adversary):
    """Crashes processes the moment they are sampled as proxies.

    ``budget_per_round`` and ``total_budget`` bound the damage (an
    unbounded proxy killer would trivially have to kill whole groups,
    which :class:`GroupKillerAdversary` models directly).  Killed proxies
    also lose the request messages addressed to them this round.
    ``restart_after`` optionally revives victims, modelling churn.
    """

    def __init__(
        self,
        budget_per_round: int = 4,
        total_budget: Optional[int] = None,
        restart_after: Optional[int] = None,
        spare: Set[int] = frozenset(),
    ):
        self.budget_per_round = budget_per_round
        self.total_budget = total_budget
        self.restart_after = restart_after
        self.spare = set(spare)
        self.killed_total = 0
        self._pending_restarts: dict = {}

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        due = self._pending_restarts.pop(view.round, None)
        if due:
            decision.restarts |= {p for p in due if not view.is_alive(p)}
        return decision

    def mid_round(
        self, view: AdversaryView, outgoing: List[Message]
    ) -> MidRoundDecision:
        decision = MidRoundDecision()
        if self.total_budget is not None and self.killed_total >= self.total_budget:
            return decision
        victims: Set[int] = set()
        untouchable = view.touched_this_round()
        for index, message in enumerate(outgoing):
            if message.service != ServiceTags.PROXY:
                continue
            if not isinstance(message.payload, ProxyRequest):
                continue
            target = message.dst
            if target in self.spare or not view.is_alive(target):
                continue
            if target in untouchable:
                continue  # already crashed/restarted this round
            at_budget = (
                len(victims) >= self.budget_per_round
                or (
                    self.total_budget is not None
                    and self.killed_total + len(victims) >= self.total_budget
                )
            )
            if target not in victims and at_budget:
                continue
            victims.add(target)
            decision.dropped_messages.add(index)
        decision.crashes = victims
        self.killed_total += len(victims)
        if self.restart_after is not None and victims:
            key = view.round + self.restart_after
            self._pending_restarts.setdefault(key, set()).update(victims)
        return decision


class GroupKillerAdversary(Adversary):
    """Crashes an entire group of one partition at a given round."""

    def __init__(
        self,
        members: Set[int],
        crash_round: int,
        restart_round: Optional[int] = None,
        spare: Set[int] = frozenset(),
    ):
        self.members = set(members) - set(spare)
        self.crash_round = crash_round
        self.restart_round = restart_round

    @classmethod
    def of_group(
        cls,
        partitions: PartitionSet,
        partition: int,
        group: int,
        crash_round: int,
        restart_round: Optional[int] = None,
    ) -> "GroupKillerAdversary":
        """Kill ``group`` of ``partition`` in the run's partition set."""
        members = set(partitions.members(partition, group))
        return cls(members, crash_round, restart_round)

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        if view.round == self.crash_round:
            decision.crashes |= {p for p in self.members if view.is_alive(p)}
        elif self.restart_round is not None and view.round == self.restart_round:
            decision.restarts |= {p for p in self.members if not view.is_alive(p)}
        return decision


class IsolatorAdversary(Adversary):
    """Crashes every process the victim sends to (receiver isolation).

    Bounded by ``total_budget``; the victim itself is never crashed.
    """

    def __init__(self, victim: int, total_budget: int = 16):
        self.victim = victim
        self.total_budget = total_budget
        self.killed_total = 0

    def mid_round(
        self, view: AdversaryView, outgoing: List[Message]
    ) -> MidRoundDecision:
        decision = MidRoundDecision()
        untouchable = view.touched_this_round()
        for index, message in enumerate(outgoing):
            if message.src != self.victim:
                continue
            target = message.dst
            if target == self.victim or not view.is_alive(target):
                continue
            if target in untouchable:
                continue
            if target in decision.crashes:
                decision.dropped_messages.add(index)
                continue
            if self.killed_total + len(decision.crashes) >= self.total_budget:
                break
            decision.crashes.add(target)
            decision.dropped_messages.add(index)
        self.killed_total += len(decision.crashes)
        return decision


class SourceKillerAdversary(Adversary):
    """Kills rumor sources the round after they inject.

    The victims' rumors become inadmissible; Quality of Delivery requires
    nothing for them, but the system must not break, leak, or miss other
    admissible rumors.
    """

    def __init__(self, rng: random.Random, kill_probability: float = 1.0):
        self.rng = rng
        self.kill_probability = kill_probability

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        for event in view.event_log.injections:
            if event.round_no != view.round - 1:
                continue
            pid = event.pid
            if pid in decision.crashes or not view.is_alive(pid):
                continue
            if self.rng.random() < self.kill_probability:
                decision.crashes.add(pid)
        return decision
