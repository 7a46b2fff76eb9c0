"""Adversary interface and composition.

A CRRI adversary (Section 2) controls crashes, restarts and rumor
injections, adaptively: it observes the whole system state at the start of
each round, and this round's outgoing messages mid-round.  Workload
generators (:mod:`repro.adversary.injection`) are injection-only
adversaries; fault models and adaptive attackers are crash/restart-only;
:class:`ComposedAdversary` merges any number of them into the single
adversary object the engine expects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.sim.events import MidRoundDecision, RoundDecision
from repro.sim.messages import Message

if TYPE_CHECKING:  # sim.engine defaults to Adversary(), so it imports this
    from repro.sim.engine import AdversaryView

__all__ = ["Adversary", "ComposedAdversary"]


class Adversary:
    """Base adversary: does nothing.  Subclass and override the hooks."""

    def round_start(self, view: AdversaryView) -> RoundDecision:
        return RoundDecision()

    def mid_round(
        self, view: AdversaryView, outgoing: List[Message]
    ) -> MidRoundDecision:
        return MidRoundDecision()


class ComposedAdversary(Adversary):
    """Merges the decisions of several adversaries, in order.

    Later adversaries see the view *before* earlier decisions are applied
    (the engine applies the merged decision at once), so compose carefully:
    a crash chosen by one part and a restart chosen by another for the same
    pid in the same round is a conflict and raises, mirroring the model's
    "each process can only crash or restart once per round".
    """

    def __init__(self, parts: Iterable[Adversary]):
        self.parts: List[Adversary] = list(parts)

    def round_start(self, view: AdversaryView) -> RoundDecision:
        merged = RoundDecision()
        injected_pids = set()
        for part in self.parts:
            decision = part.round_start(view)
            conflict = (merged.crashes | merged.restarts) & (
                decision.crashes | decision.restarts
            )
            if conflict:
                raise ValueError(
                    "composed adversaries both touched pids {}".format(sorted(conflict))
                )
            merged.crashes |= decision.crashes
            merged.restarts |= decision.restarts
            for pid, rumor in decision.injections:
                if pid in injected_pids:
                    raise ValueError(
                        "composed adversaries both injected at pid {}".format(pid)
                    )
                injected_pids.add(pid)
                merged.injections.append((pid, rumor))
        if merged.crashes:
            # A workload cannot see a sibling fault model's same-round
            # crashes; injections at freshly crashed pids are silently
            # dropped (the model forbids injecting at crashed processes).
            merged.injections = [
                (pid, rumor)
                for pid, rumor in merged.injections
                if pid not in merged.crashes
            ]
        return merged

    def mid_round(
        self, view: AdversaryView, outgoing: List[Message]
    ) -> MidRoundDecision:
        merged = MidRoundDecision()
        for part in self.parts:
            decision = part.mid_round(view, outgoing)
            overlap = merged.crashes & decision.crashes
            if overlap:
                raise ValueError(
                    "composed adversaries both mid-round crashed {}".format(
                        sorted(overlap)
                    )
                )
            merged.crashes |= decision.crashes
            merged.dropped_messages |= decision.dropped_messages
        return merged
