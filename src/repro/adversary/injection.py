"""Rumor-injection workloads (the "RI" of the CRRI adversary).

Each workload is an injection-only :class:`~repro.adversary.base.Adversary`
that fabricates :class:`~repro.gossip.rumor.Rumor` objects round by round.
Besides generic steady/burst traffic (open-workload Poisson arrivals live
in :mod:`repro.load`), this module builds the exact adversarial layouts of
the lower-bound proofs:

* :class:`Theorem1Workload` — every process injects one rumor in the same
  round; each process joins each destination set independently with
  probability ``x/n`` where ``x = n^(1/2 - 2/c)`` (proof of Theorem 1);
  Theorem 12 reuses the identical layout.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.adversary.base import Adversary
from repro.gossip.rumor import Rumor, RumorId
from repro.sim.engine import AdversaryView
from repro.sim.events import RoundDecision

__all__ = [
    "InjectionWorkload",
    "ScriptedWorkload",
    "SteadyWorkload",
    "BurstWorkload",
    "GroupTrafficWorkload",
    "Theorem1Workload",
    "theorem1_density",
]


class InjectionWorkload(Adversary):
    """Base class managing per-source sequence numbers and payloads.

    ``seq_start`` namespaces the per-source sequence counters: when two
    workloads composed into one adversary may pick the same source, give
    them disjoint ranges (e.g. 0 and 1_000_000) so rumor ids stay
    globally unique.
    """

    def __init__(
        self, rng: random.Random, payload_size: int = 16, seq_start: int = 0
    ):
        self.rng = rng
        self.payload_size = payload_size
        self.seq_start = seq_start
        self._sequences: Dict[int, int] = {}
        self.injected: List[Rumor] = []

    def _next_seq(self, src: int) -> int:
        seq = self._sequences.get(src, self.seq_start)
        self._sequences[src] = seq + 1
        return seq

    def make_rumor(
        self,
        src: int,
        round_no: int,
        deadline: int,
        dest: Iterable[int],
        data: Optional[bytes] = None,
    ) -> Rumor:
        rumor = Rumor(
            rid=RumorId(src, self._next_seq(src)),
            data=data if data is not None else self.rng.randbytes(self.payload_size),
            deadline=deadline,
            dest=frozenset(dest),
            injected_at=round_no,
        )
        self.injected.append(rumor)
        return rumor

    def random_destinations(
        self, n: int, size: int, exclude: Iterable[int] = ()
    ) -> Set[int]:
        pool = [p for p in range(n) if p not in set(exclude)]
        size = min(size, len(pool))
        return set(self.rng.sample(pool, size)) if size else set()


class ScriptedWorkload(InjectionWorkload):
    """Inject a fixed script: ``(round, src, deadline, dest[, data])``."""

    def __init__(
        self,
        script: Sequence[Tuple],
        rng: random.Random,
        payload_size: int = 16,
        seq_start: int = 0,
    ):
        super().__init__(rng, payload_size, seq_start)
        self._by_round: Dict[int, List[Tuple]] = {}
        for entry in script:
            self._by_round.setdefault(entry[0], []).append(entry)

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        for entry in self._by_round.get(view.round, []):
            round_no, src, deadline, dest = entry[:4]
            data = entry[4] if len(entry) > 4 else None
            if not view.is_alive(src):
                continue  # the model forbids injecting at crashed processes
            rumor = self.make_rumor(src, round_no, deadline, dest, data)
            decision.injections.append((src, rumor))
        return decision


class SteadyWorkload(InjectionWorkload):
    """``rate`` random sources inject every ``period`` rounds.

    Destination sets are uniform random subsets of size ``dest_size``.
    Deadlines are drawn from ``deadlines`` (uniformly).
    """

    def __init__(
        self,
        n: int,
        rng: random.Random,
        rate: int = 1,
        period: int = 1,
        dest_size: int = 4,
        deadlines: Sequence[int] = (128,),
        start_round: int = 0,
        stop_round: Optional[int] = None,
        payload_size: int = 16,
        include_source: bool = False,
        seq_start: int = 0,
    ):
        super().__init__(rng, payload_size, seq_start)
        if rate < 0 or period < 1:
            raise ValueError("rate must be >= 0, period >= 1")
        self.n = n
        self.rate = rate
        self.period = period
        self.dest_size = dest_size
        self.deadlines = list(deadlines)
        self.start_round = start_round
        self.stop_round = stop_round
        self.include_source = include_source

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        round_no = view.round
        if round_no < self.start_round:
            return decision
        if self.stop_round is not None and round_no >= self.stop_round:
            return decision
        if (round_no - self.start_round) % self.period:
            return decision
        alive = sorted(view.alive_pids())
        if not alive:
            return decision
        sources = self.rng.sample(alive, min(self.rate, len(alive)))
        for src in sources:
            dest = self.random_destinations(
                self.n, self.dest_size, exclude=() if self.include_source else (src,)
            )
            if self.include_source:
                dest.add(src)
            if not dest:
                continue
            deadline = self.rng.choice(self.deadlines)
            rumor = self.make_rumor(src, round_no, deadline, dest)
            decision.injections.append((src, rumor))
        return decision


class BurstWorkload(InjectionWorkload):
    """At each round in ``burst_rounds``, every alive process injects."""

    def __init__(
        self,
        n: int,
        rng: random.Random,
        burst_rounds: Sequence[int],
        dest_size: int = 4,
        deadline: int = 128,
        payload_size: int = 16,
    ):
        super().__init__(rng, payload_size)
        self.n = n
        self.burst_rounds = set(burst_rounds)
        self.dest_size = dest_size
        self.deadline = deadline

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        if view.round not in self.burst_rounds:
            return decision
        for src in sorted(view.alive_pids()):
            dest = self.random_destinations(self.n, self.dest_size, exclude=(src,))
            if not dest:
                continue
            rumor = self.make_rumor(src, view.round, self.deadline, dest)
            decision.injections.append((src, rumor))
        return decision


class GroupTrafficWorkload(InjectionWorkload):
    """Traffic confined to a fixed participant set.

    Every ``period`` rounds one participant (round-robin) injects a rumor
    whose destination set is the remaining participants.  Used with fault
    models whose ``immune`` set equals the participants: their rumors stay
    admissible however hard the rest of the system churns.
    """

    def __init__(
        self,
        participants: Sequence[int],
        rng: random.Random,
        deadline: int = 128,
        period: int = 8,
        start_round: int = 0,
        stop_round: Optional[int] = None,
        payload_size: int = 16,
    ):
        super().__init__(rng, payload_size)
        if len(participants) < 2:
            raise ValueError("need at least two participants")
        self.participants = list(participants)
        self.deadline = deadline
        self.period = period
        self.start_round = start_round
        self.stop_round = stop_round
        self._turn = 0

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        round_no = view.round
        if round_no < self.start_round:
            return decision
        if self.stop_round is not None and round_no >= self.stop_round:
            return decision
        if (round_no - self.start_round) % self.period:
            return decision
        src = self.participants[self._turn % len(self.participants)]
        self._turn += 1
        if not view.is_alive(src):
            return decision
        dest = set(self.participants) - {src}
        rumor = self.make_rumor(src, round_no, self.deadline, dest)
        decision.injections.append((src, rumor))
        return decision


def theorem1_density(n: int, c: int) -> float:
    """The proof's destination density ``x/n`` with ``x = n^(1/2 - 2/c)``.

    ``c = ceil(2/eps)`` trades the exponent deficit ``eps`` against the
    bound on rumors-per-message.
    """
    if c <= 4:
        raise ValueError("c must exceed 4 for a positive exponent")
    x = n ** (0.5 - 2.0 / c)
    return min(1.0, x / n)


class Theorem1Workload(InjectionWorkload):
    """The oblivious layout of Theorems 1 and 12.

    At ``inject_round`` every process receives one rumor with uniform
    deadline ``dmax``; each process independently joins each destination
    set with probability ``x/n``.
    """

    def __init__(
        self,
        n: int,
        rng: random.Random,
        c: int = 8,
        dmax: int = 128,
        inject_round: int = 0,
        payload_size: int = 16,
    ):
        super().__init__(rng, payload_size)
        self.n = n
        self.c = c
        self.dmax = dmax
        self.inject_round = inject_round
        self.density = theorem1_density(n, c)
        self.expected_x = n ** (0.5 - 2.0 / c)

    def round_start(self, view: AdversaryView) -> RoundDecision:
        decision = RoundDecision()
        if view.round != self.inject_round:
            return decision
        for src in range(self.n):
            if not view.is_alive(src):
                continue
            dest = {
                pid
                for pid in range(self.n)
                if pid != src and self.rng.random() < self.density
            }
            if not dest:
                continue
            rumor = self.make_rumor(src, view.round, self.dmax, dest)
            decision.injections.append((src, rumor))
        return decision
