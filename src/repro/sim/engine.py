"""The synchronous round engine.

One engine round implements the model of Section 2 exactly:

1. **Adversary, round start** — the CRRI adversary observes the full system
   state and decides crashes, restarts and rumor injections.  Round-start
   crashes silence a process for the whole round; restarts bring a process
   back with *empty* volatile state (it re-reads the global clock).
2. **Injections** — at most one rumor per alive process per round.
3. **Send phase** — every alive process produces its messages for the round.
4. **Adversary, mid round** — the adversary observes the outgoing messages
   (it is adaptive: "decisions ... based on the random choices being made in
   round t itself") and may crash more processes; for processes on a
   crash/restart boundary this round it chooses which of their messages are
   lost.
5. **Delivery** — the reliable network routes every surviving message.
6. **Receive phase** — alive processes consume their inboxes and finish
   local computation.

Steps 1-2 — and everything around them that is not about *how* messages
move: the clock, the alive set, the event log, observer dispatch, the
adversary's view, validation of its decision — are the same on every
execution path, so they live once, in :class:`RoundEngine`.  A path is a
subclass that supplies what a crash, a restart and an injection do to its
own state, ``behavior(pid)``, and the body of the round (steps 3-6):
:class:`Engine` here (process shells + ``Network.route``),
``repro.net.coordinator.ShardEngine`` (frames to worker processes) and
``repro.fastcore.engine.ArrayEngine`` (vectorized phases).

Observers (auditors, tracers) are notified of every event so that
confidentiality and quality-of-delivery can be checked from outside the
protocol, with no cooperation from protocol code.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.sim.clock import RoundClock
from repro.sim.events import (
    CrashEvent,
    EventLog,
    InjectEvent,
    MidRoundDecision,
    RestartEvent,
    RoundDecision,
)
from repro.sim.messages import Message
from repro.sim.metrics import MessageStats
from repro.sim.network import Network
from repro.sim.process import NodeBehavior, ProcessShell
from repro.sim.rng import SeedSequence

__all__ = ["SimObserver", "AdversaryView", "RoundEngine", "Engine"]


class SimObserver:
    """Hook interface for auditors and tracers.  All methods optional.

    Deliveries are announced through one of two hooks, per observer: one
    that overrides :meth:`on_deliver_round` is handed the round's whole
    delivered list, once, and is *not* called per message; one that
    overrides only :meth:`on_deliver` is called once per delivered
    message, in that same order.
    """

    def on_round_begin(self, round_no: int) -> None:
        pass

    def on_crash(self, round_no: int, pid: int, mid_round: bool) -> None:
        pass

    def on_restart(self, round_no: int, pid: int) -> None:
        pass

    def on_inject(self, round_no: int, pid: int, rumor: object) -> None:
        pass

    def on_deliver(self, round_no: int, message: Message) -> None:
        pass

    def on_deliver_round(self, round_no: int, delivered: List[Message]) -> None:
        pass

    def on_round_end(self, round_no: int, engine: "RoundEngine") -> None:
        pass


class AdversaryView:
    """What an adversary can see.

    The paper's adversary is omniscient, so the view deliberately exposes
    the engine itself; polite adversaries restrict themselves to the helper
    accessors.
    """

    def __init__(self, engine: "RoundEngine"):
        self.engine = engine
        # Adaptive adversaries query crashed_pids() every round; the full
        # pid universe never changes, so build it once.
        self._all_pids: FrozenSet[int] = frozenset(range(engine.n))

    @property
    def round(self) -> int:
        return self.engine.round

    @property
    def n(self) -> int:
        return self.engine.n

    @property
    def all_pids(self) -> FrozenSet[int]:
        """The immutable pid universe ``{0, ..., n-1}``."""
        return self._all_pids

    @property
    def event_log(self) -> EventLog:
        return self.engine.event_log

    def alive_pids(self) -> Set[int]:
        return self.engine.alive_pids()

    def crashed_pids(self) -> Set[int]:
        return self._all_pids - self.engine._alive

    def is_alive(self, pid: int) -> bool:
        return pid in self.engine._alive

    def touched_this_round(self) -> Set[int]:
        """Pids already crashed or restarted in the current round.

        The model allows one crash-or-restart per process per round; a
        mid-round adversary must not touch these again (the engine raises
        if it does).
        """
        return set(self.engine._touched_this_round)

    def behavior(self, pid: int) -> Optional[NodeBehavior]:
        """Omniscient access to a process's internal state, where the
        execution path has it in reach (see ``RoundEngine.behavior``)."""
        return self.engine.behavior(pid)


class _NullAdversary:
    """Fault-free, injection-free adversary used when none is supplied."""

    def round_start(self, view: AdversaryView) -> RoundDecision:
        return RoundDecision()

    def mid_round(
        self, view: AdversaryView, outgoing: List[Message]
    ) -> MidRoundDecision:
        return MidRoundDecision()


class RoundEngine:
    """The round skeleton every execution path shares.

    Owns the clock, message statistics, the event log, the alive and
    touched sets, observer dispatch and the adversary's view, and runs
    the top of every round — begin hooks, the adversary's round-start
    decision, its validation, crashes, restarts, injections — and the
    bottom — end hooks, counters.  Subclasses supply :meth:`behavior`,
    :meth:`_crash_state`, :meth:`_restart_state`, :meth:`_inject_state`
    and :meth:`_round_body`, and nothing else of the round.
    """

    _HOOKS = (
        "on_round_begin",
        "on_crash",
        "on_restart",
        "on_inject",
        "on_deliver",
        "on_deliver_round",
        "on_round_end",
    )

    #: The installed chaos fault plane, if any (``None`` = reliable).
    fault_plane: Optional[object] = None

    def __init__(
        self,
        n: int,
        adversary: Optional[object] = None,
        observers: Iterable[SimObserver] = (),
        start_round: int = 0,
    ):
        if n <= 0:
            raise ValueError("need at least one process")
        self.n = n
        self.clock = RoundClock(start_round)
        self.stats = MessageStats()
        self.event_log = EventLog()
        self.adversary = adversary if adversary is not None else _NullAdversary()
        # The alive set is maintained incrementally (never rebuilt per
        # round): it mutates only on crash/restart.
        self._alive: Set[int] = set(range(n))
        self._touched_this_round: Set[int] = set()
        # Observer dispatch tables: one tuple per hook, holding only the
        # observers whose class actually overrides that hook, so inherited
        # no-op SimObserver methods are never called.  Rebuilt on
        # add_observer; on_deliver fans out per delivered message, which is
        # why the empty-table fast path matters — and why an observer that
        # takes the round's deliveries whole (on_deliver_round) is left out
        # of the per-message table.
        self.observers: List[SimObserver] = list(observers)
        self._dispatch: Dict[str, Tuple[SimObserver, ...]] = {}
        self._rebuild_dispatch()
        self.view = AdversaryView(self)
        self.rounds_executed = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def round(self) -> int:
        return self.clock.round

    def alive_pids(self) -> Set[int]:
        """A fresh copy of the alive-pid set (callers may mutate it)."""
        return set(self._alive)

    def add_observer(self, observer: SimObserver) -> None:
        self.observers.append(observer)
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        """Recompute the per-hook observer tables (see ``__init__``)."""
        for hook in self._HOOKS:
            base = getattr(SimObserver, hook)
            self._dispatch[hook] = tuple(
                observer
                for observer in self.observers
                if getattr(type(observer), hook, base) is not base
                or hook in getattr(observer, "__dict__", ())
            )
        per_round = set(map(id, self._dispatch["on_deliver_round"]))
        self._dispatch["on_deliver"] = tuple(
            observer
            for observer in self._dispatch["on_deliver"]
            if id(observer) not in per_round
        )

    # ------------------------------------------------------------------
    # What a subclass supplies
    # ------------------------------------------------------------------

    def behavior(self, pid: int) -> Optional[NodeBehavior]:
        """The node object behind ``pid`` (``None`` while crashed)."""
        raise NotImplementedError

    def _crash_state(self, round_no: int, pid: int) -> None:
        """Discard ``pid``'s volatile state (it is alive)."""
        raise NotImplementedError

    def _restart_state(self, round_no: int, pid: int) -> None:
        """Bring ``pid`` back with fresh state (it is crashed)."""
        raise NotImplementedError

    def _inject_state(self, round_no: int, pid: int, rumor: object) -> None:
        """Hand a validated, recorded, announced injection to ``pid``."""
        raise NotImplementedError

    def _round_body(self, round_no: int) -> None:
        """Everything between the injections and the round-end hooks."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` consecutive rounds."""
        for _ in range(rounds):
            self.run_round()

    def run_round(self) -> None:
        round_no = self.clock.round
        for observer in self._dispatch["on_round_begin"]:
            observer.on_round_begin(round_no)
        self._round_start(round_no)
        self._round_body(round_no)
        for observer in self._dispatch["on_round_end"]:
            observer.on_round_end(round_no, self)
        self.rounds_executed += 1
        self.clock.advance()

    def _round_start(self, round_no: int) -> None:
        """Take the adversary's decision, validate it, apply it."""
        decision = self.adversary.round_start(self.view)
        if decision.crashes & decision.restarts:
            raise ValueError(
                "a process may crash or restart at most once per round"
            )
        touched: Set[int] = set()
        for pid in sorted(decision.crashes):
            self._crash(round_no, pid, mid_round=False)
            touched.add(pid)
        for pid in sorted(decision.restarts):
            self._restart(round_no, pid)
            touched.add(pid)
        self._touched_this_round = touched
        injected: Set[int] = set()
        for pid, rumor in decision.injections:
            if pid in injected:
                raise ValueError(
                    "at most one rumor per process per round (pid {})".format(pid)
                )
            if pid not in self._alive:
                raise ValueError(
                    "cannot inject at crashed process {}".format(pid)
                )
            injected.add(pid)
            self.event_log.record_injection(InjectEvent(pid, round_no, rumor))
            for observer in self._dispatch["on_inject"]:
                observer.on_inject(round_no, pid, rumor)
            self._inject_state(round_no, pid, rumor)

    def _announce_deliveries(
        self, round_no: int, delivered: List[Message]
    ) -> None:
        """Tell the observers what this round delivered, in order.

        Every observer sees the deliveries in ``delivered`` order; a
        per-round observer sees them all before a per-message one sees
        the first, which is safe because no observer reads another
        mid-round.
        """
        for observer in self._dispatch["on_deliver_round"]:
            observer.on_deliver_round(round_no, delivered)
        per_message = self._dispatch["on_deliver"]
        if per_message:
            for message in delivered:
                for observer in per_message:
                    observer.on_deliver(round_no, message)

    def _crash(self, round_no: int, pid: int, mid_round: bool) -> None:
        if pid not in self._alive:
            raise RuntimeError("process {} is already crashed".format(pid))
        self._crash_state(round_no, pid)
        self._alive.discard(pid)
        self.event_log.record_crash(CrashEvent(pid, round_no, mid_round))
        for observer in self._dispatch["on_crash"]:
            observer.on_crash(round_no, pid, mid_round)

    def _restart(self, round_no: int, pid: int) -> None:
        if pid in self._alive:
            raise RuntimeError("process {} is already alive".format(pid))
        self._restart_state(round_no, pid)
        self._alive.add(pid)
        self.event_log.record_restart(RestartEvent(pid, round_no))
        for observer in self._dispatch["on_restart"]:
            observer.on_restart(round_no, pid)


class Engine(RoundEngine):
    """Drives ``n`` in-process shells through synchronous rounds."""

    def __init__(
        self,
        n: int,
        node_factory: Callable[[int], NodeBehavior],
        adversary: Optional[object] = None,
        observers: Iterable[SimObserver] = (),
        seed: int = 0,
        start_round: int = 0,
        fault_plane: Optional[object] = None,
    ):
        super().__init__(n, adversary, observers, start_round)
        self.seeds = SeedSequence(seed)
        self.network = Network(n, self.stats, fault_plane=fault_plane)
        # Pid iteration order is fixed at construction (shells are keyed
        # 0..n-1).
        self._pid_order: Tuple[int, ...] = tuple(range(n))
        self.shells: Dict[int, ProcessShell] = {}
        for pid in self._pid_order:
            shell = ProcessShell(pid, node_factory)
            shell.start(self.clock.round)
            self.shells[pid] = shell

    @property
    def fault_plane(self) -> Optional[object]:
        return self.network.fault_plane

    def behavior(self, pid: int) -> Optional[NodeBehavior]:
        return self.shells[pid].behavior

    def _crash_state(self, round_no: int, pid: int) -> None:
        self.shells[pid].crash()

    def _restart_state(self, round_no: int, pid: int) -> None:
        self.shells[pid].restart(round_no)

    def _inject_state(self, round_no: int, pid: int, rumor: object) -> None:
        self.shells[pid].inject(round_no, rumor)

    def _round_body(self, round_no: int) -> None:
        shells = self.shells
        outgoing: List[Message] = []
        extend = outgoing.extend
        for pid in self._pid_order:
            extend(shells[pid].send_phase(round_no))

        touched = self._touched_this_round
        mid = self._mid_round_decision(round_no, outgoing, touched)
        boundary = set(touched)
        for pid in mid.crashes:
            self._crash(round_no, pid, mid_round=True)
            boundary.add(pid)

        outcome = self.network.route(
            round_no,
            outgoing,
            alive_after_round=self._alive,  # membership tests only
            boundary_pids=boundary,
            adversary_drops=mid.dropped_messages,
        )
        self._announce_deliveries(round_no, outcome.delivered)

        inboxes = outcome.inboxes
        empty: List[Message] = []
        for pid in self._pid_order:
            shell = shells[pid]
            if shell.alive:
                shell.receive_phase(round_no, inboxes.get(pid, empty))

    def _mid_round_decision(
        self, round_no: int, outgoing: List[Message], touched: Set[int]
    ) -> MidRoundDecision:
        mid = self.adversary.mid_round(self.view, outgoing)
        for pid in mid.crashes:
            if pid in touched:
                raise ValueError(
                    "process {} already crashed/restarted this round".format(pid)
                )
            if pid not in self._alive:
                raise ValueError(
                    "cannot mid-round crash dead process {}".format(pid)
                )
        return mid
