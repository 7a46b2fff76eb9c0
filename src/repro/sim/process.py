"""Process shells: aliveness, volatile state, and the node behaviour API.

The paper's processes have **no durable storage**: a restarted process is
reset to a default initial state consisting only of the algorithm and
``[n]`` (Section 2), plus the global clock.  The simulator enforces this by
construction — a :class:`ProcessShell` *discards* its behaviour object on
crash and builds a brand-new one from the factory on restart, so protocol
code physically cannot smuggle state across a crash.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TYPE_CHECKING

from repro.sim.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.gossip.rumor import Rumor

__all__ = ["NodeBehavior", "ProcessShell"]


class NodeBehavior:
    """Base class for per-process protocol behaviour.

    Subclasses implement a full protocol stack for one process.  The engine
    drives each alive process once per round through ``send_phase`` then
    ``receive_phase`` (synchronous model: messages sent in round *t* are
    received in round *t*).
    """

    def __init__(self, pid: int, n: int):
        if not 0 <= pid < n:
            raise ValueError("pid {} outside [0, {})".format(pid, n))
        self.pid = pid
        self.n = n

    def on_start(self, round_no: int) -> None:
        """Called once when the process (re)starts, before any phase."""

    def on_inject(self, round_no: int, rumor: "Rumor") -> None:
        """A rumor was injected at this process this round."""

    def send_phase(self, round_no: int) -> List[Message]:
        """Produce this round's outgoing messages."""
        return []

    def receive_phase(self, round_no: int, inbox: List[Message]) -> None:
        """Consume this round's delivered messages and finish the round."""


class ProcessShell:
    """Aliveness wrapper around a (recreatable) :class:`NodeBehavior`.

    The shell is the engine's handle on a process: it survives crashes, but
    the behaviour object inside it does not.
    """

    def __init__(self, pid: int, factory: Callable[[int], NodeBehavior]):
        self.pid = pid
        self._factory = factory
        self._behavior: Optional[NodeBehavior] = None
        self.crash_count = 0
        self.restart_count = 0

    @property
    def alive(self) -> bool:
        return self._behavior is not None

    @property
    def behavior(self) -> Optional[NodeBehavior]:
        """The current behaviour object, or None while crashed."""
        return self._behavior

    def start(self, round_no: int) -> NodeBehavior:
        """Bring the process up with fresh volatile state."""
        if self._behavior is not None:
            raise RuntimeError("process {} is already alive".format(self.pid))
        behavior = self._factory(self.pid)
        if behavior.pid != self.pid:
            raise ValueError(
                "factory produced behaviour for pid {} (expected {})".format(
                    behavior.pid, self.pid
                )
            )
        self._behavior = behavior
        behavior.on_start(round_no)
        return behavior

    def crash(self) -> None:
        """Crash the process, discarding all volatile state."""
        if self._behavior is None:
            raise RuntimeError("process {} is already crashed".format(self.pid))
        self._behavior = None
        self.crash_count += 1

    def restart(self, round_no: int) -> NodeBehavior:
        """Restart after a crash; equivalent to :meth:`start` plus counting."""
        behavior = self.start(round_no)
        self.restart_count += 1
        return behavior

    def inject(self, round_no: int, rumor: "Rumor") -> None:
        if self._behavior is None:
            raise RuntimeError(
                "cannot inject at crashed process {}".format(self.pid)
            )
        self._behavior.on_inject(round_no, rumor)

    def send_phase(self, round_no: int) -> List[Message]:
        if self._behavior is None:
            return []
        messages = self._behavior.send_phase(round_no)
        for message in messages:
            if message.src != self.pid:
                raise ValueError(
                    "process {} attempted to forge src={}".format(
                        self.pid, message.src
                    )
                )
        return messages

    def receive_phase(self, round_no: int, inbox: List[Message]) -> None:
        if self._behavior is None:
            return
        self._behavior.receive_phase(round_no, inbox)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "crashed"
        return "ProcessShell(pid={}, {})".format(self.pid, state)
