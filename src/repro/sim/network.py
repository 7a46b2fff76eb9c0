"""The reliable synchronous network.

Section 2 of the paper: any pair of processes can communicate directly;
messages are neither lost nor corrupted in transit.  The only way a message
can fail to arrive is through a crash/restart boundary in the very round it
was sent — and *which* of those messages are lost is the adversary's choice.

:class:`Network` validates sends, counts them into :class:`MessageStats`
(message complexity counts sends, not deliveries), applies adversarial drops
that the model permits, and routes the survivors into per-recipient inboxes.

An optional **fault plane** (:mod:`repro.chaos.plane`) extends the model
beyond the paper: after the CRRI checks, each surviving message may be
dropped, delayed, duplicated or severed by a seed-keyed schedule, and
inboxes may be reordered.  With no plane installed (the default) none of
the chaos branches execute and routing is bit-identical to the paper's
reliable model.  The plane is duck-typed here — ``sim`` stays free of any
import from the chaos layer; fates are the plain strings defined in
:mod:`repro.chaos.schedule` (``deliver``/``drop``/``delay``/``duplicate``
plus ``sever``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, TYPE_CHECKING

from repro.sim.messages import Message
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps sim below chaos
    from repro.chaos.plane import ChaosFaultPlane

__all__ = ["Network", "DeliveryOutcome"]


class DeliveryOutcome:
    """The result of routing one round's traffic."""

    def __init__(self) -> None:
        self.inboxes: Dict[int, List[Message]] = defaultdict(list)
        self.delivered: List[Message] = []
        self.lost_to_crash: List[Message] = []
        self.lost_to_adversary: List[Message] = []
        # Chaos extension; always empty under the paper's reliable model.
        self.lost_to_fault: List[Message] = []
        self.delayed: List[Message] = []
        self.duplicated: List[Message] = []

    @property
    def delivered_count(self) -> int:
        return len(self.delivered)


class Network:
    """Reliable, fully connected, synchronous point-to-point network."""

    def __init__(
        self,
        n: int,
        stats: Optional[MessageStats] = None,
        fault_plane: Optional["ChaosFaultPlane"] = None,
    ):
        if n <= 0:
            raise ValueError("network needs at least one process")
        self.n = n
        self.stats = stats if stats is not None else MessageStats()
        self.fault_plane = fault_plane

    def validate(self, message: Message) -> None:
        """Reject out-of-range endpoints.

        This is the single mandatory validation site for messages (the
        per-construction checks in :class:`Message` are a debug flag);
        :meth:`route` inlines the same comparisons on its hot loop and
        calls here only to raise.
        """
        if not 0 <= message.src < self.n:
            raise ValueError("invalid src {}".format(message.src))
        if not 0 <= message.dst < self.n:
            raise ValueError("invalid dst {}".format(message.dst))

    def route(
        self,
        round_no: int,
        outgoing: List[Message],
        alive_after_round: Set[int],
        boundary_pids: Set[int],
        adversary_drops: Iterable[int] = (),
    ) -> DeliveryOutcome:
        """Count, filter and route one round's messages.

        Parameters
        ----------
        outgoing:
            All messages produced in this round's send phase, in engine
            order (indices in ``adversary_drops`` refer to this list).
        alive_after_round:
            Pids alive at delivery time (i.e. after mid-round crashes).
            Messages to processes not in this set are lost to the crash.
        boundary_pids:
            Pids that crashed or restarted *this round*.  The adversary may
            only drop messages whose src or dst is in this set — the network
            itself is reliable.
        adversary_drops:
            Indices into ``outgoing`` the adversary chose to lose.
        """
        outcome = DeliveryOutcome()
        drops = set(adversary_drops)
        plane = self.fault_plane
        chaos = plane is not None and plane.active_in(round_no)
        if chaos:
            plane.begin_round(round_no)
        # Hot loop: locals for everything touched per message, counts
        # accumulated here and folded into MessageStats once per round.
        n = self.n
        sent_count = 0
        sent_size = 0
        sent_by_service: Dict[str, int] = {}
        inboxes = outcome.inboxes
        delivered_append = outcome.delivered.append
        lost_to_crash_append = outcome.lost_to_crash.append
        for index, message in enumerate(outgoing):
            src = message.src
            dst = message.dst
            if src < 0 or src >= n or dst < 0 or dst >= n:
                self.validate(message)  # raises with the precise complaint
            sent_count += 1
            sent_size += message.size
            service = message.service
            sent_by_service[service] = sent_by_service.get(service, 0) + 1
            if drops and index in drops:
                if src not in boundary_pids and dst not in boundary_pids:
                    raise ValueError(
                        "adversary tried to drop message {}->{} with no "
                        "crash/restart boundary this round; the network is "
                        "reliable".format(src, dst)
                    )
                outcome.lost_to_adversary.append(message)
                continue
            if dst not in alive_after_round:
                lost_to_crash_append(message)
                continue
            if chaos:
                fate = plane.admit(round_no, message)
                if fate == "drop" or fate == "sever":
                    outcome.lost_to_fault.append(message)
                    continue
                if fate == "delay":
                    outcome.delayed.append(message)
                    continue
                if fate == "duplicate":
                    outcome.duplicated.append(message)
                    # The original is delivered now; the spurious copy
                    # matures through release() next round.
            inboxes[dst].append(message)
            delivered_append(message)
        self.stats.record_round(round_no, sent_count, sent_size, sent_by_service)
        if plane is not None and plane.has_pending():
            # Matured delayed/duplicated copies are already past the link:
            # only crash-aliveness gates them now.
            for message in plane.release(round_no):
                if message.dst not in alive_after_round:
                    outcome.lost_to_crash.append(message)
                    plane.record_late_loss(round_no, message)
                    continue
                outcome.inboxes[message.dst].append(message)
                outcome.delivered.append(message)
        if chaos:
            plane.shuffle_inboxes(round_no, outcome.inboxes)
        return outcome
