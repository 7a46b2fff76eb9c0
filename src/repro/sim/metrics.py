"""Per-round message-complexity accounting.

The paper's efficiency metric is *per-round message complexity*
(Definition 3): the maximum, over rounds, of the number of point-to-point
messages sent in that round.  :class:`MessageStats` tracks exactly that,
broken down by service tag, along with totals and abstract sizes, so the
benches can reproduce Lemma 7 / Theorem 11 / Theorem 16 shapes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Mapping, Optional

from repro.sim.messages import Message

__all__ = ["MessageStats"]


class MessageStats:
    """Accumulates message counts, per round and per service.

    Counting happens on *send*: a message that the adversary later drops
    (because its sender crashed mid-round) still counts as sent, matching
    the paper's metric.  :attr:`filtered` counts messages dropped before
    sending via :meth:`record_filtered`; no protocol component calls it
    (a correct build's group Filter never fires, see
    :mod:`repro.gossip.filter`), so it reads 0 on every run.
    """

    def __init__(self) -> None:
        self._round_totals: Dict[int, int] = defaultdict(int)
        self._round_service: Dict[int, Dict[str, int]] = defaultdict(Counter)
        self._service_totals: Dict[str, int] = defaultdict(int)
        self._filtered: int = 0
        self.total: int = 0
        self.total_size: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_send(self, round_no: int, message: Message) -> None:
        self._round_totals[round_no] += 1
        self._round_service[round_no][message.service] += 1
        self._service_totals[message.service] += 1
        self.total += 1
        self.total_size += message.size

    def record_round(
        self,
        round_no: int,
        count: int,
        size: int,
        by_service: Mapping[str, int],
    ) -> None:
        """Fold one round's pre-aggregated send counts in at once.

        Equivalent to ``count`` :meth:`record_send` calls whose sizes sum
        to ``size`` and whose service tags tally to ``by_service`` — the
        network batches per round so the per-message hot path pays plain
        integer adds instead of five dict updates per send.  A zero-send
        round is a no-op, matching per-message recording (rounds with no
        sends are never observed).
        """
        if count <= 0:
            return
        self._round_totals[round_no] += count
        round_service = self._round_service[round_no]
        service_totals = self._service_totals
        for service, tally in by_service.items():
            round_service[service] += tally
            service_totals[service] += tally
        self.total += count
        self.total_size += size

    def record_filtered(self, count: int = 1) -> None:
        """Count messages dropped by a group Filter (never sent)."""
        self._filtered += count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def filtered(self) -> int:
        return self._filtered

    @property
    def rounds_observed(self) -> int:
        return len(self._round_totals)

    def per_round(self, round_no: int) -> int:
        """Messages sent in ``round_no``."""
        return self._round_totals.get(round_no, 0)

    def per_round_by_service(self, round_no: int, service: str) -> int:
        return self._round_service.get(round_no, {}).get(service, 0)

    def service_total(self, service: str) -> int:
        return self._service_totals.get(service, 0)

    def by_service(self) -> Dict[str, int]:
        """Total messages per service over the whole run."""
        return dict(self._service_totals)

    def max_per_round(self, services: Optional[Iterable[str]] = None) -> int:
        """The run's maximum per-round message count.

        With ``services`` given, restrict the count to those service tags
        (used to check Lemma 7, which bounds Proxy+GD traffic excluding the
        gossip substrate).
        """
        if not self._round_totals:
            return 0
        if services is None:
            return max(self._round_totals.values())
        wanted = set(services)
        best = 0
        for counts in self._round_service.values():
            round_sum = sum(c for svc, c in counts.items() if svc in wanted)
            if round_sum > best:
                best = round_sum
        return best

    def mean_per_round(self) -> float:
        """Average messages per observed round (rounds with zero sends that
        were never recorded do not enter the average)."""
        if not self._round_totals:
            return 0.0
        return self.total / len(self._round_totals)

    def series(self, start: int, end: int) -> List[int]:
        """Per-round totals for rounds ``start..end`` inclusive."""
        return [self._round_totals.get(r, 0) for r in range(start, end + 1)]

    def summary(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "total_size": self.total_size,
            "max_per_round": self.max_per_round(),
            "mean_per_round": round(self.mean_per_round(), 2),
            "filtered": self._filtered,
            "by_service": self.by_service(),
        }
