"""The instrumentation facade the protocol stack emits into.

Hot paths in ``core``/``gossip`` hold a ``telemetry`` attribute and
guard every emission with ``if self.telemetry.enabled:`` — when tracing
is off that attribute is the shared :data:`NULL_TELEMETRY` singleton and
the entire observability layer costs one attribute read per call site.

A live :class:`Telemetry` fans each event out to its sinks (JSONL file,
capture buffer) and subscribers (``RumorTimeline``), and exposes the
run-wide :class:`MetricsRegistry`.  Telemetry objects are never pickled:
exec-pool workers build their engines in-process, and the trace CLI runs
single-process, so file handles and observer references stay local.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.obs.events import ObsEvent
from repro.obs.registry import MetricsRegistry

__all__ = ["NULL_TELEMETRY", "NullTelemetry", "Telemetry"]


class Telemetry:
    """Live telemetry: metrics registry + event fan-out."""

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        sinks: Iterable[Any] = (),
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sinks: List[Any] = list(sinks)
        self.subscribers: List[Any] = []
        self.emitted = 0

    def add_sink(self, sink: Any) -> None:
        self.sinks.append(sink)

    def subscribe(self, processor: Any) -> None:
        """Register an object with ``on_event(event)`` (e.g. RumorTimeline)."""
        self.subscribers.append(processor)

    def emit(self, kind: str, round_no: int, **fields: Any) -> ObsEvent:
        event = ObsEvent.make(kind, round_no, **fields)
        self.emitted += 1
        for sink in self.sinks:
            sink.write(event)
        for subscriber in self.subscribers:
            subscriber.on_event(event)
        return event

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class NullTelemetry:
    """Disabled telemetry — every operation is a no-op.

    Call sites must still guard with ``if telemetry.enabled:`` so the
    no-op path never even builds the kwargs dict, but an unguarded call
    is harmless.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = None
        self.sinks: List[Any] = []
        self.subscribers: List[Any] = []
        self.emitted = 0

    def add_sink(self, sink: Any) -> None:  # pragma: no cover - defensive
        raise ValueError("NULL_TELEMETRY accepts no sinks; build a Telemetry")

    def subscribe(self, processor: Any) -> None:  # pragma: no cover
        raise ValueError(
            "NULL_TELEMETRY accepts no subscribers; build a Telemetry"
        )

    def emit(self, kind: str, round_no: int, **fields: Any) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()
