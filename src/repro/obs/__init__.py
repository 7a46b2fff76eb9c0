"""repro.obs — unified telemetry: events, metrics, sinks, rumor timelines.

The protocol stack emits :class:`ObsEvent` records through a
:class:`Telemetry` facade; sinks persist them (JSONL, capture buffer) and
the :class:`RumorTimeline` observer folds them into per-rumor lifecycle
records.  When telemetry is disabled the shared :data:`NULL_TELEMETRY`
singleton reduces every instrumentation point to one attribute check.
"""

from repro.obs.events import ObsEvent, json_safe
from repro.obs.instrument import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
)
from repro.obs.sink import CollectSink, JsonlSink, SequenceSink
from repro.obs.timeline import RumorLifecycle, RumorTimeline

__all__ = [
    "NULL_TELEMETRY",
    "CollectSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullTelemetry",
    "ObsEvent",
    "RumorLifecycle",
    "RumorTimeline",
    "SequenceSink",
    "Span",
    "Telemetry",
    "json_safe",
]
