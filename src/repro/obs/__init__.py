"""repro.obs — unified telemetry: events, metrics, sinks, rumor timelines.

The protocol stack emits :class:`ObsEvent` records through a
:class:`Telemetry` facade; sinks persist them (JSONL, capture buffer) and
the :class:`RumorTimeline` observer folds them into per-rumor lifecycle
records.  When telemetry is disabled the shared :data:`NULL_TELEMETRY`
singleton reduces every instrumentation point to one attribute check.
"""
