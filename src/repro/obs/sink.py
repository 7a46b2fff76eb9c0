"""Event sinks: JSONL writer, sequencing capture buffer, test collector.

A sink is anything with ``write(event)``.  :class:`JsonlSink` streams
events to a file (or any text stream) one JSON object per line;
:class:`SequenceSink` numbers events with a monotonic per-sink sequence
and hands them over in batches — the capture buffer shard workers drain
into telemetry frames.
"""

from __future__ import annotations

import io
from typing import List, Optional, TextIO, Tuple

from repro.obs.events import ObsEvent

__all__ = ["CollectSink", "JsonlSink", "SequenceSink"]


class JsonlSink:
    """Serialize events to a text stream, one JSON object per line.

    Subprocess-safe: ``close()`` always flushes first (also for streams
    the caller owns), and ``flush_every`` forces a flush each N events so
    an abnormal worker exit loses at most the last partial batch instead
    of a whole buffered tail.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[TextIO] = None,
        flush_every: Optional[int] = None,
    ):
        if (path is None) == (stream is None):
            raise ValueError("pass exactly one of path= or stream=")
        if flush_every is not None and flush_every <= 0:
            raise ValueError("flush_every must be positive")
        self._owns_stream = stream is None
        self._stream: Optional[TextIO] = (
            io.open(path, "w", encoding="utf-8") if path is not None else stream
        )
        self.path = path
        self.flush_every = flush_every
        self.emitted = 0

    def write(self, event: ObsEvent) -> None:
        if self._stream is None:
            raise ValueError("sink is closed")
        self._stream.write(event.to_json())
        self._stream.write("\n")
        self.emitted += 1
        if self.flush_every is not None and self.emitted % self.flush_every == 0:
            self._stream.flush()

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.flush()
            finally:
                if self._owns_stream:
                    self._stream.close()
        self._stream = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SequenceSink:
    """Buffer events with a monotonic sequence number until drained.

    The sequence is per-sink and never resets, so ``(round, seq)`` is a
    total order over one emitter's whole stream even across many drains —
    exactly what the coordinator's cross-shard merge key needs.
    """

    def __init__(self) -> None:
        self._buffer: List[Tuple[int, ObsEvent]] = []
        self.seq = 0
        self.seen = 0

    def write(self, event: ObsEvent) -> None:
        self._buffer.append((self.seq, event))
        self.seq += 1
        self.seen += 1

    def __len__(self) -> int:
        return len(self._buffer)

    def drain(self) -> List[Tuple[int, ObsEvent]]:
        """Hand over all buffered ``(seq, event)`` pairs and reset."""
        drained = self._buffer
        self._buffer = []
        return drained


class CollectSink:
    """Append every event to a plain list (test helper)."""

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []

    def write(self, event: ObsEvent) -> None:
        self.events.append(event)
