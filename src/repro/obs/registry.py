"""Metrics registry: labelled counters, gauges, histograms, span timers.

The registry is deliberately tiny and dependency-free.  Instruments are
created on first use and keyed by ``(name, sorted(labels))``, so

    registry.counter("gossip.injected", service="gg").inc()

always returns the same :class:`Counter` for the same label set.  A
:class:`Span` wraps ``time.perf_counter`` and lands its duration in a
histogram, usable as a context manager::

    with registry.span("exec.task", scenario="steady"):
        ...
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "Span"]

LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, Any]) -> LabelKey:
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can move both ways (e.g. active blocks, queue depth)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Sample-keeping summary: count / total / min / max / mean / quantiles.

    No buckets — the repro workloads are small enough that keeping the raw
    samples is cheaper than tuning bucket edges, and exact quantiles make
    the SLO summaries (p50/p99/p999) trustworthy at any sample count.
    """

    kind = "histogram"

    QUANTILES = ((0.5, "p50"), (0.99, "p99"), (0.999, "p999"))

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.samples.append(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Exact sample quantile with linear interpolation.

        Returns ``None`` when no samples were observed; ``q`` must lie in
        ``[0, 1]``.  With a single sample every quantile is that sample.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got {!r}".format(q))
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "total": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
        }
        for q, label in self.QUANTILES:
            value = self.quantile(q)
            out[label] = None if value is None else round(value, 6)
        return out


class Span:
    """Times a block and records the duration into a histogram."""

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started: Optional[float] = None
        self.seconds: Optional[float] = None

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started is not None:
            self.seconds = time.perf_counter() - self._started
            self._histogram.observe(self.seconds)


class MetricsRegistry:
    """Get-or-create home for all instruments in one run."""

    def __init__(self) -> None:
        self._instruments: Dict[LabelKey, Any] = {}

    def _get(self, factory, name: str, labels: Dict[str, Any]):
        key = _label_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                "metric {!r} already registered as {}".format(
                    name, instrument.kind
                )
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def span(self, name: str, **labels: Any) -> Span:
        return Span(self.histogram(name, **labels))

    def __len__(self) -> int:
        return len(self._instruments)

    def items(self) -> Iterator[Tuple[LabelKey, Any]]:
        return iter(sorted(self._instruments.items()))

    def dump(self) -> List[Dict[str, Any]]:
        """All instruments as JSON-safe dicts, deterministically ordered."""
        out: List[Dict[str, Any]] = []
        for (name, labels), instrument in self.items():
            entry: Dict[str, Any] = {
                "name": name,
                "type": instrument.kind,
                "labels": dict(labels),
            }
            entry.update(instrument.as_dict())
            out.append(entry)
        return out

    def snapshot(self) -> List[Dict[str, Any]]:
        """Wire-safe instrument state, deterministically ordered.

        Unlike :meth:`dump` (a human/JSON view with derived quantiles),
        a snapshot carries the *mergeable* state — counter/gauge values
        and raw histogram samples — so registries from shard workers can
        be folded into one via :meth:`merge_snapshot` without losing
        exactness.  Payload values are scalars and flat containers only,
        so a snapshot rides the net codec unmodified.
        """
        out: List[Dict[str, Any]] = []
        for (name, labels), instrument in self.items():
            if instrument.kind == "histogram":
                state: Dict[str, Any] = {"samples": list(instrument.samples)}
            else:
                state = {"value": instrument.value}
            out.append(
                {
                    "name": name,
                    "kind": instrument.kind,
                    "labels": dict(labels),
                    "state": state,
                }
            )
        return out

    def merge_snapshot(
        self, entries: List[Dict[str, Any]], **extra_labels: Any
    ) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add their value, gauges add their value (merged gauges
        are sums — the only cross-shard gauge semantics that compose),
        histograms replay their samples.  ``extra_labels`` are appended
        to every entry's label set (e.g. ``worker=3``), so callers choose
        between per-worker breakdowns and exact global totals.
        """
        for entry in entries:
            labels = dict(entry["labels"])
            labels.update(extra_labels)
            kind = entry["kind"]
            state = entry["state"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(state["value"])
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).add(state["value"])
            elif kind == "histogram":
                histogram = self.histogram(entry["name"], **labels)
                for sample in state["samples"]:
                    histogram.observe(sample)
            else:
                raise ValueError(
                    "snapshot entry with unknown kind {!r}".format(kind)
                )

    def render(self) -> str:
        """Human-readable registry dump (the CLI ``--metrics`` view)."""
        lines: List[str] = []
        for entry in self.dump():
            labels = ",".join(
                "{}={}".format(k, v) for k, v in sorted(entry["labels"].items())
            )
            head = "{}{}".format(
                entry["name"], "{" + labels + "}" if labels else ""
            )
            body = " ".join(
                "{}={}".format(k, v)
                for k, v in entry.items()
                if k not in ("name", "type", "labels")
            )
            lines.append("{:<44} {:<9} {}".format(head, entry["type"], body))
        return "\n".join(lines) if lines else "(no metrics recorded)"
