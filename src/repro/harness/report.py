"""Plain-text table/series rendering for benches and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["dash", "format_table", "format_kv", "banner", "ratio_series"]


def dash(value: object) -> object:
    """A table cell for a possibly-missing value: ``None`` renders as "-"."""
    return "-" if value is None else value


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "{:.3g}".format(value)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table (monospace, EXPERIMENTS.md-friendly)."""
    rendered_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("row width {} != header width {}".format(len(row), len(headers)))
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_kv(pairs: Sequence[tuple], title: Optional[str] = None) -> str:
    """Render key/value pairs, one per line."""
    width = max((len(str(k)) for k, _ in pairs), default=0)
    lines: List[str] = []
    if title:
        lines.append(title)
    for key, value in pairs:
        lines.append("{}: {}".format(str(key).ljust(width), _cell(value)))
    return "\n".join(lines)


def banner(text: str, char: str = "=") -> str:
    """A visually separated section header for bench output."""
    rule = char * max(len(text), 8)
    return "\n{}\n{}\n{}".format(rule, text, rule)


def ratio_series(values: Sequence[float]) -> List[float]:
    """Consecutive ratios v[i+1]/v[i] (scaling diagnostics)."""
    out: List[float] = []
    for previous, current in zip(values, values[1:]):
        out.append(current / previous if previous else float("inf"))
    return out
