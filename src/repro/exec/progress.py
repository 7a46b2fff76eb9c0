"""Wall-clock and throughput reporting for sweeps and benches.

A :class:`Progress` is fed one :meth:`task_done` per finished run and
prints rate-limited status lines (done/total, cached count, tasks per
second, accumulated task seconds, elapsed seconds) to a stream — or
collects silently when the stream is ``None``, which is what the tests
use.  :meth:`finish` prints the final line only if the last
:meth:`task_done` did not already report it.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

__all__ = ["Progress"]


class Progress:
    """Counts completed tasks and reports throughput."""

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream: Optional[IO[str]] = None,
        min_interval: float = 1.0,
    ) -> None:
        if total < 0:
            raise ValueError("total must be non-negative")
        self.total = total
        self.label = label
        self.stream = stream
        self.min_interval = min_interval
        self.done = 0
        self.cached = 0
        self.task_seconds = 0.0
        self._started = time.monotonic()
        # -inf, not 0.0: monotonic() may itself be below min_interval on a
        # freshly booted host, and the first report must always fire.
        self._last_report = float("-inf")
        self._reported_done = -1  # `done` value of the last printed line

    # -- accounting ------------------------------------------------------

    def task_done(
        self, cached: bool = False, wall_time: Optional[float] = None
    ) -> None:
        self.done += 1
        if cached:
            self.cached += 1
        if wall_time is not None:
            self.task_seconds += wall_time
        now = time.monotonic()
        if self.stream is not None and (
            now - self._last_report >= self.min_interval or self.done == self.total
        ):
            self._last_report = now
            self._reported_done = self.done
            print(self.render(), file=self.stream)

    # -- queries ---------------------------------------------------------

    @property
    def executed(self) -> int:
        """Tasks that actually ran (not served from cache)."""
        return self.done - self.cached

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def rate(self) -> float:
        elapsed = self.elapsed()
        return self.done / elapsed if elapsed > 0 else 0.0

    def render(self) -> str:
        parts = ["{}: {}/{} tasks".format(self.label, self.done, self.total)]
        if self.total > 0:
            parts.append("{:.0f}%".format(100.0 * self.done / self.total))
        if self.cached:
            parts.append("{} cached".format(self.cached))
        parts.append("{:.2f} tasks/s".format(self.rate()))
        if self.task_seconds > 0:
            parts.append("task time {:.1f}s".format(self.task_seconds))
        parts.append("elapsed {:.1f}s".format(self.elapsed()))
        return "  ".join(parts)

    def finish(self) -> str:
        line = self.render()
        # The last task_done may already have printed this state; don't
        # emit the same final line twice.
        if self.stream is not None and self._reported_done != self.done:
            self._reported_done = self.done
            print(line, file=self.stream)
        return line

    @classmethod
    def for_tty(cls, total: int, label: str = "sweep") -> "Progress":
        """A reporter that prints to stderr (the CLI's choice)."""
        return cls(total=total, label=label, stream=sys.stderr)
