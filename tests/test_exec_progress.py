"""Tests for repro.exec.progress: throughput reporting and final-line dedup."""

import io

import pytest

from repro.exec.progress import Progress


class TestAccounting:
    def test_counts_done_cached_executed(self):
        progress = Progress(total=3)
        progress.task_done()
        progress.task_done(cached=True)
        assert progress.done == 2
        assert progress.cached == 1
        assert progress.executed == 1

    def test_task_seconds_accumulate(self):
        progress = Progress(total=2)
        progress.task_done(wall_time=0.5)
        progress.task_done(wall_time=1.25)
        assert progress.task_seconds == pytest.approx(1.75)
        assert "task time 1.8s" in progress.render()

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            Progress(total=-1)


class TestRender:
    def test_render_mentions_counts(self):
        progress = Progress(total=4, label="sweep")
        progress.task_done()
        line = progress.render()
        assert line.startswith("sweep: 1/4 tasks")
        assert "25%" in line

    def test_zero_total_renders_without_percent(self):
        # An empty sweep must not divide by zero.
        line = Progress(total=0).render()
        assert "0/0 tasks" in line
        assert "%" not in line

    def test_cached_shown_only_when_nonzero(self):
        progress = Progress(total=2)
        progress.task_done()
        assert "cached" not in progress.render()
        progress.task_done(cached=True)
        assert "1 cached" in progress.render()


class TestStreamOutput:
    def test_final_line_printed_exactly_once(self):
        # The last task_done reports 2/2; finish() must not repeat it.
        stream = io.StringIO()
        progress = Progress(total=2, stream=stream, min_interval=0.0)
        progress.task_done()
        progress.task_done()
        progress.finish()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert sum(1 for line in lines if "2/2 tasks" in line) == 1

    def test_finish_prints_when_rate_limit_suppressed_the_last_task(self):
        stream = io.StringIO()
        progress = Progress(total=3, stream=stream, min_interval=3600.0)
        progress.task_done()  # first report always fires
        progress.task_done()  # suppressed: not final, interval not elapsed
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and "1/3 tasks" in lines[0]
        progress.finish()  # must report the suppressed 2/3 state
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "2/3 tasks" in lines[1]

    def test_first_report_fires_on_a_freshly_booted_host(self, monkeypatch):
        # time.monotonic() counts from boot on Linux: with uptime below
        # min_interval the first report used to be rate-limited away.
        ticks = iter(x * 0.25 for x in range(1, 100))
        monkeypatch.setattr(
            "repro.exec.progress.time.monotonic", lambda: next(ticks)
        )
        stream = io.StringIO()
        progress = Progress(total=3, stream=stream, min_interval=3600.0)
        progress.task_done()
        progress.task_done()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and "1/3 tasks" in lines[0]

    def test_completing_task_always_reports(self):
        # done == total bypasses the rate limit.
        stream = io.StringIO()
        progress = Progress(total=1, stream=stream, min_interval=3600.0)
        progress.task_done()
        assert "1/1 tasks" in stream.getvalue()
        progress.finish()
        assert len(stream.getvalue().splitlines()) == 1

    def test_silent_without_stream(self):
        progress = Progress(total=1)
        progress.task_done()
        line = progress.finish()  # returns the line even when not printing
        assert "1/1 tasks" in line
