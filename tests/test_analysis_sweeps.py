"""Tests for repro.analysis.sweeps: grid sweeps across seeds."""

import pytest

from repro.analysis.sweeps import CellResult, SweepResult, grid, sweep_congos
from repro.core.config import CongosParams
from repro.exec.cache import ResultCache
from repro.exec.progress import Progress
from repro.exec.results import RunRecord
from repro.harness.scenarios import steady_scenario


class TestGrid:
    def test_cartesian_product(self):
        cells = grid(n=[8, 16], deadline=[64, 128])
        assert len(cells) == 4
        assert {"n": 8, "deadline": 64} in cells

    def test_single_axis(self):
        assert grid(n=[8]) == [{"n": 8}]

    def test_deterministic_order(self):
        assert grid(b=[1, 2], a=[3]) == [{"a": 3, "b": 1}, {"a": 3, "b": 2}]


@pytest.fixture(scope="module")
def small_sweep():
    return sweep_congos(
        steady_scenario,
        grid(n=[8], deadline=[64]),
        seeds=(0, 1),
        rounds=260,
        params=CongosParams.preset("lean"),
    )


class TestSweepCongos:
    def test_cell_count(self, small_sweep):
        assert len(small_sweep.cells) == 1
        assert small_sweep.cells[0].seeds == 2

    def test_invariant_aggregates(self, small_sweep):
        assert small_sweep.all_satisfied()
        assert small_sweep.all_clean()

    def test_peak_summary(self, small_sweep):
        summary = small_sweep.cells[0].peak_summary()
        assert summary.count == 2
        assert summary.maximum >= summary.mean >= summary.minimum > 0

    def test_fallback_rate_small_fault_free(self, small_sweep):
        # lean() params shave the substrate fanout to the bone, so the
        # w.h.p. pipeline may occasionally miss and the probability-1
        # fallback serves the stragglers; it must stay rare.
        assert small_sweep.cells[0].fallback_rate() < 0.05

    def test_latency_summary_positive(self, small_sweep):
        assert small_sweep.cells[0].latency_summary().mean > 0

    def test_table(self, small_sweep):
        headers = small_sweep.table_headers()
        rows = small_sweep.table_rows()
        assert len(rows) == 1
        assert len(rows[0]) == len(headers)
        assert "qod" in headers

    def test_series_projection(self, small_sweep):
        series = small_sweep.series("n", lambda c: c.peak_summary().mean)
        assert series[0][0] == 8
        assert series[0][1] > 0


class TestMultiCell:
    def test_two_cells(self):
        result = sweep_congos(
            steady_scenario,
            grid(n=[8, 12]),
            seeds=(0,),
            rounds=260,
            deadline=64,
            params=CongosParams.preset("lean"),
        )
        assert len(result.cells) == 2
        peaks = [cell.peak_summary().mean for cell in result.cells]
        assert peaks[1] > peaks[0]  # more processes, more traffic


def empty_latency_record(seed=0):
    return RunRecord(
        scenario="steady",
        n=8,
        rounds=100,
        seed=seed,
        peak=5,
        total=20,
        total_size=20,
        mean_per_round=0.2,
        filtered=0,
        qod_satisfied=True,
        paths={},
        latencies=(),
    )


class TestLatencySummary:
    def test_zero_latencies_yield_none_not_a_fake_sample(self):
        cell = CellResult(cell={"n": 8}, runs=[empty_latency_record()])
        assert cell.latency_summary() is None

    def test_table_renders_dash_for_missing_latency(self):
        sweep = SweepResult(
            cells=[CellResult(cell={"n": 8}, runs=[empty_latency_record()])]
        )
        headers = sweep.table_headers()
        row = sweep.table_rows()[0]
        assert "latency" in headers
        assert row[headers.index("latency")] == "-"

    def test_nonempty_latencies_still_summarized(self, small_sweep):
        summary = small_sweep.cells[0].latency_summary()
        assert summary is not None
        assert summary.count == len(
            [
                latency
                for run in small_sweep.cells[0].runs
                for latency in run.latencies
            ]
        )


class TestParallelSweep:
    """The ISSUE-1 acceptance check: pooled == serial, resume re-runs
    only what is missing."""

    GRID = {"n": [8, 12], "deadline": [64]}

    def run_sweep(self, jobs, cache=None, resume=True, progress=None):
        return sweep_congos(
            "steady",
            grid(**self.GRID),
            seeds=(0, 1),
            jobs=jobs,
            cache=cache,
            resume=resume,
            progress=progress,
            rounds=260,
            params=CongosParams.preset("lean"),
        )

    def test_jobs4_bit_identical_to_serial(self):
        serial = self.run_sweep(jobs=1)
        pooled = self.run_sweep(jobs=4)
        assert pooled.table_rows() == serial.table_rows()
        for cell_a, cell_b in zip(serial.cells, pooled.cells):
            # strip nondeterministic profiling (wall_time, worker_pid)
            assert [r.without_profile().to_dict() for r in cell_a.runs] == [
                r.without_profile().to_dict() for r in cell_b.runs
            ]

    def test_interrupted_sweep_resumes_missing_cells_only(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cells = grid(**self.GRID)

        # "interrupted": only the first cell's replicates completed
        first = Progress(total=2)
        sweep_congos(
            "steady",
            cells[:1],
            seeds=(0, 1),
            jobs=1,
            cache=cache,
            progress=first,
            rounds=260,
            params=CongosParams.preset("lean"),
        )
        assert first.executed == 2

        # resume the full grid: only the missing cell runs
        resumed_progress = Progress(total=4)
        resumed = self.run_sweep(
            jobs=1, cache=cache, progress=resumed_progress
        )
        assert resumed_progress.done == 4
        assert resumed_progress.cached == 2
        assert resumed_progress.executed == 2  # the one missing cell x 2 seeds

        # and the merged result matches a from-scratch serial sweep
        fresh = self.run_sweep(jobs=1)
        assert resumed.table_rows() == fresh.table_rows()
