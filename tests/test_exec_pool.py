"""Tests for repro.exec.pool: ordering, parity, crash retry, timeouts.

The crash/exception helpers must live at module scope so the forked
workers can unpickle them by qualified name.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.config import CongosParams
from repro.exec import pool
from repro.exec.pool import (
    TaskTimeoutError,
    WorkerCrashError,
    resolve_jobs,
    run_specs,
    run_tasks,
)
from repro.exec.tasks import RunSpec


def _identity(value):
    return value


def _square(value):
    return value * value


def _raise(value):
    raise ValueError("task failed: {}".format(value))


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _crash_until_marker(path):
    """Kill the worker hard on the first call, succeed once the marker
    exists — a deterministic 'crash once, then recover' workload."""
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8"):
            pass
        os._exit(13)
    return "survived"


def _always_crash(_):
    os._exit(13)


def _sleep_until_marker(path):
    """Hang well past any test timeout on the first call, return fast once
    the marker exists — a deterministic 'time out once, then recover'."""
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8"):
            pass
        time.sleep(60)
    return "recovered"


class _KeyedCrasher:
    """Picklable stand-in for a RunSpec: carries a spec-style key."""

    key = "deadbeefcafe0123456789"

    def __call__(self):
        pass


def _crash_keyed(_item):
    os._exit(13)


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestRunTasks:
    def test_serial_preserves_order(self):
        assert run_tasks(range(5), _square, jobs=1) == [0, 1, 4, 9, 16]

    def test_parallel_preserves_order(self):
        assert run_tasks(range(6), _square, jobs=2) == [0, 1, 4, 9, 16, 25]

    def test_serial_accepts_closures(self):
        calls = []

        def fn(item):
            calls.append(item)
            return item

        assert run_tasks([1, 2], fn, jobs=1) == [1, 2]
        assert calls == [1, 2]

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="task failed"):
            run_tasks([1], _raise, jobs=1)

    def test_parallel_exception_propagates(self):
        with pytest.raises(ValueError, match="task failed"):
            run_tasks([1], _raise, jobs=2)

    def test_worker_crash_is_retried(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        result = run_tasks([marker], _crash_until_marker, jobs=2, retries=1)
        assert result == ["survived"]
        assert os.path.exists(marker)

    def test_innocent_bystanders_survive_a_crash(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        # The crasher takes the whole pool down; the other tasks must be
        # re-run transparently and keep their slots.
        crash_and_friends = [marker, str(tmp_path / "absent-a"), marker]
        results = run_tasks(
            crash_and_friends,
            _crash_until_marker,
            jobs=2,
            retries=2,
        )
        assert results == ["survived", "survived", "survived"]

    def test_crash_budget_exhausted_raises(self):
        with pytest.raises(WorkerCrashError, match="crashed its worker"):
            run_tasks([None], _always_crash, jobs=2, retries=1)

    def test_timeout_raises(self):
        with pytest.raises(TaskTimeoutError, match="per-task timeout"):
            run_tasks([1.5], _sleep, jobs=2, timeout=0.2)


class TestRetryAccounting:
    def test_crash_error_names_the_offending_task(self):
        # Only tasks that can have been in flight are charged; the
        # always-crasher at index 0 exhausts its budget and is named.
        with pytest.raises(WorkerCrashError, match=r"task 0 "):
            run_tasks([None], _always_crash, jobs=2, retries=1)

    def test_spec_key_in_crash_message(self):
        with pytest.raises(WorkerCrashError, match=r"spec deadbeefcafe"):
            run_tasks([_KeyedCrasher()], _crash_keyed, jobs=2, retries=0)

    def test_queued_tail_survives_a_pool_break(self, tmp_path):
        # With 2 workers, most of these tasks are still queued when the
        # crasher (index 0) breaks the pool; the tail keeps its budget
        # and the whole batch completes on the rebuilt pool.
        marker = str(tmp_path / "crashed-once")
        innocents = []
        for i in range(6):
            path = str(tmp_path / "pre-{}".format(i))
            with open(path, "w", encoding="utf-8"):
                pass  # marker exists => _crash_until_marker never crashes
            innocents.append(path)
        results = run_tasks(
            [marker, *innocents], _crash_until_marker, jobs=2, retries=1
        )
        assert results == ["survived"] * 7

    def test_a_pool_broken_during_submission_is_retried(self, monkeypatch):
        # A worker that dies while later tasks are still being submitted
        # makes ``submit`` itself raise: a broken pool like one seen
        # through a result, charged to the retry budget, never an escape.
        calls = []
        submit = pool.ProcessPoolExecutor.submit

        def breaks_on_the_third_call(executor, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise BrokenProcessPool("a worker died during submission")
            return submit(executor, *args, **kwargs)

        monkeypatch.setattr(
            pool.ProcessPoolExecutor, "submit", breaks_on_the_third_call
        )
        results = run_tasks(list(range(6)), _square, jobs=2, retries=1)
        assert results == [0, 1, 4, 9, 16, 25]
        assert len(calls) > 6  # the unfinished tail went to a rebuilt pool

    def test_timeout_error_names_task_and_budget(self):
        with pytest.raises(
            TaskTimeoutError, match=r"task 0 exceeded .* 2 time\(s\)"
        ):
            run_tasks([5.0], _sleep, jobs=2, timeout=0.2, retries=1)

    def test_timeout_is_retried_on_a_fresh_pool(self, tmp_path):
        marker = str(tmp_path / "timed-out-once")
        results = run_tasks(
            [marker], _sleep_until_marker, jobs=2, timeout=2.0, retries=1
        )
        assert results == ["recovered"]

    def test_neighbors_survive_a_timeout(self, tmp_path):
        marker = str(tmp_path / "timed-out-once")
        items = [marker, str(tmp_path / "absent-a")]
        results = run_tasks(
            items, _sleep_until_marker, jobs=2, timeout=2.0, retries=1
        )
        assert results == ["recovered", "recovered"]


class TestRunSpecsParity:
    @pytest.fixture(scope="class")
    def specs(self):
        return [
            RunSpec.make(
                "steady",
                seed=seed,
                n=8,
                rounds=200,
                deadline=64,
                params=CongosParams.preset("lean"),
            )
            for seed in (0, 1)
        ]

    def test_pool_results_identical_to_serial(self, specs):
        serial = run_specs(specs, jobs=1)
        pooled = run_specs(specs, jobs=2)
        # Profiling fields (wall_time, worker_pid) legitimately differ
        # between processes; the simulation payload must not.
        assert [r.without_profile().to_dict() for r in serial] == [
            r.without_profile().to_dict() for r in pooled
        ]
        # same seeds -> same peak/total/QoD, bit for bit
        assert [r.peak for r in serial] == [r.peak for r in pooled]
        assert [r.total for r in serial] == [r.total for r in pooled]
        assert all(r.qod_satisfied for r in pooled)
        assert all(r.wall_time > 0 for r in serial)
        assert all(r.wall_time > 0 for r in pooled)

    def test_different_seeds_differ(self, specs):
        records = run_specs(specs, jobs=1)
        assert records[0].total != records[1].total
