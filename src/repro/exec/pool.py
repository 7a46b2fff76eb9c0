"""Process-pool task runner with retries, timeouts and a serial fallback.

:func:`run_tasks` fans a list of picklable items out over a
``ProcessPoolExecutor`` and returns the results *in input order*.  A
worker crash (segfault, ``os._exit``, OOM-kill) breaks the whole pool;
the runner rebuilds it and re-submits every unfinished task, charging an
attempt only to the tasks that could actually have been executing (at
most ``max_workers`` of them, in submission order) — queued tasks keep
their full budget.  Timeouts share the same budget: a task that exceeds
the per-task timeout is retried on a fresh pool until it exhausts
``retries``, with already-finished neighbors harvested first.  With
``jobs=1`` no subprocess is ever spawned — the serial fallback runs the
same code path tests and debuggers can step through.

:func:`run_specs` layers the on-disk result cache on top: cached specs
are returned without touching the pool, fresh results are written back,
so an interrupted sweep resumed later re-runs only the missing cells.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.exec.cache import ResultCache
from repro.exec.progress import Progress
from repro.exec.results import RunRecord
from repro.exec.tasks import RunSpec, execute_spec

__all__ = [
    "TaskTimeoutError",
    "WorkerCrashError",
    "resolve_jobs",
    "run_specs",
    "run_tasks",
]

T = TypeVar("T")
R = TypeVar("R")


class WorkerCrashError(RuntimeError):
    """A task crashed its worker more than ``retries`` times."""


class TaskTimeoutError(RuntimeError):
    """A task exceeded the per-task timeout more than ``retries`` times."""


def _task_label(index: int, item: object) -> str:
    """``task 3 (spec 1a2b3c4d5e6f)`` when the item carries a spec key."""
    key = getattr(item, "key", None)
    if key:
        return "task {} (spec {})".format(index, str(key)[:12])
    return "task {}".format(index)


def _terminate_workers(executor: ProcessPoolExecutor) -> None:
    """Kill worker processes so a hung task cannot stall pool shutdown.

    ``ProcessPoolExecutor`` has no public kill switch; terminating the
    worker processes is the standard workaround and leaves the executor
    broken, which the retry loop handles by rebuilding it.
    """
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass


def resolve_jobs(jobs: Optional[int]) -> int:
    """``jobs`` if positive, else ``os.cpu_count()`` (at least 1)."""
    if jobs is not None and jobs > 0:
        return jobs
    return os.cpu_count() or 1


def run_tasks(
    items: Iterable[T],
    fn: Callable[[T], R],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    on_result: Optional[Callable[[int, R], None]] = None,
) -> List[R]:
    """Run ``fn`` over ``items``, in parallel, preserving input order.

    ``timeout`` bounds the wait for each task's result once the runner
    turns to it (earlier waits overlap later execution, so it is an upper
    bound per task, not a global deadline).  The serial fallback
    (``jobs=1``) runs in-process and does not enforce timeouts.

    ``on_result`` fires with ``(index, result)`` the moment each task
    lands, before later tasks finish — callers use it to checkpoint
    completed work so an interrupt cannot lose it.
    """
    work = list(items)
    resolved_jobs = resolve_jobs(jobs)
    if resolved_jobs == 1:
        results_serial: List[R] = []
        for serial_index, item in enumerate(work):
            result = fn(item)
            results_serial.append(result)
            if on_result is not None:
                on_result(serial_index, result)
        return results_serial

    results: Dict[int, R] = {}
    remaining: Dict[int, T] = dict(enumerate(work))
    attempts: Dict[int, int] = {index: 0 for index in remaining}

    def finish(index: int) -> None:
        remaining.pop(index)
        if on_result is not None:
            on_result(index, results[index])

    while remaining:
        broken = False
        timed_out: Optional[int] = None
        max_workers = min(resolved_jobs, len(remaining))
        with ProcessPoolExecutor(max_workers=max_workers) as executor:
            futures = {}
            try:
                for index, item in sorted(remaining.items()):
                    futures[index] = executor.submit(fn, item)
            except BrokenProcessPool:
                # A worker died while the rest were being submitted: the
                # same broken pool as one seen through a result below.
                broken = True
            for index, future in futures.items():
                if timed_out is not None:
                    # A task timed out and the workers were killed; only
                    # harvest results that had already landed.
                    if not future.done():
                        continue
                    try:
                        results[index] = future.result(timeout=0)
                    except Exception:
                        continue
                    finish(index)
                    continue
                try:
                    results[index] = future.result(timeout=timeout)
                except BrokenProcessPool:
                    broken = True
                    continue
                except FuturesTimeoutError:
                    timed_out = index
                    for pending in futures.values():
                        pending.cancel()
                    _terminate_workers(executor)
                    continue
                finish(index)
        if broken:
            # At most max_workers tasks can have been executing when the
            # pool died; queued-but-unstarted tasks are innocent and keep
            # their full retry budget.  Submission order means the
            # earliest unfinished indices were the ones in flight.
            for index in sorted(remaining)[:max_workers]:
                attempts[index] += 1
                if attempts[index] > retries:
                    raise WorkerCrashError(
                        "{} crashed its worker {} times (retries={})".format(
                            _task_label(index, remaining[index]),
                            attempts[index],
                            retries,
                        )
                    )
        if timed_out is not None:
            attempts[timed_out] += 1
            if attempts[timed_out] > retries:
                raise TaskTimeoutError(
                    "{} exceeded the {}s per-task timeout {} time(s) "
                    "(retries={})".format(
                        _task_label(timed_out, remaining[timed_out]),
                        timeout,
                        attempts[timed_out],
                        retries,
                    )
                )
    return [results[index] for index in range(len(work))]


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    cache: Optional[ResultCache] = None,
    resume: bool = True,
    progress: Optional[Progress] = None,
    fn: Callable[[RunSpec], RunRecord] = execute_spec,
) -> List[RunRecord]:
    """Run a batch of specs through the pool, via the result cache.

    With a ``cache`` and ``resume=True``, specs whose key is already on
    disk are returned without running; fresh results are always written
    back (even with ``resume=False``), so the *next* resumed run can skip
    them.  Each record is checkpointed the moment its task lands — an
    interrupted sweep keeps everything that finished before the signal.
    """
    specs = list(specs)
    records: List[Optional[RunRecord]] = [None] * len(specs)
    todo: List[int] = []
    for index, spec in enumerate(specs):
        cached = cache.get(spec.key) if (cache is not None and resume) else None
        if cached is not None:
            records[index] = cached.with_profile(cache_hit=True)
            if progress is not None:
                progress.task_done(cached=True)
        else:
            todo.append(index)

    def checkpoint(todo_index: int, record: RunRecord) -> None:
        index = todo[todo_index]
        records[index] = record
        if cache is not None:
            cache.put(record, key=specs[index].key)
        if progress is not None:
            progress.task_done(wall_time=getattr(record, "wall_time", None))

    run_tasks(
        [specs[index] for index in todo],
        fn=fn,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        on_result=checkpoint,
    )
    return [record for record in records if record is not None]
