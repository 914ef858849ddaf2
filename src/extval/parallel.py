"""An ordered map over worker processes, the calling process among them.

Bootstrap replicates, and a study's replications and Monte Carlo truths,
are independent tasks whose results are combined in index order.
``ordered_map`` splits the items into one contiguous share per process,
by default one process per CPU: the calling process runs the first share
itself while forked worker processes run the others. A forked worker
inherits the task, closures and data included, from the parent's memory,
so only the items and the results are pickled. On a 2-CPU Xeon VM a pool
of one forked worker starts, runs a trivial task and exits in about 8 ms,
where a spawned one re-imports numpy and the package in about 0.25 s,
longer than a 1M-draw Monte Carlo truth (0.09 s). Forked workers also
inherit the parent's BLAS thread setting (``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable

# the task of this worker process, set by _install when the worker starts
_task: Callable | None = None
# true while this process runs its own share next to a pool, so that a
# task which maps again runs its inner map serially
_sharing = False


def _install(task: Callable) -> None:
    global _task
    _task = task


def _run(item):
    return _task(item)


def _cpu_count() -> int:
    """CPUs in this process's affinity mask, which ``taskset`` sets."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _safe_fork() -> bool:
    """Whether the platform has fork and it is safe: not on macOS, whose
    system frameworks (the Accelerate BLAS among them) may crash in a
    forked child."""
    return "fork" in multiprocessing.get_all_start_methods() and sys.platform != "darwin"


def _context(task: Callable):
    """The start method for workers running ``task``, or None for none.

    Fork, where it is safe (``_safe_fork``). Elsewhere the platform's
    default method, which pickles the task, so a task that does not
    pickle runs in this process alone.
    """
    if _safe_fork():
        return multiprocessing.get_context("fork")
    try:
        pickle.dumps(task)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None
    return multiprocessing.get_context()


def ordered_map(task: Callable, items: Iterable, workers: int | None = None) -> list:
    """``[task(item) for item in items]`` on up to ``workers`` processes.

    ``workers`` None is one per CPU in this process's affinity mask
    (``_cpu_count``) where fork is safe, and one elsewhere. The items are
    split into ``workers`` contiguous shares; this process runs the first
    and a pool of ``workers - 1`` worker processes the rest. The results
    come back in item order, so they do not depend on the worker count
    when ``task`` is deterministic per item. The plain loop runs, with no
    pool, when one process would do, when no start method can carry
    ``task`` (``_context``), when this process is itself a multiprocessing
    child, or while it runs its share of an outer map, so pools never
    nest. An exception that escapes ``task`` is raised here with its own
    class once every worker has exited; no worker outlives the call.
    """
    global _sharing
    items = list(items)
    if workers is None:
        workers = _cpu_count() if _safe_fork() else 1
    workers = min(workers, len(items))
    context = None
    if workers > 1 and not _sharing and multiprocessing.parent_process() is None:
        context = _context(task)
    if context is None:
        return [task(item) for item in items]
    share = -(-len(items) // workers)
    workers = -(-len(items) // share)
    with ProcessPoolExecutor(workers - 1, mp_context=context,
                             initializer=_install, initargs=(task,)) as pool:
        rest = pool.map(_run, items[share:], chunksize=share)
        _sharing = True
        try:
            first = [task(item) for item in items[:share]]
        finally:
            _sharing = False
        return first + list(rest)
