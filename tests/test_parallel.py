import concurrent.futures
import multiprocessing
import os
from functools import partial

from extval import parallel
from extval.parallel import ordered_map


def _pid(_item):
    return os.getpid()


def test_ordered_map_runs_the_first_share_in_this_process():
    pids = ordered_map(_pid, range(5), 2)
    # shares of 3 and 2 items: this process, then one forked worker
    assert pids[:3] == [os.getpid()] * 3
    assert pids[3] == pids[4] != os.getpid()
    assert multiprocessing.active_children() == []


def test_ordered_map_keeps_item_order_at_any_worker_count():
    want = [3 ** i for i in range(7)]
    for workers in (1, 2, 3, 7, 20):
        assert ordered_map(partial(pow, 3), range(7), workers) == want


def test_context_without_a_safe_fork_needs_a_task_that_pickles(monkeypatch):
    assert parallel._context(lambda item: item).get_start_method() == "fork"
    monkeypatch.setattr(parallel.sys, "platform", "darwin")
    assert parallel._context(lambda item: item) is None
    assert parallel._context(partial(pow, 3)) is multiprocessing.get_context()


def test_ordered_map_on_spawned_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_context", lambda task: multiprocessing.get_context("spawn"))
    assert ordered_map(partial(pow, 3), range(5), 2) == [3 ** i for i in range(5)]
    assert multiprocessing.active_children() == []


def test_ordered_map_defaults_to_one_process_per_cpu_where_fork_is_safe(monkeypatch):
    built = []
    # ordered_map imports the pool class where it builds a pool
    pool = concurrent.futures.ProcessPoolExecutor

    def recorded(workers, **kwargs):
        built.append(workers)
        return pool(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recorded)
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 3)
    want = [3 ** i for i in range(6)]
    assert ordered_map(partial(pow, 3), range(6)) == want
    assert built == [2]
    # without a safe fork the default is this process alone
    monkeypatch.setattr(parallel.sys, "platform", "darwin")
    assert ordered_map(partial(pow, 3), range(6)) == want
    assert built == [2]
