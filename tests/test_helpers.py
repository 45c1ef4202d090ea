"""The helper pool: where its workers run, what they keep, how many there
are, and that a forked child gets workers of its own."""

import gc
import os
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from repro import helpers
from repro.helpers import HelperPool

needs_two_cpus = pytest.mark.skipif(len(helpers.usable_cpus()) < 2,
                                    reason="needs two usable CPUs")


@needs_two_cpus
def test_a_submit_pins_off_the_caller_and_a_part_gets_the_whole_set_back():
    if helpers.current_cpu() is None:
        pytest.skip("the C library has no sched_getcpu")
    pool = HelperPool(max_threads=1)
    usable = helpers.usable_cpus()
    for _ in range(20):
        before = helpers.current_cpu()
        pinned = pool.submit(os.sched_getaffinity, 0).result(timeout=10)
        if helpers.current_cpu() == before:  # not migrated meanwhile
            assert pinned == usable - {before}
            break
    else:
        pytest.skip("the caller migrated during every hand-off")
    # The same worker, handed a part next, runs it on the caller's set.
    seen = []
    pool.run_parts([(seen.append, (None,)),
                    (lambda: seen.append(os.sched_getaffinity(0)), ())])
    assert pool._threads == 1
    assert usable in seen


def test_a_one_cpu_caller_leaves_the_helper_where_it_is(monkeypatch):
    pool = HelperPool(max_threads=1)
    pool.submit(int).result(timeout=10)
    (worker,) = pool._idle
    before = os.sched_getaffinity(worker.native_id)
    monkeypatch.setattr(helpers, "usable_cpus", lambda: {0})
    monkeypatch.setattr(helpers, "current_cpu", lambda: 0)
    pool.submit(int).result(timeout=10)
    assert os.sched_getaffinity(worker.native_id) == before


def test_a_worker_keeps_nothing_of_a_finished_task():
    pool = HelperPool(max_threads=2)
    grid = np.ones(1 << 16)
    alive = weakref.ref(grid)
    assert pool.submit(np.sum, grid).result(timeout=10) == grid.size
    pool.run_parts([(np.sum, (grid,)), (np.sum, (grid,))])
    del grid
    gc.collect()
    assert alive() is None


def test_tasks_past_the_last_worker_wait_and_all_run():
    pool = HelperPool(max_threads=2)
    release = threading.Event()
    futures = [pool.submit(release.wait, 10) for _ in range(6)]
    assert pool._threads == 2 and len(pool._backlog) == 4
    release.set()
    assert [future.result(timeout=10) for future in futures] == [True] * 6
    assert pool._threads == 2 and not pool._backlog


def test_concurrent_callers_share_the_workers_without_losing_one():
    # More callers than workers and cores, switching often: every task
    # and part runs once, and every worker ends idle, none lost or doubled.
    pool = HelperPool(max_threads=3)
    wrong = []

    def caller(index):
        for round_ in range(200):
            out = [None, None]
            pool.run_parts([(out.__setitem__, (0, index)),
                            (out.__setitem__, (1, round_))])
            if (out != [index, round_] or pool.submit(
                    divmod, round_, index + 1).result(timeout=10)
                    != divmod(round_, index + 1)):
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert pool._threads == 3 and not pool._backlog
    assert sorted(map(id, pool._idle)) == sorted(set(map(id, pool._idle)))
    assert len(pool._idle) == 3


def test_an_error_reaches_the_future_and_the_worker_survives():
    pool = HelperPool(max_threads=1)
    with pytest.raises(ZeroDivisionError):
        pool.submit(divmod, 1, 0).result(timeout=10)
    assert pool.submit(divmod, 7, 2).result(timeout=10) == (3, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_parts_and_tasks():
    out = np.zeros(2)

    def fill(index, value):
        out[index] = value

    parent_pool = helpers.pool()
    parent_pool.run_parts([(fill, (0, 1.0)), (fill, (1, 1.0))])
    assert parent_pool.submit(sum, [1, 2]).result(timeout=10) == 3
    with warnings.catch_warnings():  # fork of a threaded process
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports by exit code
        status = 1
        try:
            pool = helpers.pool()
            pool.run_parts([(fill, (0, 2.0)), (fill, (1, 2.0))])
            if (pool is not parent_pool and list(out) == [2.0, 2.0]
                    and pool.submit(sum, [3, 4]).result(timeout=10) == 7):
                status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 10
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the helper pool")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
