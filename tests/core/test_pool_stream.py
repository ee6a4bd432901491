"""The local pool's wait loop: per-task cost flat in the batch size.

``process-pool`` must register O(1) completion callbacks per submitted
task, never a waiter on every pending future at every wakeup.  The
other tests here pin the loop's contract that the completion queue must
keep: a revoked future's late callback is skipped and counted once, and
a deadline cuts in-flight work short, and a shutdown signal during an
isolated retry leaves the worker for ``close()`` to kill.  Each runs on
the pool the ``executors`` registry hands out for ``process-pool``,
which is ``ProcessPoolTransport`` itself.
"""

import concurrent.futures
import signal
import threading
import time
from concurrent.futures import _base as futures_base

import pytest

from repro.core.engine.executors import EXECUTORS
from repro.core.engine.transports import (ProcessPoolTransport, _kill_workers,
                                          _mp_context)


def _registry_pool(**kwargs):
    """The ``process-pool`` backend as a session names it."""
    return EXECUTORS["process-pool"](**kwargs)


def test_registry_process_pool_is_the_pool_transport():
    assert EXECUTORS["process-pool"] is ProcessPoolTransport


def _nap(index, seconds):
    time.sleep(seconds)
    return index


def _tasks(n, seconds=0.0):
    return {i: (_nap, (i, seconds)) for i in range(n)}


def _drain(transport, tasks, on_first=None):
    """Drive *transport* the way the coordinator does; returns the results."""
    transport.start(tasks)
    out = []
    try:
        while (item := transport.next_result()) is not None:
            out.append(item)
            if on_first is not None and len(out) == 1:
                on_first(transport)
    finally:
        transport.close()
    return out


@pytest.fixture
def registrations(monkeypatch):
    """Count completion hooks put on futures: done-callbacks plus the
    waiters ``concurrent.futures.wait`` installs."""
    count = [0]
    add_done_callback = concurrent.futures.Future.add_done_callback

    def counting_add_done_callback(self, fn):
        count[0] += 1
        return add_done_callback(self, fn)

    install_waiters = futures_base._create_and_install_waiters

    def counting_install_waiters(fs, return_when):
        count[0] += len(fs)
        return install_waiters(fs, return_when)

    monkeypatch.setattr(concurrent.futures.Future, "add_done_callback",
                        counting_add_done_callback)
    monkeypatch.setattr(futures_base, "_create_and_install_waiters",
                        counting_install_waiters)
    return count


N_TASKS = 150


def test_pool_stream_registers_linear_callbacks(registrations):
    transport = _registry_pool(n_workers=2)
    # Tasks that finish a few ms apart wake the parent once per few
    # completions while ~N futures are pending: a per-wakeup waiter on
    # every pending future makes this O(N^2).
    results = dict(_drain(transport, _tasks(N_TASKS, 0.002)))
    assert results == {i: i for i in range(N_TASKS)}
    assert registrations[0] <= 2 * N_TASKS


def test_pool_cancel_floor_skips_late_callbacks_and_counts_once():
    transport = _registry_pool(n_workers=1)
    tasks = {0: (_nap, (0, 0.2))}
    tasks.update({i: (_nap, (i, 0.0)) for i in range(1, 20)})
    revoked = []

    def cancel_twice(t):
        t.cancel(floor=0)
        revoked.append(t.cancelled_count)
        t.cancel(floor=0)  # nothing left to revoke

    # The revoked futures' callbacks still arrive on the queue.
    results = _drain(transport, tasks, on_first=cancel_twice)
    indexes = [index for index, _value in results]
    assert results[0] == (0, 0)
    assert len(indexes) == len(set(indexes))
    assert revoked[0] > 0
    assert transport.cancelled_count == revoked[0]
    assert len(indexes) + revoked[0] == len(tasks)
    assert not transport.expired


def test_pool_deadline_expires_with_tasks_in_flight():
    started = time.monotonic()
    transport = _registry_pool(n_workers=1, deadline=started + 0.3)
    results = _drain(transport, _tasks(2, 1.5))
    assert results == []
    assert transport.expired
    assert time.monotonic() - started < 1.5


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"),
                    reason="needs pthread_kill")
def test_signal_during_isolated_retry_leaves_the_worker_to_close():
    """The wait is a blocking call on the main thread: a SIGINT raises
    out of it, and the isolation pool must still be there for the
    aborted batch's ``close()`` to terminate, not shut down without
    waiting and left for the exit hook to join."""
    transport = _registry_pool(n_workers=1)
    transport._tasks = {0: (_nap, (0, 30.0))}
    transport._salvage = [0]  # as after a second pool break
    transport._ctx = _mp_context()
    main = threading.get_ident()

    def interrupt_once_isolated():
        deadline = time.monotonic() + 10
        while transport._isolation is None and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # let the main thread block on the result
        signal.pthread_kill(main, signal.SIGINT)

    started = time.monotonic()
    interrupter = threading.Thread(target=interrupt_once_isolated)
    interrupter.start()
    with pytest.raises(KeyboardInterrupt):
        transport.next_result()
    interrupter.join(timeout=15)
    assert not interrupter.is_alive()
    workers = list(transport._isolation._processes.values())
    assert workers
    transport.aborted = True  # what the coordinator sets on the way out
    transport.close()
    for process in workers:
        process.join(timeout=5)
        assert not process.is_alive()
    assert time.monotonic() - started < 10


def test_kill_workers_reaps_the_manager_thread():
    """An aborted pool's manager thread is gone, its wakeup pipe closed,
    before ``_kill_workers`` returns.  The interpreter's exit hook
    writes to that pipe without a lock; a manager still closing it at
    exit makes the hook fail with "Bad file descriptor"."""
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=2, mp_context=_mp_context())
    futures = [pool.submit(_nap, i, 30.0) for i in range(2)]
    deadline = time.monotonic() + 10
    while (not all(f.running() for f in futures)
           and time.monotonic() < deadline):
        time.sleep(0.01)
    manager = pool._executor_manager_thread
    wakeup = pool._executor_manager_thread_wakeup
    started = time.monotonic()
    _kill_workers(pool)
    assert time.monotonic() - started < 1.5
    assert not manager.is_alive()
    assert wakeup._closed
