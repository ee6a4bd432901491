"""The local pool's wait loop: per-task cost flat in the batch size.

``process-pool`` must register O(1) completion callbacks per submitted
task, never a waiter on every pending future at every wakeup.  The
other tests here pin the loop's contract that the completion queue must
keep: a revoked future's late callback is skipped and counted once, and
a deadline cuts in-flight work short.  Each contract is checked twice:
on the pool the ``executors`` registry hands out for ``process-pool``
(the ``test_pool_*`` tests), and on ``ProcessPoolTransport`` built
directly, the asyncio pool once named ``asyncio-local``.
"""

import asyncio
import concurrent.futures
import time
from concurrent.futures import _base as futures_base

import pytest

from repro.core.engine.executors import EXECUTORS
from repro.core.engine.transports import (ProcessPoolTransport, _kill_workers,
                                          _mp_context)


def _registry_pool(**kwargs):
    """The ``process-pool`` backend as a session names it."""
    return EXECUTORS["process-pool"](**kwargs)


def _nap(index, seconds):
    time.sleep(seconds)
    return index


def _tasks(n, seconds=0.0):
    return {i: (_nap, (i, seconds)) for i in range(n)}


async def _drain(transport, tasks, on_first=None):
    """Drive *transport* the way the coordinator does; returns the results."""
    await transport.start(tasks)
    out = []
    try:
        while (item := await transport.next_result()) is not None:
            out.append(item)
            if on_first is not None and len(out) == 1:
                await on_first(transport)
    finally:
        await transport.close()
    return out


@pytest.fixture
def registrations(monkeypatch):
    """Count completion hooks put on futures: done-callbacks plus the
    waiters ``concurrent.futures.wait`` and ``asyncio.wait`` install."""
    count = [0]
    add_done_callback = concurrent.futures.Future.add_done_callback

    def counting_add_done_callback(self, fn):
        count[0] += 1
        return add_done_callback(self, fn)

    install_waiters = futures_base._create_and_install_waiters

    def counting_install_waiters(fs, return_when):
        count[0] += len(fs)
        return install_waiters(fs, return_when)

    asyncio_wait = asyncio.tasks._wait

    async def counting_asyncio_wait(fs, timeout, return_when, loop):
        count[0] += len(fs)
        return await asyncio_wait(fs, timeout, return_when, loop)

    monkeypatch.setattr(concurrent.futures.Future, "add_done_callback",
                        counting_add_done_callback)
    monkeypatch.setattr(futures_base, "_create_and_install_waiters",
                        counting_install_waiters)
    monkeypatch.setattr(asyncio.tasks, "_wait", counting_asyncio_wait)
    return count


N_TASKS = 150


def _check_linear_callbacks(transport, registrations):
    # Tasks that finish a few ms apart wake the parent once per few
    # completions while ~N futures are pending: a per-wakeup waiter on
    # every pending future makes this O(N^2).
    results = dict(asyncio.run(_drain(transport, _tasks(N_TASKS, 0.002))))
    assert results == {i: i for i in range(N_TASKS)}
    assert registrations[0] <= 2 * N_TASKS


def test_pool_stream_registers_linear_callbacks(registrations):
    _check_linear_callbacks(_registry_pool(n_workers=2), registrations)


def test_asyncio_local_registers_linear_callbacks(registrations):
    _check_linear_callbacks(ProcessPoolTransport(n_workers=2), registrations)


def _check_cancel_floor_counts_once(transport):
    tasks = {0: (_nap, (0, 0.2))}
    tasks.update({i: (_nap, (i, 0.0)) for i in range(1, 20)})
    revoked = []

    async def cancel_twice(t):
        await t.cancel(floor=0)
        revoked.append(t.cancelled_count)
        await t.cancel(floor=0)  # nothing left to revoke

    # The revoked futures' callbacks still arrive on the queue.
    results = asyncio.run(_drain(transport, tasks, on_first=cancel_twice))
    indexes = [index for index, _value in results]
    assert results[0] == (0, 0)
    assert len(indexes) == len(set(indexes))
    assert revoked[0] > 0
    assert transport.cancelled_count == revoked[0]
    assert len(indexes) + revoked[0] == len(tasks)
    assert not transport.expired


def test_pool_cancel_floor_skips_late_callbacks_and_counts_once():
    _check_cancel_floor_counts_once(_registry_pool(n_workers=1))


def test_asyncio_local_cancel_floor_skips_late_callbacks_and_counts_once():
    _check_cancel_floor_counts_once(ProcessPoolTransport(n_workers=1))


def _check_deadline_expires_in_flight(make_transport):
    started = time.monotonic()
    transport = make_transport(n_workers=1, deadline=started + 0.3)
    results = asyncio.run(_drain(transport, _tasks(2, 1.5)))
    assert results == []
    assert transport.expired
    assert time.monotonic() - started < 1.5


def test_pool_deadline_expires_with_tasks_in_flight():
    _check_deadline_expires_in_flight(_registry_pool)


def test_asyncio_local_deadline_expires_with_tasks_in_flight():
    _check_deadline_expires_in_flight(ProcessPoolTransport)


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
