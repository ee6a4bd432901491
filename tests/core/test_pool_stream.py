"""The local pool's wait loop: per-task cost flat in the batch size.

Both local pools (``process-pool``, the asyncio pool once named
``asyncio-local``, and its ``process-pool-shmem`` subclass, which adds
a poll tick to the same loop) must register O(1) completion callbacks
per submitted task, never a waiter on every pending future at every
wakeup.  The other tests here pin the loop's contract that the
completion queue must keep on both pools: the shmem poll tick fires
while nothing completes, a revoked future's late callback is skipped
and counted once, and a deadline cuts in-flight work short.
"""

import asyncio
import concurrent.futures
import time
from concurrent.futures import _base as futures_base

import pytest

from repro.core.engine.shmem import ShmemPoolTransport
from repro.core.engine.transports import ProcessPoolTransport


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


def test_pool_stream_registers_linear_callbacks(registrations):
    # Tasks that finish a few ms apart wake the parent once per few
    # completions while ~N futures are pending: a per-wakeup waiter on
    # every pending future makes this O(N^2).  The shmem pool's poll
    # tick wakes the loop on top of that and must add no waiters.
    transport = ShmemPoolTransport(n_workers=2, poll_interval_s=0.001)
    results = dict(asyncio.run(_drain(transport, _tasks(N_TASKS, 0.002))))
    assert results == {i: i for i in range(N_TASKS)}
    assert registrations[0] <= 2 * N_TASKS


def test_asyncio_local_registers_linear_callbacks(registrations):
    transport = ProcessPoolTransport(n_workers=2)
    results = dict(asyncio.run(_drain(transport, _tasks(N_TASKS, 0.002))))
    assert results == {i: i for i in range(N_TASKS)}
    assert registrations[0] <= 2 * N_TASKS


def test_shmem_poll_tick_fires_while_nothing_completes():
    ticks = []
    ticks_before_completion = []

    class Counting(ShmemPoolTransport):
        def _on_wait_tick(self):
            ticks.append(time.monotonic())
            super()._on_wait_tick()

    async def note_ticks(_transport):
        ticks_before_completion.append(len(ticks))

    transport = Counting(n_workers=1, poll_interval_s=0.02)
    results = asyncio.run(_drain(transport, _tasks(1, 0.4),
                                 on_first=note_ticks))
    assert results == [(0, 0)]
    # ~20 ticks at a 20 ms cadence over a 0.4 s task; allow a slow host.
    assert ticks_before_completion[0] >= 3


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
    _check_cancel_floor_counts_once(ShmemPoolTransport(n_workers=1))


def test_asyncio_local_cancel_floor_skips_late_callbacks_and_counts_once():
    _check_cancel_floor_counts_once(ProcessPoolTransport(n_workers=1))


def _check_deadline_expires_in_flight(make_transport):
    started = time.monotonic()
    transport = make_transport(deadline=started + 0.3)
    results = asyncio.run(_drain(transport, _tasks(2, 1.5)))
    assert results == []
    assert transport.expired
    assert time.monotonic() - started < 1.5


def test_pool_deadline_expires_with_tasks_in_flight():
    _check_deadline_expires_in_flight(
        lambda deadline: ShmemPoolTransport(n_workers=1, deadline=deadline))


def test_asyncio_local_deadline_expires_with_tasks_in_flight():
    _check_deadline_expires_in_flight(
        lambda deadline: ProcessPoolTransport(n_workers=1, deadline=deadline))
