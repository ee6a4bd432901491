"""The ``process-pool`` transport: runs fanned across a local pool.

:class:`ProcessPoolTransport` implements the coordinator's
:class:`~repro.core.engine.coordinator.Transport`: FIFO submission in
index order, cancel-with-floor revoking only unstarted futures,
deadline expiry abandoning in-flight work, one pool rebuild then
per-task isolation salvage.  Each future's done-callback puts it on a
thread-safe completion queue, and
:meth:`~ProcessPoolTransport.next_result` blocks on that queue until
the deadline.

The ``serial`` backend is no transport but a plain loop
(:mod:`repro.core.engine.session`), and never imports this module.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.core.engine import heartbeat as _heartbeat
from repro.core.engine.coordinator import Transport
from repro.core.engine.executors import CRASHED, _EXPIRED
from repro.core.engine.heartbeat import _HEARTBEAT_QUEUE_SIZE, HeartbeatMonitor
from repro.core.engine.tasks import _worker_init


def _mp_context():
    """Fork where available: cheapest start, and child processes inherit
    imported test modules, so locally-importable programs stay usable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_isolated(task, executor, deadline):
    """Run one ``(worker_fn, args)`` task alone in a fresh 1-worker pool.

    Used after a pool break: the parent cannot tell *which* worker died
    (every in-flight future raises ``BrokenProcessPool``), so each
    unresolved task is retried in isolation — the crasher reveals itself
    by breaking its private pool, everything else completes normally.
    The caller builds the pool, *executor*, and keeps it so an aborted
    batch can kill the worker: an exception out of the wait (a shutdown
    signal) leaves the pool running for the caller's ``close()``.
    """
    worker_fn, args = task
    future = executor.submit(worker_fn, *args)
    timeout = None
    if deadline is not None:
        timeout = max(0.0, deadline - time.monotonic())
    try:
        value = future.result(timeout=timeout)
    except BrokenExecutor:
        value = CRASHED
    except (FuturesTimeoutError, TimeoutError):
        value = _EXPIRED
    # Reap the worker unless it is stuck past the deadline — forked
    # workers inherit parent fds (e.g. the journal's lock), so a
    # lingering idle worker must not outlive this call.
    executor.shutdown(wait=value is not _EXPIRED, cancel_futures=True)
    return value


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Shut *pool* down without waiting, and terminate its workers.

    Workers ignore SIGINT (:func:`~repro.core.engine.tasks._worker_init`)
    and the interpreter's exit hook joins the pool's manager thread,
    which waits for them — so an abandoned in-flight run would still
    hold the exit hostage.  ``shutdown`` forgets the process table and
    the manager thread, so both are taken first.

    The manager thread then sees its workers die, closes its wakeup
    pipe and exits; it is joined here (for at most a second).  On
    Python 3.10/3.11 the exit hook writes to that pipe without a lock,
    so a manager still closing it at interpreter exit makes the hook
    fail with "Bad file descriptor"; once the manager is gone, the hook
    finds the pipe marked closed and skips it.
    """
    workers = list((pool._processes or {}).values())
    manager = pool._executor_manager_thread
    pool.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        process.terminate()
    if manager is not None:
        manager.join(timeout=1.0)


class ProcessPoolTransport(Transport):
    """Fan tasks across a local process pool, streaming completions.

    A task is a ``(worker_fn, args)`` tuple; everything in *args* must
    be picklable.  *deadline* is an absolute ``time.monotonic()`` value
    (or None): on expiry the stream ends with :attr:`expired` set and
    in-flight work is abandoned.  :meth:`cancel` is gentler — unstarted
    futures are revoked, running ones are drained and still returned.
    A worker process that dies (segfault analog, OOM kill, ``os._exit``)
    breaks the pool; the pool is rebuilt once at full parallelism, and
    if it breaks again each unresolved task is retried in an isolated
    single-worker pool, so the crasher reveals itself and every
    innocent task still completes.
    """

    name = "process-pool"

    #: How many times a broken pool is rebuilt (workers respawned and
    #: unresolved tasks requeued) before falling back to one-task
    #: isolation pools.  One rebuild recovers the common case — a
    #: single OOM-killed or segfaulted worker — at full parallelism; a
    #: pool that breaks twice has a systematic crasher among its tasks,
    #: and isolation is what attributes it.
    max_pool_rebuilds = 1

    def __init__(self, n_workers: int, deadline=None, telemetry=None,
                 heartbeat_interval_s: float | None = None,
                 stall_after_s: float | None = None):
        super().__init__()
        self.n_workers = n_workers
        self.deadline = deadline
        self.pool_rebuilds = 0  # broken-pool recoveries this batch
        # Heartbeats ride on telemetry: without an enabled session there
        # is nowhere to report liveness, so no queue/monitor is set up.
        self.telemetry = (telemetry
                          if telemetry is not None and telemetry.enabled
                          else None)
        self.heartbeat_interval_s = (
            heartbeat_interval_s if heartbeat_interval_s is not None
            else _heartbeat.HEARTBEAT_INTERVAL_S)
        self.stall_after_s = stall_after_s
        self.monitor: HeartbeatMonitor | None = None
        self._tasks: dict = {}
        self._pending: dict = {}  # future -> run index
        self._completions = queue.SimpleQueue()  # done futures
        self._ready: collections.deque = collections.deque()
        self._salvage: list = []      # indexes waiting for an isolation pool
        self._isolation: ProcessPoolExecutor | None = None
        self._rebuilds_left = self.max_pool_rebuilds
        self._pool: ProcessPoolExecutor | None = None
        self._ctx = None
        self._initargs = ()

    def _start_heartbeats(self) -> tuple:
        """Arm the heartbeat channel; returns the worker initargs."""
        if self.telemetry is None:
            return ()
        beat_queue = self._ctx.Queue(maxsize=_HEARTBEAT_QUEUE_SIZE)
        self.monitor = HeartbeatMonitor(self.telemetry, beat_queue,
                                        stall_after_s=self.stall_after_s)
        self.monitor.start()
        return ((beat_queue, self.heartbeat_interval_s),)

    def _make_pool(self, n_tasks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.n_workers, n_tasks)),
            mp_context=self._ctx, initializer=_worker_init,
            initargs=self._initargs)

    def _submit(self, index: int) -> None:
        worker_fn, args = self._tasks[index]
        future = self._pool.submit(worker_fn, *args)
        self._pending[future] = index
        # Runs on the pool's manager thread (or here, for a revoke).
        future.add_done_callback(self._completions.put)

    def _revoke(self, floor: int | None) -> list:
        """Cancel unstarted futures above *floor*; the revoked indexes."""
        revoked = []
        for future, index in list(self._pending.items()):
            if floor is not None and index <= floor:
                continue  # needed below the divergence cutoff
            if future.cancel():
                revoked.append(index)
                del self._pending[future]
        return revoked

    def start(self, tasks: dict) -> None:
        self._tasks = tasks
        if not tasks:
            return
        self._ctx = _mp_context()
        self._initargs = self._start_heartbeats()
        self._pool = self._make_pool(len(tasks))
        # Submission order == index order: FIFO starts are the
        # invariant early cancellation relies on.
        for index in sorted(tasks):
            self._submit(index)

    def cancel(self, floor: int | None = None) -> None:
        super().cancel(floor)
        self.cancelled_count += len(self._revoke(floor))

    def next_result(self):
        while True:
            if self._ready:
                return self._ready.popleft()
            if self._salvage:
                return self._salvage_next()
            if not self._pending:
                return None
            done = self._wait()
            if not done:
                # Session deadline: stop waiting; running workers hit
                # their own deadline poll, close() abandons them.
                self.expired = True
                return None
            unresolved = []
            for future in done:
                # Skip revoked futures and those of a broken pool.
                index = self._pending.pop(future, None)
                if index is None or future.cancelled():
                    continue
                exc = future.exception()
                if exc is not None:
                    if isinstance(exc, BrokenExecutor):
                        unresolved.append(index)
                        continue
                    raise exc
                self._ready.append((index, future.result()))
            if unresolved:
                self._recover(unresolved)

    def _wait(self) -> list:
        """Block until a future completes or the deadline passes; then
        take every completion already queued."""
        completions = self._completions
        timeout = None
        if self.deadline is not None:
            timeout = max(0.0, self.deadline - time.monotonic())
        try:
            done = [completions.get(timeout=timeout)]
        except queue.Empty:
            return []
        while not completions.empty():
            done.append(completions.get_nowait())
        return done

    def _recover(self, unresolved: list) -> None:
        """The pool broke: rebuild once, then fall back to isolation.

        Every in-flight future is doomed with the pool.  Cancellation is
        ignored from here on purpose: runs below a folded divergence
        must complete for the truncated verdict to stay bit-identical
        to the serial path.
        """
        unresolved.extend(self._pending.values())
        self._pending.clear()
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self._rebuilds_left > 0:
            self._rebuilds_left -= 1
            self.pool_rebuilds += 1
            if self.telemetry is not None:
                self.telemetry.event("pool_rebuilt",
                                     requeued=len(unresolved),
                                     rebuilds_left=self._rebuilds_left)
                self.telemetry.registry.counter("pool_rebuilds").inc()
            self._pool = self._make_pool(len(unresolved))
            for index in sorted(unresolved):
                self._submit(index)
        else:
            self._salvage = sorted(unresolved)

    def _salvage_next(self):
        """Retry one unresolved task alone in a single-worker pool."""
        index = self._salvage.pop(0)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.expired = True
            self._salvage = []
            return None
        self._isolation = self._make_pool(1)
        value = _run_isolated(self._tasks[index], self._isolation,
                              self.deadline)
        self._isolation = None
        if value is _EXPIRED:
            self.expired = True
            self._salvage = []
            return None
        return index, value

    def close(self) -> None:
        if self.aborted:
            # Never wait on a possibly-stuck worker the caller is
            # escaping (a shutdown signal, a failing fold).
            for pool in (self._pool, self._isolation):
                if pool is not None:
                    _kill_workers(pool)
        elif self._pool is not None:
            # Normal finish: reap workers (forked workers inherit
            # parent fds).  Expiry: abandon them.
            self._pool.shutdown(wait=not self.expired, cancel_futures=True)
        self._pool = self._isolation = None
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
