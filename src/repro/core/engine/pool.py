"""The process-pool executor: fan tasks across workers, stream results.

Tasks are submitted in index order (FIFO start order is what makes
early cancellation bit-identical — see :mod:`repro.core.engine.judge`);
``cancel()`` revokes futures that have not started and *drains* the
in-flight ones, so every run with an index below a folded divergence
still completes.  A session deadline is different: expiry abandons
in-flight work (``shutdown(wait=False)``) because a stuck worker must
not hold the parent hostage.  A worker process that dies (segfault
analog, OOM kill, ``os._exit``) breaks the pool; the pool is rebuilt
once at full parallelism, and if it breaks again each unresolved task
is retried in an isolated single-worker pool, so the crasher reveals
itself and every innocent task still completes — never a hung pool.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from repro.core.engine import heartbeat as _heartbeat
from repro.core.engine.executors import CRASHED, _EXPIRED, RunExecutor
from repro.core.engine.heartbeat import _HEARTBEAT_QUEUE_SIZE, HeartbeatMonitor
from repro.core.engine.tasks import _mp_context, _worker_init


def _run_isolated(task, executor, deadline):
    """Run one ``(worker_fn, args)`` task alone in a fresh 1-worker pool.

    Used after a pool break: the parent cannot tell *which* worker died
    (every in-flight future raises ``BrokenProcessPool``), so each
    unresolved task is retried in isolation — the crasher reveals itself
    by breaking its private pool, everything else completes normally.
    The caller builds the pool, *executor*, with its backend's initializer.
    """
    value = _EXPIRED
    worker_fn, args = task
    try:
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
        return value
    finally:
        # Reap the worker unless it is stuck past the deadline — forked
        # workers inherit parent fds (e.g. the journal's lock), so a
        # lingering idle worker must not outlive this call.
        executor.shutdown(wait=value is not _EXPIRED, cancel_futures=True)


class ProcessPoolRunExecutor(RunExecutor):
    """Fan tasks across a process pool, streaming completions.

    A task is a ``(worker_fn, args)`` tuple; everything in *args* must
    be picklable.  *deadline* is an absolute ``time.monotonic()`` value
    (or None): on expiry the stream ends with :attr:`expired` set and
    in-flight work is abandoned.  :meth:`cancel` is gentler — unstarted
    futures are revoked, running ones are drained and still yielded.
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
        self.pool_rebuilds = 0  # broken-pool recoveries this stream
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
        self._pending: dict = {}  # future -> run index

    def _start_heartbeats(self, ctx) -> tuple:
        """Arm the heartbeat channel; returns the worker initargs."""
        if self.telemetry is None:
            return ()
        beat_queue = ctx.Queue(maxsize=_HEARTBEAT_QUEUE_SIZE)
        self.monitor = HeartbeatMonitor(self.telemetry, beat_queue,
                                        stall_after_s=self.stall_after_s)
        self.monitor.start()
        return ((beat_queue, self.heartbeat_interval_s),)

    def cancel(self, floor: int | None = None) -> None:
        super().cancel(floor)
        for future, index in list(self._pending.items()):
            if floor is not None and index <= floor:
                continue  # needed below the divergence cutoff
            if future.cancel():
                self.cancelled_count += 1
                del self._pending[future]

    def _make_pool(self, ctx, n_tasks: int, initargs) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max(1, min(self.n_workers, n_tasks)),
            mp_context=ctx, initializer=_worker_init, initargs=initargs)

    # -- subclass hooks (no-ops on the plain pickle-channel pool) ------------

    def _poll_interval_s(self) -> float | None:
        """Cap on each wait so _on_wait_tick runs at that cadence."""
        return None

    def _on_wait_tick(self) -> None:
        """Called after every wakeup of the wait, timeout or not."""

    def _note_result(self, index: int, value):
        """Observe (and possibly rewrite) a task result before yield."""
        return value

    def _requeue_indexes(self):
        """Indexes to resubmit once the pool drains (reconciliation)."""
        return ()

    def stream(self, tasks: dict):
        indexes = sorted(tasks)
        if not indexes:
            return
        ctx = _mp_context()
        initargs = self._start_heartbeats(ctx)
        executor = self._make_pool(ctx, len(indexes), initargs)
        pending = self._pending
        # One done-callback per submit feeds this queue, so a wakeup costs
        # O(ready), not a waiter on every pending future.  Arrivals no
        # longer in ``pending`` (revoked, or doomed with a broken pool)
        # are skipped.
        completions = queue.SimpleQueue()

        def submit(index):
            worker_fn, args = tasks[index]
            future = executor.submit(worker_fn, *args)
            pending[future] = index
            future.add_done_callback(completions.put)

        rebuilds_left = self.max_pool_rebuilds
        try:
            # Submission order == index order: the pool starts tasks
            # FIFO, the invariant early cancellation relies on.
            for index in indexes:
                submit(index)
            while True:
                if not pending:
                    for index in self._requeue_indexes():
                        submit(index)
                    if not pending:
                        break
                timeout = None
                if self.deadline is not None:
                    timeout = max(0.0, self.deadline - time.monotonic())
                poll_s = self._poll_interval_s()
                if poll_s is not None:
                    timeout = (poll_s if timeout is None
                               else min(timeout, poll_s))
                done = []
                try:
                    done.append(completions.get(timeout=timeout))
                    while True:
                        done.append(completions.get_nowait())
                except queue.Empty:
                    pass
                self._on_wait_tick()
                if not done:
                    if (self.deadline is not None
                            and time.monotonic() >= self.deadline):
                        # Session deadline: stop waiting; running
                        # workers hit their own deadline poll.
                        self.expired = True
                        break
                    continue  # a poll tick, not an expiry
                unresolved = []
                for future in done:
                    index = pending.pop(future, None)
                    if index is None or future.cancelled():
                        continue
                    try:
                        value = future.result()
                    except BrokenExecutor:
                        unresolved.append(index)
                        continue
                    yield index, self._note_result(index, value)
                if not unresolved:
                    continue
                # The pool is dead and every in-flight future is doomed
                # with it.  Cancellation is ignored from here on
                # purpose: runs below a folded divergence must complete
                # for the truncated verdict to stay bit-identical to
                # the serial path.
                unresolved.extend(pending.values())
                pending.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                if rebuilds_left > 0:
                    # First recovery tier: respawn the workers once and
                    # requeue every unresolved task at full
                    # parallelism.  One dead worker (OOM kill, segfault)
                    # costs one rebuild, not a serial crawl through
                    # isolation pools.
                    rebuilds_left -= 1
                    self.pool_rebuilds += 1
                    if self.telemetry is not None:
                        self.telemetry.event("pool_rebuilt",
                                             requeued=len(unresolved),
                                             rebuilds_left=rebuilds_left)
                        self.telemetry.registry.counter("pool_rebuilds").inc()
                    executor = self._make_pool(ctx, len(unresolved), initargs)
                    for index in sorted(unresolved):
                        submit(index)
                    continue
                # Second tier: the rebuilt pool broke too — one of the
                # remaining tasks kills any worker it touches.  Salvage
                # each one in isolation: the crasher reveals itself by
                # breaking its private pool, the innocents complete.
                salvage_queue = sorted(unresolved)
                while salvage_queue and not self.expired:
                    for index in salvage_queue:
                        if (self.deadline is not None
                                and time.monotonic() >= self.deadline):
                            self.expired = True
                            break
                        value = _run_isolated(
                            tasks[index], self._make_pool(ctx, 1, initargs),
                            self.deadline)
                        if value is _EXPIRED:
                            self.expired = True
                            break
                        yield index, self._note_result(index, value)
                    else:
                        salvage_queue = sorted(self._requeue_indexes())
                        continue
                    break
                break
        except BaseException:
            # Abnormal exit — a signal raised in this frame, the
            # consumer throwing into the generator, GeneratorExit on an
            # abandoned stream.  Never hang the teardown waiting on a
            # possibly-stuck worker the caller is trying to escape.
            self.expired = True
            raise
        finally:
            # On a normal finish, wait for workers to exit (forked
            # workers inherit parent fds — see _worker_init); only an
            # expired deadline / abnormal exit justifies abandoning a
            # possibly-stuck worker.
            executor.shutdown(wait=not self.expired, cancel_futures=True)
            if self.monitor is not None:
                self.monitor.stop()
                self.monitor = None
