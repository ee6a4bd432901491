"""Transports: how the coordinator reaches workers, local or remote.

A :class:`Transport` is the coordinator's only view of execution —
submit a batch, await results in completion order, cancel with a
divergence floor, close.  Three families implement it:

* :class:`ExecutorTransport` adapts any legacy
  :class:`~repro.core.engine.executors.RunExecutor` (serial,
  process-pool, process-pool-shmem) by driving its synchronous
  ``stream()`` generator inline on the coordinator's private loop.
  Inline is deliberate: nothing else is scheduled during a local
  session, and a blocking ``next()`` in the main thread keeps the
  SIGINT/SIGTERM contract exactly as it was — the signal raises inside
  the generator frame, whose ``finally`` tears the pool down.
* :class:`AsyncioLocalTransport` (``asyncio-local``) is the natively
  asynchronous process pool: same worker functions, same FIFO
  submission order, same two-tier crash recovery and verdicts
  bit-identical to ``process-pool`` — but the scheduling loop awaits
  futures instead of blocking on them, so it composes with transports
  that live on the loop (the serve daemon's socket hub).
* :class:`~repro.core.engine.sockets.SocketTransport` (``socket``)
  dispatches the same task descriptors to ``repro worker`` processes
  over newline-delimited JSON frames — see docs/distributed.md.
"""

from __future__ import annotations

import asyncio
import collections
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.core.engine import heartbeat as _heartbeat
from repro.core.engine.executors import CRASHED, _EXPIRED
from repro.core.engine.heartbeat import _HEARTBEAT_QUEUE_SIZE, HeartbeatMonitor
from repro.core.engine.pool import _run_isolated
from repro.core.engine.tasks import _mp_context, _worker_init


class Transport:
    """The coordinator's execution interface (async counterpart of
    :class:`~repro.core.engine.executors.RunExecutor`)."""

    name = "abstract"

    def __init__(self):
        self.cancelled = False    # cancel() was issued mid-stream
        self.cancelled_count = 0  # tasks revoked before they started
        self.expired = False      # the deadline cut the stream short

    async def start(self, tasks: dict) -> None:
        """Submit the whole batch, in index order."""
        raise NotImplementedError

    async def next_result(self):
        """The next ``(index, value)`` in completion order; None at end."""
        raise NotImplementedError

    async def cancel(self, floor: int | None = None) -> None:
        """Revoke unstarted work above *floor*; drain the rest."""
        self.cancelled = True

    async def close(self) -> None:
        """Tear down workers/connections; safe to call once, always."""

    def salvaged_checkpoints(self, index: int) -> int:
        return 0


class ExecutorTransport(Transport):
    """Adapter: a legacy ``RunExecutor`` behind the Transport interface.

    All state (cancelled/expired/counts) lives on the wrapped executor
    so backend-specific semantics — the shmem reconciliation, the
    pool's rebuild accounting — stay exactly where they were.
    """

    def __init__(self, executor):
        self.executor = executor
        self._gen = None

    @property
    def name(self):
        return self.executor.name

    @property
    def cancelled(self):
        return self.executor.cancelled

    @property
    def cancelled_count(self):
        return self.executor.cancelled_count

    @property
    def expired(self):
        return self.executor.expired

    async def start(self, tasks: dict) -> None:
        self._gen = self.executor.stream(tasks)

    async def next_result(self):
        try:
            return next(self._gen)
        except StopIteration:
            return None

    async def cancel(self, floor: int | None = None) -> None:
        self.executor.cancel(floor=floor)

    async def close(self) -> None:
        gen, self._gen = self._gen, None
        if gen is not None:
            # Runs the generator's finally (pool shutdown) if the
            # stream was abandoned mid-way; a no-op when exhausted.
            gen.close()

    def salvaged_checkpoints(self, index: int) -> int:
        return self.executor.salvaged_checkpoints(index)


class AsyncioLocalTransport(Transport):
    """A process pool scheduled with ``asyncio`` instead of blocking waits.

    Semantics mirror :class:`~repro.core.engine.pool.
    ProcessPoolRunExecutor` exactly — FIFO submission in index order,
    cancel-with-floor revoking only unstarted futures, deadline expiry
    abandoning in-flight work, one pool rebuild then per-task isolation
    salvage — so verdicts are bit-identical; only the waiting is async.
    """

    name = "asyncio-local"
    max_pool_rebuilds = 1

    def __init__(self, n_workers: int, deadline=None, telemetry=None,
                 heartbeat_interval_s: float | None = None,
                 stall_after_s: float | None = None):
        super().__init__()
        self.n_workers = n_workers
        self.deadline = deadline
        self.pool_rebuilds = 0
        self.telemetry = (telemetry
                          if telemetry is not None and telemetry.enabled
                          else None)
        self.heartbeat_interval_s = (
            heartbeat_interval_s if heartbeat_interval_s is not None
            else _heartbeat.HEARTBEAT_INTERVAL_S)
        self.stall_after_s = stall_after_s
        self.monitor: HeartbeatMonitor | None = None
        self._tasks: dict = {}
        self._pending: dict = {}  # asyncio future -> (concurrent future, index)
        self._completions = asyncio.Queue()  # done futures, see _next
        self._ready: collections.deque = collections.deque()
        self._salvage: list = []
        self._rebuilds_left = self.max_pool_rebuilds
        self._pool: ProcessPoolExecutor | None = None
        self._ctx = None
        self._initargs = ()

    def _start_heartbeats(self) -> tuple:
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
        cf = self._pool.submit(worker_fn, *args)
        af = asyncio.wrap_future(cf)
        self._pending[af] = (cf, index)
        af.add_done_callback(self._completions.put_nowait)

    async def start(self, tasks: dict) -> None:
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

    async def cancel(self, floor: int | None = None) -> None:
        await super().cancel(floor)
        for af, (cf, index) in list(self._pending.items()):
            if floor is not None and index <= floor:
                continue
            if cf.cancel():
                self.cancelled_count += 1
                del self._pending[af]

    async def next_result(self):
        try:
            return await self._next()
        except asyncio.CancelledError:
            raise
        except BaseException:
            # A signal raised at the await point: never let close()
            # block on a possibly-stuck worker the caller is escaping.
            self.expired = True
            raise

    async def _next(self):
        while True:
            if self._ready:
                return self._ready.popleft()
            if self._salvage:
                return await self._salvage_next()
            if not self._pending:
                return None
            completions = self._completions
            done = []
            if completions.empty():
                timeout = None
                if self.deadline is not None:
                    timeout = max(0.0, self.deadline - time.monotonic())
                try:
                    done.append(await asyncio.wait_for(completions.get(),
                                                       timeout))
                except asyncio.TimeoutError:
                    # Deadline expiry: stop waiting; running workers hit
                    # their own deadline poll, close() abandons them.
                    self.expired = True
                    return None
            while not completions.empty():
                done.append(completions.get_nowait())
            unresolved = []
            for af in done:
                # Skip revoked futures and those of a broken pool.
                entry = self._pending.pop(af, None)
                if entry is None:
                    continue
                cf, index = entry
                if cf.cancelled():
                    continue
                exc = cf.exception()
                if exc is not None:
                    if isinstance(exc, BrokenExecutor):
                        unresolved.append(index)
                        continue
                    raise exc
                self._ready.append((index, cf.result()))
            if unresolved:
                self._recover(unresolved)

    def _recover(self, unresolved: list) -> None:
        """The pool broke: rebuild once, then fall back to isolation."""
        unresolved.extend(index for _cf, index in self._pending.values())
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

    async def _salvage_next(self):
        """Retry one unresolved task alone in a single-worker pool."""
        index = self._salvage.pop(0)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.expired = True
            self._salvage = []
            return None
        value = await asyncio.to_thread(_run_isolated, self._tasks[index],
                                        self._make_pool(1), self.deadline)
        if value is _EXPIRED:
            self.expired = True
            self._salvage = []
            return None
        return index, value

    async def close(self) -> None:
        if self._pool is not None:
            # Normal finish: reap workers (forked workers inherit
            # parent fds).  Expiry/abnormal exit: abandon them.
            self._pool.shutdown(wait=not self.expired, cancel_futures=True)
            self._pool = None
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
