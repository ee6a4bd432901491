"""The socket backend: a worker hub and the coordinator transport.

:class:`WorkerHub` is the parent-side rendezvous point: an asyncio
server on its own daemon thread that ``repro worker`` processes connect
to (frames in :mod:`repro.core.engine.wire`).  It owns the fleet —
who is connected, who is busy — and, one batch at a time, dispatches
task descriptors to idle workers in index order (one outstanding run
per worker, so start order stays FIFO and early cancellation keeps the
same bit-identity argument as the local pool).

Delivery is **at-least-once**: a worker that disconnects mid-run (the
SIGKILL analog of a pool worker dying) gets its unacknowledged index
requeued to the surviving fleet; an index whose second attempt also
dies is reported :data:`~repro.core.engine.executors.CRASHED`, exactly
like the pool's two-tier recovery attributing a systematic crasher.
Worker heartbeat frames feed the same
:class:`~repro.core.engine.heartbeat.HeartbeatMonitor` the pools use —
``worker_heartbeat`` events, ``worker_staleness_seconds`` gauges and
stall detection carry over unchanged.

:class:`SocketTransport` is the coordinator-facing half: it hands the
hub one batch, blocks on results off a thread-safe queue, and maps
cancel/deadline onto batch revocation.  It finds its hub ambiently —
the ``repro serve`` daemon installs one via :func:`set_ambient_hub`;
standalone use sets ``REPRO_SOCKET_PORT`` and points ``repro worker
--connect`` processes at it.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import queue as queue_mod
import threading
import time

from repro.core.engine.executors import CRASHED
from repro.core.engine.heartbeat import HeartbeatMonitor
from repro.core.engine.transports import Transport
from repro.core.engine.wire import WireError, decode_frame, encode_frame
from repro.errors import CheckerError

#: Environment variable naming the hub port for standalone (non-serve)
#: socket sessions: ``repro check --executor socket`` listens here and
#: ``repro worker --connect host:port`` processes dial in.
SOCKET_PORT_ENV_VAR = "REPRO_SOCKET_PORT"

#: Attempts per run index before the hub gives up and reports CRASHED —
#: the socket analog of the pool's rebuild-once-then-attribute policy:
#: one worker loss is bad luck and requeues; losing the same index
#: twice marks the run itself as the crasher.
MAX_ATTEMPTS = 2

#: Per-connection line limit.  Frames carry compressed replay logs and
#: run records as base64 blobs; 64 MiB is far above any observed frame.
_FRAME_LIMIT = 64 * 1024 * 1024

_DONE = object()  # results-queue sentinel: the batch is fully resolved


class WorkerHub:
    """The fleet side of the socket backend (one per daemon/session).

    Thread model: the hub's asyncio loop runs on a private daemon
    thread and owns all connection and batch state; everything public
    (:meth:`begin_batch`, :meth:`cancel_batch`, :meth:`end_batch`,
    :meth:`reply`) marshals onto that loop and is safe to call from any
    thread.  Results cross back on a plain thread-safe queue.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 telemetry=None):
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.telemetry = (telemetry
                          if telemetry is not None and telemetry.enabled
                          else None)
        #: Session/campaign submissions from ``client`` connections,
        #: drained by the serve daemon: ``(frame, conn_id)`` pairs.
        self.submissions: queue_mod.Queue = queue_mod.Queue()
        self.loop: asyncio.AbstractEventLoop | None = None
        self.workers: dict = {}   # conn id -> connection state
        self._batch: dict | None = None
        self._generation = 0
        self._next_conn_id = 0
        self._server = None
        self._stall_task = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle (any thread) ----------------------------------------------

    def start(self) -> "WorkerHub":
        if self._thread is not None:
            return self
        ready = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(ready,),
                                        name="repro-socket-hub", daemon=True)
        self._thread.start()
        ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise CheckerError(
                f"socket hub failed to listen on "
                f"{self.host}:{self.port}: {self._startup_error}")
        if self.loop is None:
            raise CheckerError("socket hub failed to start")
        return self

    def stop(self) -> None:
        loop, self.loop = self.loop, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._serve_conn, self.host, self.port,
                                     limit=_FRAME_LIMIT))
            self.port = self._server.sockets[0].getsockname()[1]
            self.loop = loop
        except BaseException as exc:  # bind failure: surface in start()
            self._startup_error = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            for conn in list(self.workers.values()):
                try:
                    conn["writer"].close()
                except Exception:
                    pass
            loop.close()

    def _call(self, coro):
        """Run *coro* on the hub loop; returns a concurrent future."""
        if self.loop is None:
            raise CheckerError("socket hub is not running")
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    # -- batch API (any thread; resolves on the hub loop) --------------------

    def begin_batch(self, tasks: dict, deadline=None, monitor=None,
                    telemetry=None):
        """Submit one index-keyed descriptor batch; returns the
        thread-safe results queue (``(index, value)`` then ``_DONE``)."""
        return self._call(
            self._begin_batch(tasks, deadline, monitor, telemetry))

    def cancel_batch(self, floor=None):
        """Revoke undispatched indexes above *floor*; returns the count."""
        return self._call(self._cancel_batch(floor))

    def end_batch(self):
        return self._call(self._end_batch())

    def reply(self, conn_id: int, frame: dict) -> None:
        """Send one frame to a client connection (serve's verdict path)."""
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._reply, conn_id, frame)

    def n_workers(self) -> int:
        return sum(1 for c in self.workers.values()
                   if c.get("role") == "worker")

    # -- hub-loop internals --------------------------------------------------

    async def _begin_batch(self, tasks, deadline, monitor, telemetry):
        if self._batch is not None:
            raise CheckerError("socket hub already has a batch in flight")
        self._generation += 1
        self._batch = {
            "gen": self._generation,
            "tasks": tasks,
            "pending": sorted(tasks),
            "unacked": {},        # index -> conn id
            "attempts": {},       # index -> dispatch count
            "delivered": set(),
            "deadline": deadline,
            "results": queue_mod.Queue(),
            "monitor": monitor,
            "tele": telemetry,
            "cancelled": False,
            "floor": None,
            "done": False,
        }
        if monitor is not None:
            self._stall_task = asyncio.get_running_loop().create_task(
                self._stall_loop(monitor))
        self._dispatch()
        return self._batch["results"]

    async def _cancel_batch(self, floor):
        batch = self._batch
        if batch is None:
            return 0
        batch["cancelled"] = True
        batch["floor"] = floor
        keep = [i for i in batch["pending"]
                if floor is not None and i <= floor]
        revoked = len(batch["pending"]) - len(keep)
        batch["pending"] = keep
        self._check_done()
        return revoked

    async def _end_batch(self):
        self._batch = None
        if self._stall_task is not None:
            self._stall_task.cancel()
            self._stall_task = None

    async def _stall_loop(self, monitor):
        while True:
            await asyncio.sleep(monitor.poll_s)
            monitor.check_stalls()

    def _dispatch(self) -> None:
        """Hand pending indexes, lowest first, to idle workers."""
        batch = self._batch
        if batch is None or batch["done"]:
            return
        for conn_id, conn in self.workers.items():
            if not batch["pending"]:
                break
            if conn.get("role") != "worker" or conn["index"] is not None:
                continue
            index = batch["pending"].pop(0)
            batch["attempts"][index] = batch["attempts"].get(index, 0) + 1
            batch["unacked"][index] = conn_id
            conn["index"] = index
            task = dict(batch["tasks"][index])
            if batch["deadline"] is not None:
                # Absolute monotonic deadlines do not travel between
                # machines; stamp the *remaining* budget at dispatch.
                task["deadline_s"] = max(
                    0.0, batch["deadline"] - time.monotonic())
            self._send(conn, {"type": "run", "gen": batch["gen"],
                              "index": index, "task": task})
        self._check_done()

    def _check_done(self) -> None:
        batch = self._batch
        if (batch is not None and not batch["done"]
                and not batch["pending"] and not batch["unacked"]):
            batch["done"] = True
            batch["results"].put(_DONE)

    def _send(self, conn, frame: dict) -> None:
        try:
            conn["writer"].write(encode_frame(frame))
        except Exception:
            pass  # a dying connection is handled by its reader loop

    def _reply(self, conn_id: int, frame: dict) -> None:
        conn = self.workers.get(conn_id)
        if conn is not None:
            self._send(conn, frame)

    def _event(self, name: str, **fields) -> None:
        batch = self._batch
        tele = (batch["tele"] if batch is not None and batch["tele"]
                else self.telemetry)
        if tele:
            tele.event(name, **fields)

    # -- connection handling -------------------------------------------------

    async def _serve_conn(self, reader, writer) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        conn = {"writer": writer, "role": None, "pid": None, "index": None}
        try:
            hello = await self._read_frame(reader)
            if hello is None or hello["type"] != "hello":
                return
            conn["role"] = hello.get("role", "worker")
            conn["pid"] = hello.get("pid")
            self.workers[conn_id] = conn
            self._send(conn, {"type": "welcome", "server": "repro"})
            if conn["role"] == "worker":
                self._event("worker_connected", worker=conn["pid"],
                            fleet=self.n_workers())
                self._dispatch()
            while True:
                frame = await self._read_frame(reader)
                if frame is None or frame["type"] == "bye":
                    return
                self._handle_frame(conn_id, conn, frame)
        finally:
            self.workers.pop(conn_id, None)
            if conn["role"] == "worker":
                self._worker_lost(conn)
            try:
                writer.close()
            except Exception:
                pass

    async def _read_frame(self, reader):
        try:
            line = await reader.readline()
        except (ConnectionError, OSError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        try:
            return decode_frame(line)
        except WireError:
            return None  # a garbled peer is treated as a disconnect

    def _handle_frame(self, conn_id: int, conn: dict, frame: dict) -> None:
        kind = frame["type"]
        if kind == "result":
            self._handle_result(conn, frame)
        elif kind == "heartbeat":
            batch = self._batch
            if batch is not None and batch["monitor"] is not None:
                batch["monitor"].observe_beat(frame.get("beat") or {})
        elif kind == "submit":
            self.submissions.put((frame, conn_id))
        # unknown types are ignored: forward compatibility within v1

    def _handle_result(self, conn: dict, frame: dict) -> None:
        from repro.core.engine.wire import unpack_blob

        conn["index"] = None
        batch = self._batch
        if batch is None or frame.get("gen") != batch["gen"]:
            return  # a stale result from a previous (abandoned) batch
        index = frame.get("index")
        if batch["unacked"].pop(index, None) is None:
            return  # duplicate delivery after a requeue: first one won
        if index not in batch["delivered"]:
            batch["delivered"].add(index)
            batch["results"].put((index, unpack_blob(frame["payload"])))
        self._dispatch()

    def _worker_lost(self, conn: dict) -> None:
        """A worker connection dropped: requeue or attribute its run."""
        index = conn["index"]
        conn["index"] = None
        if conn["pid"] is not None:
            self._event("worker_lost", worker=conn["pid"],
                        fleet=self.n_workers(), run=index)
        batch = self._batch
        if batch is None or index is None:
            return
        if batch["unacked"].pop(index, None) is None:
            return
        if batch["cancelled"] and (batch["floor"] is None
                                   or index > batch["floor"]):
            # Revoked territory: the judge's truncation discards this
            # index anyway, so the lost run needs no replacement.
            self._check_done()
            return
        if batch["attempts"].get(index, 0) >= MAX_ATTEMPTS:
            # Two workers died on the same index: the run is the
            # crasher (the pool's isolation tier reaches the same
            # verdict locally).
            batch["delivered"].add(index)
            batch["results"].put((index, CRASHED))
            self._check_done()
        else:
            bisect.insort(batch["pending"], index)
            self._event("run_requeued", run=index,
                        attempts=batch["attempts"].get(index, 0))
            self._dispatch()


# -- ambient hub resolution ---------------------------------------------------

_AMBIENT_HUB: WorkerHub | None = None


def set_ambient_hub(hub: WorkerHub | None) -> None:
    """Install the process-wide hub (the serve daemon's, or a test's)."""
    global _AMBIENT_HUB
    _AMBIENT_HUB = hub


def ambient_hub() -> WorkerHub:
    """The process-wide hub, starting one on ``REPRO_SOCKET_PORT``
    for standalone socket sessions."""
    global _AMBIENT_HUB
    if _AMBIENT_HUB is not None:
        return _AMBIENT_HUB
    port = os.environ.get(SOCKET_PORT_ENV_VAR, "").strip()
    if not port:
        raise CheckerError(
            "the socket executor needs a worker hub: run under "
            "`repro serve`, or set REPRO_SOCKET_PORT and start "
            "`repro worker --connect HOST:PORT` processes")
    try:
        port_no = int(port)
    except ValueError:
        raise CheckerError(
            f"{SOCKET_PORT_ENV_VAR}={port!r} is not a port number")
    _AMBIENT_HUB = WorkerHub(port=port_no).start()
    return _AMBIENT_HUB


class SocketTransport(Transport):
    """The coordinator's view of the worker fleet.

    One batch per transport, in plain blocking calls: ``start`` hands
    the hub the descriptor map and waits for the hub's thread-safe
    results queue, ``next_result`` blocks on that queue up to the
    session deadline (so a silent fleet cannot outlast it), ``cancel``
    revokes undispatched indexes above the floor.  Each call into the
    hub waits on the ``concurrent.futures`` future its loop resolves.
    The hub outlives the transport — ``close`` ends the batch, not the
    fleet.
    """

    name = "socket"

    def __init__(self, n_workers: int = 1, deadline=None, telemetry=None,
                 hub: WorkerHub | None = None,
                 stall_after_s: float | None = None):
        super().__init__()
        self.n_workers = n_workers  # advisory: the fleet sizes itself
        self.deadline = deadline
        self.telemetry = (telemetry
                          if telemetry is not None and telemetry.enabled
                          else None)
        self.hub = hub if hub is not None else ambient_hub()
        self.stall_after_s = stall_after_s
        self.monitor: HeartbeatMonitor | None = None
        self._results: queue_mod.Queue | None = None
        self._finished = False

    def start(self, tasks: dict) -> None:
        if not tasks:
            self._finished = True
            return
        if self.telemetry is not None:
            # Queue-less monitor: the hub feeds decoded heartbeat
            # frames straight into observe_beat / check_stalls.
            self.monitor = HeartbeatMonitor(self.telemetry, None,
                                            stall_after_s=self.stall_after_s)
        self._results = self.hub.begin_batch(
            tasks, deadline=self.deadline, monitor=self.monitor,
            telemetry=self.telemetry).result()

    def next_result(self):
        if self._finished or self._results is None:
            return None
        timeout = None
        if self.deadline is not None:
            timeout = max(0.0, self.deadline - time.monotonic())
        try:
            item = self._results.get(timeout=timeout)
        except queue_mod.Empty:
            self.expired = True
            item = _DONE
        if item is _DONE:
            self._finished = True
            return None
        return item

    def cancel(self, floor: int | None = None) -> None:
        super().cancel(floor)
        self.cancelled_count += self.hub.cancel_batch(floor).result()

    def close(self) -> None:
        try:
            self.hub.end_batch().result()
        except CheckerError:
            pass  # the hub already stopped (daemon shutdown path)
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
