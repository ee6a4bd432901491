"""The socket backend: a worker hub and the coordinator transport.

:class:`WorkerHub` is the parent-side rendezvous point that ``repro
worker`` processes connect to (frames in :mod:`repro.core.engine.wire`):
one listening socket, one accept thread, and one blocking reader thread
per connection.  It owns the fleet — who is connected, who is busy —
and, one batch at a time, dispatches task descriptors to idle workers
in index order (one outstanding run per worker, so start order stays
FIFO and early cancellation keeps the same bit-identity argument as the
local pool).

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

import bisect
import os
import queue as queue_mod
import socket
import threading
import time

from repro.core.engine.coordinator import Transport
from repro.core.engine.executors import CRASHED
from repro.core.engine.heartbeat import HeartbeatMonitor
from repro.core.engine.wire import (WireError, decode_frame, encode_frame,
                                    unpack_blob)
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


class _Conn:
    """A blocking framed connection — the hub's side of every peer, and
    the ``repro worker`` / ``repro submit`` side of the hub."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self._wlock = threading.Lock()  # e.g. heartbeats vs. results

    def send(self, frame: dict) -> None:
        with self._wlock:
            self.sock.sendall(encode_frame(frame))

    def recv(self) -> dict | None:
        """The next frame, or None at EOF.  A garbled line or one over
        :data:`_FRAME_LIMIT` raises :class:`WireError`."""
        line = self.rfile.readline(_FRAME_LIMIT + 1)
        if not line:
            return None
        if len(line) > _FRAME_LIMIT:
            raise WireError(f"frame exceeds {_FRAME_LIMIT} bytes")
        return decode_frame(line)

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class WorkerHub:
    """The fleet side of the socket backend (one per daemon/session).

    Thread model: an accept thread and one reader thread per
    connection; all fleet and batch state sits behind one lock, so every
    public method is a plain call, safe from any thread.  Results cross
    to the coordinator on a thread-safe queue.
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
        self.peers: dict = {}  # conn id -> state, hello'd or not
        self._lock = threading.Lock()
        self._batch: dict | None = None
        self._generation = 0
        self._next_conn_id = 0
        self._listener: socket.socket | None = None
        self._threads: list = []  # the accept thread, then the readers

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerHub":
        if self._listener is not None:
            return self
        try:
            self._listener = socket.create_server(
                (self.host, self.port),
                family=socket.AF_INET6 if ":" in self.host
                else socket.AF_INET)
        except OSError as exc:
            raise CheckerError(f"socket hub failed to listen on "
                               f"{self.host}:{self.port}: {exc}") from exc
        self.port = self._listener.getsockname()[1]
        self._spawn(self._accept_loop, "repro-socket-hub")
        return self

    def stop(self) -> None:
        """Close the listener and every connection; join every thread."""
        with self._lock:
            listener, self._listener = self._listener, None
            if listener is None:
                return
            threads = list(self._threads)
            # Under the lock: a reader closes its socket only after
            # leaving `peers`, so none of these is closed yet.
            for sock in [listener] + [peer["conn"].sock
                                      for peer in self.peers.values()]:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes accept/recv
                except OSError:
                    pass  # reset by the peer
        listener.close()
        for thread in threads:
            thread.join(timeout=5.0)

    def _spawn(self, target, name: str, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()

    def _accept_loop(self) -> None:
        listener = self._listener
        while True:
            try:
                sock, _addr = listener.accept()
            except OSError:
                if self._listener is None:
                    return  # stop() closed the listener
                time.sleep(0.1)  # e.g. out of fds: retry without spinning
                continue
            with self._lock:
                if self._listener is None:
                    sock.close()
                    return
                conn_id = self._next_conn_id
                self._next_conn_id += 1
                peer = {"conn": _Conn(sock), "role": None, "pid": None,
                        "index": None}
                self.peers[conn_id] = peer
                self._spawn(self._serve_conn, f"repro-socket-conn-{conn_id}",
                            conn_id, peer)

    # -- batch API (any thread) ----------------------------------------------

    def begin_batch(self, tasks: dict, deadline=None, monitor=None,
                    telemetry=None):
        """Submit one index-keyed descriptor batch; returns the
        thread-safe results queue (``(index, value)`` then ``_DONE``)."""
        with self._lock:
            if self._listener is None:
                raise CheckerError("socket hub is not running")
            if self._batch is not None:
                raise CheckerError(
                    "socket hub already has a batch in flight")
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
            self._dispatch()
            return self._batch["results"]

    def cancel_batch(self, floor=None) -> int:
        """Revoke undispatched indexes above *floor*; returns the count."""
        with self._lock:
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

    def end_batch(self) -> None:
        with self._lock:
            self._batch = None

    def reply(self, conn_id: int, frame: dict) -> None:
        """Send one frame to a client connection (serve's verdict path)."""
        peer = self.peers.get(conn_id)
        if peer is not None:  # sent without the lock: reports can be large
            self._send(peer["conn"], frame)

    def n_workers(self) -> int:
        return sum(1 for peer in list(self.peers.values())
                   if peer["role"] == "worker")

    # -- internals (called with the lock held) -------------------------------

    def _dispatch(self) -> None:
        """Hand pending indexes, lowest first, to idle workers."""
        batch = self._batch
        if batch is None or batch["done"]:
            return
        for conn_id, peer in self.peers.items():
            if not batch["pending"]:
                break
            if peer["role"] != "worker" or peer["index"] is not None:
                continue
            index = batch["pending"].pop(0)
            batch["attempts"][index] = batch["attempts"].get(index, 0) + 1
            batch["unacked"][index] = conn_id
            peer["index"] = index
            task = dict(batch["tasks"][index])
            if batch["deadline"] is not None:
                # Absolute monotonic deadlines do not travel between
                # machines; stamp the *remaining* budget at dispatch.
                task["deadline_s"] = max(
                    0.0, batch["deadline"] - time.monotonic())
            # A worker holds at most one run frame, so sending it under
            # the lock cannot back up behind the worker's reads.
            self._send(peer["conn"], {"type": "run", "gen": batch["gen"],
                                      "index": index, "task": task})
        self._check_done()

    def _check_done(self) -> None:
        batch = self._batch
        if (batch is not None and not batch["done"]
                and not batch["pending"] and not batch["unacked"]):
            batch["done"] = True
            batch["results"].put(_DONE)

    @staticmethod
    def _send(conn: _Conn, frame: dict) -> None:
        try:
            conn.send(frame)
        except (OSError, ValueError):
            pass  # a dying connection is handled by its reader thread

    def _event(self, name: str, **fields) -> None:
        batch = self._batch
        tele = (batch["tele"] if batch is not None and batch["tele"]
                else self.telemetry)
        if tele:
            tele.event(name, **fields)

    # -- connection handling (one reader thread per connection) --------------

    def _serve_conn(self, conn_id: int, peer: dict) -> None:
        conn = peer["conn"]
        try:
            hello = conn.recv()
            if hello is None or hello["type"] != "hello":
                return
            self._send(conn, {"type": "welcome", "server": "repro"})
            with self._lock:
                peer["role"] = hello.get("role", "worker")
                peer["pid"] = hello.get("pid")
                if peer["role"] == "worker":
                    self._event("worker_connected", worker=peer["pid"],
                                fleet=self.n_workers())
                    self._dispatch()
            while (frame := conn.recv()) is not None \
                    and frame["type"] != "bye":
                self._handle_frame(conn_id, peer, frame)
        except (OSError, ValueError, WireError):
            pass  # a reset, closed, garbled or over-long peer: drop it
        finally:
            with self._lock:
                self.peers.pop(conn_id, None)
                if peer["role"] == "worker":
                    self._worker_lost(peer)
            conn.close()

    def _handle_frame(self, conn_id: int, peer: dict, frame: dict) -> None:
        kind = frame["type"]
        if kind == "result":
            # Unpacked first: a garbled payload drops the worker before
            # its run is marked answered, so the run is requeued.
            value = unpack_blob(frame.get("payload", ""))
            with self._lock:
                self._handle_result(peer, frame, value)
        elif kind == "heartbeat":
            batch = self._batch  # observed on the monitor's own thread
            if batch is not None and batch["monitor"] is not None:
                batch["monitor"].queue.put(frame.get("beat") or {})
        elif kind == "submit":
            self.submissions.put((frame, conn_id))
        # unknown types are ignored: forward compatibility within v1

    def _handle_result(self, peer: dict, frame: dict, value) -> None:
        peer["index"] = None
        batch = self._batch
        if batch is None or frame.get("gen") != batch["gen"]:
            return  # a stale result from a previous (abandoned) batch
        index = frame.get("index")
        if batch["unacked"].pop(index, None) is None:
            return  # duplicate delivery after a requeue: first one won
        if index not in batch["delivered"]:
            batch["delivered"].add(index)
            batch["results"].put((index, value))
        self._dispatch()

    def _worker_lost(self, peer: dict) -> None:
        """A worker connection dropped: requeue or attribute its run."""
        index = peer["index"]
        peer["index"] = None
        if peer["pid"] is not None:
            self._event("worker_lost", worker=peer["pid"],
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
    the hub the descriptor map and gets back the hub's thread-safe
    results queue, ``next_result`` blocks on that queue up to the
    session deadline (so a silent fleet cannot outlast it), ``cancel``
    revokes undispatched indexes above the floor.  Heartbeat frames
    reach a started :class:`HeartbeatMonitor` through its queue, so one
    thread owns the monitor's state, as in the pool.  The hub outlives
    the transport — ``close`` ends the batch, not the fleet.
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
            self.monitor = HeartbeatMonitor(
                self.telemetry, queue_mod.SimpleQueue(),
                stall_after_s=self.stall_after_s)
        self._results = self.hub.begin_batch(
            tasks, deadline=self.deadline, monitor=self.monitor,
            telemetry=self.telemetry)
        if self.monitor is not None:
            self.monitor.start()  # after a refused batch it would leak

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
        self.cancelled_count += self.hub.cancel_batch(floor)

    def close(self) -> None:
        self.hub.end_batch()
        if self.monitor is not None:
            self.monitor.stop()
            self.monitor = None
