"""Worker heartbeats: the live health plane for the process pool.

When the parent session has telemetry enabled, each worker starts a
daemon beat thread that pushes a small liveness record — pid, runs
completed, checkpoints, last-progress timestamp — through a bounded
channel every :data:`HEARTBEAT_INTERVAL_S` seconds.  The parent's
:class:`HeartbeatMonitor` consumes beats, emits ``worker_heartbeat``
events (with a derived checkpoints/s rate), maintains the per-worker
``worker_staleness_seconds`` gauge, and emits one ``worker_stalled``
event (+ ``workers_stalled`` counter) when a worker goes silent past
:data:`WORKER_STALL_S` — a SIGSTOPped or livelocked worker becomes
visible *during* the run without perturbing the verdict.  Beats are
fire-and-forget on a bounded queue: a slow or absent monitor never
blocks a worker.

The pool starts the monitor with :meth:`HeartbeatMonitor.start` on
the ``multiprocessing`` queue its workers put beats on; one thread owns
the monitor's state.
"""

from __future__ import annotations

import os
import queue as queue_mod
import threading
import time


def _env_float(name: str, default: float) -> float:
    """A float knob from the environment, falling back on bad values."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


#: Seconds between worker heartbeats (env: REPRO_HEARTBEAT_INTERVAL_S).
HEARTBEAT_INTERVAL_S = _env_float("REPRO_HEARTBEAT_INTERVAL_S", 0.5)
#: Silence (seconds) after which a worker is reported stalled
#: (env: REPRO_WORKER_STALL_S).
WORKER_STALL_S = _env_float("REPRO_WORKER_STALL_S", 5.0)
#: Bound on the in-flight heartbeat queue; overflowing beats are shed.
_HEARTBEAT_QUEUE_SIZE = 1024
#: Put on the beat queue by :meth:`HeartbeatMonitor.stop` to wake the
#: monitor thread at once; beats are dicts, so it never collides.
_STOP = None


#: Worker-local progress state read by the beat thread.  Plain dict
#: mutations are atomic under the GIL; the beat thread only reads.
_HB_STATE = {"runs": 0, "checkpoints": 0, "last_progress": None}


def note_worker_progress(runs: int = 0, checkpoints: int = 0) -> None:
    """Advance this worker's progress counters (beat-thread visible)."""
    _HB_STATE["runs"] += runs
    _HB_STATE["checkpoints"] += checkpoints
    _HB_STATE["last_progress"] = time.monotonic()


def _beat_loop(beat_queue, interval_s: float) -> None:
    """Push one liveness record per interval; never block, never raise.

    Runs as a daemon thread in the worker: a SIGSTOPped or wedged
    worker stops beating (the thread freezes with the process), which
    is exactly the signal the parent's monitor turns into
    ``worker_stalled``.
    """
    while True:
        try:
            beat_queue.put_nowait({
                "pid": os.getpid(), "runs": _HB_STATE["runs"],
                "checkpoints": _HB_STATE["checkpoints"],
                "last_progress": _HB_STATE["last_progress"],
                "mono": time.monotonic()})
        except Exception:
            # Full queue (monitor behind) or torn-down parent: shed the
            # beat — liveness reporting must never stall the worker.
            pass
        time.sleep(interval_s)


class HeartbeatMonitor:
    """Parent-side consumer of the worker heartbeat queue.

    Drains beats into telemetry (``worker_heartbeat`` events, the
    per-worker ``worker_staleness_seconds`` gauge, a derived
    checkpoints/s rate) and watches for silence: a worker whose last
    beat is older than *stall_after_s* gets exactly one
    ``worker_stalled`` event per stall episode (cleared when it beats
    again).  Staleness is measured on the *parent's* clock from the
    moment a beat is drained, so a frozen worker cannot fake liveness.

    The monitor owns no verdict-relevant state; it can be driven
    directly (``observe_beat`` / ``check_stalls`` with an injected
    clock) for deterministic tests, or via :meth:`start` for real
    backends.
    """

    def __init__(self, tele, beat_queue, stall_after_s: float | None = None,
                 poll_s: float | None = None, clock=time.monotonic):
        self.tele = tele
        self.queue = beat_queue
        self.stall_after_s = (stall_after_s if stall_after_s is not None
                              else WORKER_STALL_S)
        self.poll_s = (poll_s if poll_s is not None
                       else max(0.05, HEARTBEAT_INTERVAL_S / 2))
        self.clock = clock
        self.workers: dict = {}  # pid -> state dict
        self.stalls = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- pure state transitions (unit-testable with a fake clock) ------------------

    def observe_beat(self, beat: dict, now: float | None = None) -> None:
        now = self.clock() if now is None else now
        pid = beat.get("pid")
        state = self.workers.get(pid)
        rate = 0.0
        if state is not None:
            dt = (beat.get("mono") or 0.0) - state["mono"]
            if dt > 0:
                rate = max(0.0, (beat.get("checkpoints", 0)
                                 - state["checkpoints"]) / dt)
        recovered = state is not None and state.get("stalled")
        self.workers[pid] = {
            "seen": now,
            "mono": beat.get("mono") or 0.0,
            "runs": beat.get("runs", 0),
            "checkpoints": beat.get("checkpoints", 0),
            "last_progress": beat.get("last_progress"),
            "rate": rate,
            "stalled": False,
        }
        reg = self.tele.registry
        reg.counter("worker_heartbeats", worker=pid).inc()
        reg.gauge("worker_staleness_seconds", worker=pid).set(0.0)
        reg.gauge("worker_checkpoints_per_s", worker=pid).set(rate)
        self.tele.event("worker_heartbeat", worker=pid,
                        runs_completed=beat.get("runs", 0),
                        checkpoints=beat.get("checkpoints", 0),
                        checkpoints_per_s=rate,
                        last_progress=beat.get("last_progress"),
                        staleness_s=0.0, recovered=recovered)

    def check_stalls(self, now: float | None = None) -> None:
        now = self.clock() if now is None else now
        for pid, state in self.workers.items():
            staleness = max(0.0, now - state["seen"])
            self.tele.registry.gauge("worker_staleness_seconds",
                                     worker=pid).set(staleness)
            if staleness >= self.stall_after_s and not state["stalled"]:
                state["stalled"] = True
                self.stalls += 1
                self.tele.registry.counter("workers_stalled").inc()
                self.tele.event("worker_stalled", worker=pid,
                                staleness_s=staleness,
                                runs_completed=state["runs"],
                                last_progress=state["last_progress"])

    # -- the monitor thread --------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                beat = self.queue.get(timeout=self.poll_s)
            except queue_mod.Empty:
                pass
            except (OSError, EOFError, ValueError):
                return  # queue torn down underneath us: monitoring over
            else:
                if beat is _STOP:
                    return
                self.observe_beat(beat)
            self.check_stalls()

    def start(self) -> "HeartbeatMonitor":
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop,
                                            name="repro-heartbeat-monitor",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        try:
            # Wake the thread now rather than at its next poll; the
            # beats queued ahead of the sentinel are still observed.
            self.queue.put_nowait(_STOP)
        except Exception:
            # Full or torn-down queue: end at the next poll instead.
            self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        try:
            # Reader-side teardown of the multiprocessing queue; workers
            # shed beats once it is gone.
            self.queue.close()
            self.queue.cancel_join_thread()
        except OSError:
            pass
