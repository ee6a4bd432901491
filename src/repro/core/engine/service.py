"""Checking as a service: the ``repro serve`` / ``repro worker`` pair.

``repro serve`` is a long-lived daemon: it starts a
:class:`~repro.core.engine.sockets.WorkerHub`, installs it as the
process's ambient hub, and drains queued session/campaign submissions
one at a time — each executed through the ordinary engine front doors
(:func:`~repro.core.checker.runner.check_determinism`,
:func:`~repro.core.checker.campaign.run_campaign`) on the ``socket``
executor, so a served verdict is *the same verdict* a local run
produces.  Shutdown follows the CLI's graceful-signal contract: a
SIGTERM/SIGINT while idle drains cleanly (exit 0); one that lands
mid-session unwinds it through the usual ``SessionInterrupted`` path
(journal finalized, ``session_cancelled`` emitted, exit 2), and queued
submissions are answered with a resubmit-able error frame.

``repro worker`` is the fleet side: a plain synchronous client that
dials the hub, rebuilds each dispatched program from its registry spec
(:mod:`repro.core.engine.wire` — no code travels), executes the same
worker functions the process pool forks
(:func:`~repro.core.engine.tasks.session_run_worker`,
:func:`~repro.core.engine.tasks.campaign_input_worker`, failpoints and
all), and streams heartbeat frames from a daemon thread so the parent's
:class:`~repro.core.engine.heartbeat.HeartbeatMonitor` sees it exactly
like a pool worker.

``repro submit`` is a minimal client for scripts and the CI smoke: one
submission in, one verdict out, exit code relayed.
"""

from __future__ import annotations

import os
import queue as queue_mod
import socket
import sys
import threading
import time

from repro.core.engine import heartbeat as _heartbeat
from repro.core.engine.heartbeat import make_beat
from repro.core.engine.sockets import WorkerHub, _Conn, set_ambient_hub
from repro.core.engine.tasks import (_worker_init, campaign_input_worker,
                                     session_run_worker)
from repro.core.engine.wire import (WireError, build_factory, build_program,
                                    pack_blob, unpack_blob)
from repro.errors import CheckerError, ReproError, SessionInterrupted


def _parse_connect(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise CheckerError(f"--connect wants HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise CheckerError(f"--connect port must be a number, got {port!r}")


def _connect(host: str, port: int, retry_for_s: float = 0.0) -> _Conn:
    """Dial the hub, retrying while it comes up (worker-first starts)."""
    deadline = time.monotonic() + max(0.0, retry_for_s)
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            # The timeout bounds the *dial* only: an idle worker blocks
            # on its next run frame indefinitely, and a client may wait
            # minutes for a long session's verdict.
            sock.settimeout(None)
            return _Conn(sock)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise CheckerError(
                    f"cannot connect to {host}:{port}: {exc}") from exc
            time.sleep(0.2)


# -- repro worker -------------------------------------------------------------


def _execute_task(task: dict):
    """Run one dispatched descriptor with the pool worker functions."""
    kind = task.get("kind")
    config = unpack_blob(task["config"])
    telemetry_on = bool(task.get("telemetry"))
    if kind == "session_run":
        deadline = None
        if task.get("deadline_s") is not None:
            deadline = time.monotonic() + task["deadline_s"]
        return session_run_worker(
            build_program(task["spec"]), config, task["index"], deadline,
            unpack_blob(task["malloc"]), unpack_blob(task["libcall"]),
            telemetry_on)
    if kind == "campaign_input":
        return campaign_input_worker(
            build_factory(task["factory"]), unpack_blob(task["point"]),
            config, telemetry_on)
    raise WireError(f"unknown task kind {kind!r}")


def _beat_sender(conn: _Conn, stop: threading.Event) -> None:
    """Heartbeat frames at the pool workers' cadence; shed on error."""
    while not stop.is_set():
        try:
            conn.send({"type": "heartbeat", "beat": make_beat()})
        except (OSError, ValueError):
            return  # connection gone: the main loop is exiting too
        stop.wait(_heartbeat.HEARTBEAT_INTERVAL_S)


def run_worker(args) -> int:
    """``repro worker --connect HOST:PORT``: serve runs until told bye."""
    host, port = _parse_connect(args.connect)
    conn = _connect(host, port, retry_for_s=args.retry_for)
    # The same per-process init a forked pool worker gets: inherited
    # journal fds closed, signal disposition back to defaults (a kill
    # must kill — worker loss is the hub's requeue signal).
    _worker_init()
    stop = threading.Event()
    try:
        conn.send({"type": "hello", "role": "worker", "pid": os.getpid(),
                   "host": socket.gethostname()})
        welcome = conn.recv()
        if welcome is None or welcome["type"] != "welcome":
            raise CheckerError(f"hub at {host}:{port} did not welcome us")
        print(f"worker: connected to {host}:{port} (pid {os.getpid()})",
              file=sys.stderr)
        threading.Thread(target=_beat_sender, args=(conn, stop),
                         name="repro-worker-heartbeat", daemon=True).start()
        while True:
            frame = conn.recv()
            if frame is None or frame["type"] == "bye":
                return 0
            if frame["type"] != "run":
                continue
            value = _execute_task(frame["task"])
            conn.send({"type": "result", "gen": frame["gen"],
                       "index": frame["index"], "payload": pack_blob(value)})
    finally:
        stop.set()
        conn.close()


# -- repro serve --------------------------------------------------------------


def _submission_config(frame: dict) -> dict:
    """Map a submit frame onto engine overrides (socket executor)."""
    from repro.core.hashing.rounding import ROUNDINGS
    from repro.core.schemes.base import SchemeConfig

    overrides = dict(frame.get("config") or {})
    scheme = overrides.pop("scheme", "hw")
    rounding = ROUNDINGS[overrides.pop("rounding", "none")]()
    overrides.setdefault("executor", "socket")
    overrides["schemes"] = {
        "s": SchemeConfig(kind=scheme, rounding=rounding)}
    return overrides


def _execute_submission(frame: dict, telemetry):
    """One queued submission -> ``(exit_code, report_dict)``."""
    import json

    from repro.cli import _outcome_exit_code
    from repro.core.checker.campaign import InputPoint, run_campaign
    from repro.core.checker.runner import check_determinism
    from repro.core.checker.serialize import to_json
    from repro.core.engine.wire import ProgramFactory, build_named_program

    app = frame.get("app")
    params = frame.get("params") or {}
    overrides = _submission_config(frame)
    if frame.get("what") == "campaign":
        points = [InputPoint(p.get("name", "default"), p.get("params") or {})
                  for p in (frame.get("inputs") or [{"name": "default"}])]
        result = run_campaign(ProgramFactory(app), points,
                              telemetry=telemetry, **overrides)
        exit_code = (0 if result.deterministic_on_all_inputs
                     and not result.errored_inputs else 1)
        return exit_code, json.loads(to_json(result))
    result = check_determinism(build_named_program(app, **params),
                               telemetry=telemetry, **overrides)
    return _outcome_exit_code(result.outcome), json.loads(to_json(result))


def run_serve(args, out) -> int:
    """``repro serve``: hub + submission loop, graceful to the end."""
    from repro.cli import (EXIT_INFRA, _graceful_signals, _note_interrupt,
                           _open_plane)

    plane = _open_plane(args)
    hub = WorkerHub(host=args.host, port=args.port,
                    telemetry=plane.telemetry).start()
    set_ambient_hub(hub)
    print(f"serve: listening on {hub.host}:{hub.port} "
          f"(workers: repro worker --connect {hub.host}:{hub.port})",
          file=sys.stderr, flush=True)
    ticket = 0
    busy = False
    interrupted: SessionInterrupted | None = None
    active_conn: int | None = None
    try:
        with _graceful_signals():
            while True:
                try:
                    frame, conn_id = hub.submissions.get(timeout=0.5)
                except queue_mod.Empty:
                    continue
                ticket += 1
                hub.reply(conn_id, {"type": "accepted", "ticket": ticket,
                                    "position": 0})
                busy, active_conn = True, conn_id
                try:
                    exit_code, report = _execute_submission(frame,
                                                            plane.telemetry)
                except SessionInterrupted:
                    raise  # the shutdown contract, not a submission error
                except ReproError as exc:
                    hub.reply(conn_id, {"type": "error",
                                        "ticket": ticket,
                                        "message": f"{type(exc).__name__}: "
                                                   f"{exc}"})
                else:
                    hub.reply(conn_id, {"type": "verdict", "ticket": ticket,
                                        "exit_code": exit_code,
                                        "report": report})
                    print(f"serve: ticket {ticket} "
                          f"({frame.get('what', 'session')} "
                          f"{frame.get('app')}) -> exit {exit_code}",
                          file=sys.stderr, flush=True)
                busy, active_conn = False, None
    except SessionInterrupted as exc:
        interrupted = exc
    finally:
        # Queued-but-unstarted submissions are answered, never dropped
        # silently: the client owns the resubmit (docs/distributed.md).
        while True:
            try:
                _frame, conn_id = hub.submissions.get_nowait()
            except queue_mod.Empty:
                break
            hub.reply(conn_id, {"type": "error",
                                "message": "server shutting down; resubmit"})
        if interrupted is not None and busy and active_conn is not None:
            hub.reply(active_conn, {"type": "error",
                                    "message": f"interrupted by "
                                               f"{interrupted.signal_name}"})
        set_ambient_hub(None)
        hub.stop()
    if interrupted is not None:
        if busy:
            # Mid-session interrupt: the session already unwound through
            # the SessionInterrupted machinery (journal finalized); the
            # daemon reports it like any interrupted check.
            code = _note_interrupt(plane, interrupted)
            plane.close()
            return code if code else EXIT_INFRA
        print(f"repro: serve interrupted by {interrupted.signal_name} "
              f"while idle; shut down cleanly", file=sys.stderr)
        plane.close()
        return 0
    plane.close()
    return 0


# -- repro submit -------------------------------------------------------------


def run_submit(args, out) -> int:
    """``repro submit``: one submission, one verdict, relay the exit."""
    host, port = _parse_connect(args.connect)
    conn = _connect(host, port, retry_for_s=args.retry_for)
    try:
        conn.send({"type": "hello", "role": "client", "pid": os.getpid(),
                   "host": socket.gethostname()})
        welcome = conn.recv()
        if welcome is None or welcome["type"] != "welcome":
            raise CheckerError(f"hub at {host}:{port} did not welcome us")
        frame = {"type": "submit", "what": args.what, "app": args.app,
                 "params": {}, "config": {"runs": args.runs,
                                          "base_seed": args.seed,
                                          "scheme": args.scheme,
                                          "workers": args.workers}}
        if args.what == "campaign" and args.inputs:
            from repro.cli import _parse_input_point

            frame["inputs"] = [
                {"name": p.name, "params": p.params}
                for p in (_parse_input_point(s) for s in args.inputs)]
        conn.send(frame)
        while True:
            reply = conn.recv()
            if reply is None:
                raise CheckerError("server closed the connection before "
                                   "delivering a verdict; resubmit")
            if reply["type"] == "accepted":
                print(f"submit: accepted as ticket {reply['ticket']}",
                      file=sys.stderr)
                continue
            if reply["type"] == "error":
                raise ReproError(f"server error: {reply['message']}")
            if reply["type"] == "verdict":
                import json

                print(json.dumps(reply["report"], indent=2, sort_keys=True),
                      file=out)
                return int(reply["exit_code"])
    finally:
        conn.close()
