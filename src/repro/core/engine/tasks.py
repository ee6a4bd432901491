"""Worker-side task functions and the run-attempt/telemetry protocol.

Every run, on every backend, goes through :func:`attempt_run`, which
applies the retry policy where the run executes: the serial loop calls
it inline, and the process pool calls it from two task functions —
:func:`session_run_worker` (one scheduled run of a session) and
:func:`campaign_input_worker` (one full serial session for a campaign
input).  Both rebuild the whole stack from picklable inputs and return
a plain dict the parent folds.

The worker-telemetry merge protocol lives here too: the parent
re-emits each worker's buffered events tagged with the worker's pid
(``worker_spawn`` on first sight, ``worker_merge`` after folding each
task) and merges metric snapshots into the session registry.
"""

from __future__ import annotations

import os
import pickle
import threading
import time

from repro.core import failpoints
from repro.core.checker.policies import SessionBudget
from repro.core.engine.heartbeat import _HB_STATE, _beat_loop, note_worker_progress
from repro.errors import (BudgetError, CheckerError, ReproError,
                          SessionInterrupted, WorkerCrashError)


def require_picklable(**objects) -> None:
    """Task submission pickles its arguments; fail with a diagnosis
    instead of a pool traceback when one of them can't travel."""
    for what, obj in objects.items():
        try:
            pickle.dumps(obj)
        except Exception as exc:
            raise CheckerError(
                f"workers > 1 requires a picklable {what} "
                f"(module-level classes, no lambdas/closures): {exc}"
            ) from exc


def _worker_init(heartbeat=None) -> None:
    """Per-worker startup: drop inherited fds the worker must not hold.

    Forked workers inherit the parent's open files, including the
    campaign journal's lock descriptor — and ``flock`` ownership rides
    on the open file description, so an orphaned worker outliving a
    SIGKILLed parent would keep the journal locked and block
    ``--resume``.  Closing the inherited fds here confines ownership to
    the parent.  Under a spawn start method nothing is inherited and
    the registry is empty — a no-op.

    *heartbeat* is an optional ``(queue, interval_s)`` pair from the
    parent; when present, the worker resets its progress counters and
    starts the beat thread (see
    :func:`repro.core.engine.heartbeat._beat_loop`).
    """
    import signal as signal_mod

    from repro.core.checker import journal

    # Forked workers inherit the CLI's graceful SIGINT/SIGTERM handlers,
    # which raise SessionInterrupted — in a worker that surfaces as a
    # traceback when the pool manager terminates it (e.g. cleaning up a
    # broken pool).  Workers take the default disposition: the parent
    # owns graceful shutdown.
    try:
        signal_mod.signal(signal_mod.SIGTERM, signal_mod.SIG_DFL)
        signal_mod.signal(signal_mod.SIGINT, signal_mod.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass

    for fd in list(journal._OWNED_FDS):
        try:
            os.close(fd)
        except OSError:
            pass
    journal._OWNED_FDS.clear()
    if heartbeat is not None:
        beat_queue, interval_s = heartbeat
        _HB_STATE.update(runs=0, checkpoints=0,
                         last_progress=time.monotonic())
        threading.Thread(target=_beat_loop, args=(beat_queue, interval_s),
                         name="repro-heartbeat", daemon=True).start()


# -- run attempts (shared by the serial loop and the pool workers) -----------


def attempt_run(runner, budget, retry, config, tele, index: int):
    """Run one scheduled run, retrying per policy.

    Returns ``(record, failure, session_expired)``: exactly one of
    *record* / *failure* is set unless the *session* budget expired
    mid-run, in which case both are None and *session_expired* is True.
    """
    from repro.core.engine.model import RunFailure

    base_seed = config.base_seed + index
    failure = None
    for attempt in range(retry.max_attempts):
        seed = retry.seed_for(base_seed, attempt)
        runner.deadline = budget.run_deadline()
        try:
            return runner.run(seed), None, False
        except ReproError as exc:
            if isinstance(exc, SessionInterrupted):
                # A shutdown signal is not a property of this schedule;
                # recording it as a run failure would turn an interrupt
                # into a (wrong) nondeterminism verdict.  Unwind.
                raise
            if config.fail_fast:
                raise
            if isinstance(exc, BudgetError) and budget.expired():
                # The *session* deadline expired mid-run; that is not a
                # property of this schedule, so don't record a failure.
                return None, None, True
            failure = RunFailure(
                run=index + 1, seed=seed, error=type(exc).__name__,
                message=str(exc), steps=runner.step_count,
                checkpoints=len(runner.checkpoints), attempts=attempt + 1)
            if not retry.should_retry(exc, attempt):
                return None, failure, False
            if tele:
                tele.event("retry", program=runner.program.name,
                           run=index + 1, attempt=attempt + 1,
                           error=type(exc).__name__,
                           next_seed=retry.seed_for(base_seed, attempt + 1))
                tele.registry.counter("retries").inc()
            if retry.backoff_s > 0:
                time.sleep(retry.backoff_s)
    return None, failure, False


def crash_failure(config, index: int, what: str):
    """The :class:`RunFailure` recorded for a worker process that died.

    The parent learns nothing of the dead run's progress, so it records
    0 checkpoints.
    """
    from repro.core.engine.model import RunFailure

    return RunFailure(
        run=index + 1, seed=config.base_seed + index,
        error=WorkerCrashError.__name__,
        message=f"worker process executing {what} died unexpectedly")


# -- worker-side telemetry ---------------------------------------------------


def worker_telemetry(enabled: bool):
    """A buffering telemetry session for one worker task (or None)."""
    if not enabled:
        return None
    from repro.telemetry import MemorySink, Telemetry

    return Telemetry(MemorySink())


def telemetry_payload(tele) -> dict:
    if tele is None:
        return {"events": [], "metrics": None}
    return {"events": list(tele.sink.events),
            "metrics": tele.registry.snapshot()}


def merge_worker_telemetry(tele, res: dict, seen_pids: set) -> None:
    """Fold one worker task's buffered telemetry into the session's.

    Worker events keep their own (worker-relative) timestamps and span
    ids; the added ``worker`` field disambiguates them in the stream.
    """
    if tele is None:
        return
    pid = res.get("pid")
    if pid not in seen_pids:
        seen_pids.add(pid)
        tele.event("worker_spawn", worker=pid)
        tele.registry.counter("workers_spawned").inc()
    merged = 0
    for event in res.get("events", ()):
        if event.get("t") == "meta":
            continue
        event = dict(event)
        event["worker"] = pid
        tele.emit_raw(event)
        merged += 1
    if res.get("metrics"):
        tele.registry.merge_snapshot(res["metrics"])
    tele.event("worker_merge", worker=pid, merged_events=merged)


# -- worker task functions ---------------------------------------------------


def session_run_worker(program, config, index: int, session_deadline,
                       malloc_log, libcall_log, telemetry_on: bool) -> dict:
    """Execute one scheduled run in a worker process.

    The worker rebuilds the whole stack — controller (pre-seeded with
    the parent's recorded logs, so it replays), scheduler, runner — and
    applies the retry policy locally, exactly as the serial loop does
    for runs after the first.  *session_deadline* is an absolute
    ``time.monotonic()`` value (comparable across processes on the
    platforms that fork), re-armed here as this worker's budget.
    """
    from repro.core.engine.plan import SessionPlan

    if failpoints.ENABLED:
        failpoints.fire("worker.run.before")
    tele = worker_telemetry(telemetry_on)
    plan = SessionPlan.from_config(program, config, n_workers=1)
    control = plan.make_control()
    control.malloc_log = malloc_log
    control.libcall_log = libcall_log
    runner = plan.make_runner(control, tele)
    deadline_s = None
    if session_deadline is not None:
        deadline_s = max(0.0, session_deadline - time.monotonic())
    budget = SessionBudget(deadline_s=deadline_s,
                           run_deadline_s=config.run_deadline_s).start()
    record, failure, session_expired = attempt_run(
        runner, budget, plan.retry, config, tele, index)
    checkpoints = (len(record.checkpoints) if record is not None
                   else failure.checkpoints if failure is not None else 0)
    note_worker_progress(runs=1, checkpoints=checkpoints)
    if failpoints.ENABLED:
        failpoints.fire("worker.run.after")
    out = {"index": index, "pid": os.getpid(), "record": record,
           "failure": failure, "expired": session_expired}
    out.update(telemetry_payload(tele))
    return out


def campaign_input_worker(program_factory, point, config,
                          telemetry_on: bool) -> dict:
    """Check one campaign input in a worker process.

    Runs :func:`~repro.core.engine.session.check_input`, the check the
    serial campaign loop runs, as a full serial session (``workers``
    was already forced to 1 by the parent — campaign parallelism is
    across inputs, never nested).
    """
    from repro.core.engine.session import check_input

    if failpoints.ENABLED:
        failpoints.fire("worker.input.before")
    tele = worker_telemetry(telemetry_on)
    outcome, program_name = check_input(program_factory, point, config, tele)
    result = outcome.result
    if result is not None:
        note_worker_progress(runs=result.runs,
                             checkpoints=sum(len(r.checkpoints)
                                             for r in result.records))
    else:
        note_worker_progress()  # the attempt itself is progress
    if failpoints.ENABLED:
        failpoints.fire("worker.input.after")
    out = {"pid": os.getpid(), "outcome": outcome, "program": program_name}
    out.update(telemetry_payload(tele))
    return out
