"""Session and campaign orchestration: plan → execute → judge.

:func:`execute_session` is the engine's front door for one
determinism-checking session: it expands the config into a
:class:`~repro.core.engine.plan.SessionPlan`, picks the executor
backend from the resolved worker topology, streams completed runs into
an incremental :class:`~repro.core.engine.judge.Judge`, and lets the
judge cancel outstanding work (``stop_on_first``) or react to budget
exhaustion — one control flow for both backends.  A judge-driven
cancellation is observable as a ``session_cancelled`` telemetry event
(and the ``sessions_cancelled`` counter).

:func:`execute_campaign` drives one session per input point with the
same machinery: pending inputs become executor tasks (serial loop or
process-pool fan-out across inputs), and every outcome funnels through
one merge hook — journal append + ``input_verdict`` event — regardless
of backend.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.engine.coordinator import Coordinator, Feedback, coordinate
from repro.core.engine.executors import (CRASHED, ProcessPoolRunExecutor,
                                         SerialExecutor, attempt_run,
                                         campaign_input_worker, crash_failure,
                                         merge_worker_telemetry,
                                         require_picklable, resolve_executor,
                                         resolve_workers, session_run_worker)
from repro.core.engine.judge import Judge
from repro.core.engine.transports import ExecutorTransport
from repro.core.engine.model import (OUTCOME_ERROR, CampaignResult,
                                     error_outcome, outcome_from_result)
from repro.core.engine.plan import SessionPlan
from repro.errors import ReproError, SessionInterrupted, WorkerCrashError


def execute_session(program, config, telemetry=None):
    """Run a full determinism-checking session over *program*.

    The session is one ``check_session`` telemetry span; the backend is
    chosen from the plan's resolved worker topology.
    """
    plan = SessionPlan.from_config(program, config)
    backend = resolve_executor(config.executor, plan.n_workers)
    tele = telemetry if (telemetry is not None and telemetry.enabled) else None
    span = (tele.start_span("check_session", program=program.name,
                            runs=config.runs, workers=plan.n_workers,
                            schemes=",".join(config.schemes))
            if tele else None)
    try:
        if backend == "serial":
            return serial_session(plan, tele)
        return pool_session(plan, tele, backend)
    finally:
        if tele:
            tele.end_span(span)


def _fold_value(plan, judge, tele, index, value, seen_pids=None,
                executor=None) -> None:
    """Fold one executor result — run record, failure, crash, or
    budget-expiry marker — into the judge."""
    if value is CRASHED:
        salvaged = executor.salvaged_checkpoints(index) if executor else 0
        judge.fold_failure(index,
                           crash_failure(plan.config, index,
                                         f"run {index + 1}",
                                         checkpoints=salvaged))
        return
    if seen_pids is not None:
        merge_worker_telemetry(tele, value, seen_pids)
    if value["expired"]:
        judge.fold_expired()
    elif value["failure"] is not None:
        judge.fold_failure(index, value["failure"])
    else:
        judge.fold_record(index, value["record"])


class SessionFeedback(Feedback):
    """The judge as the coordinator's feedback: fold results, steer.

    The judge's cancel signal (``stop_on_first`` divergence) revokes
    unstarted work and drains what is in flight; budget exhaustion
    cancels too (every later run would only expire against the same
    deadline).  Only the judge-driven cancel is announced — that is the
    early exit a user asked for, not an error path.
    """

    def __init__(self, plan, judge, transport, tele, seen_pids=None):
        self.plan = plan
        self.judge = judge
        self.transport = transport
        self.tele = tele
        self.seen_pids = seen_pids

    def fold(self, index: int, value) -> bool:
        if isinstance(value, dict) and value.get("cancelled"):
            # A mid-run cancellation marker (shmem backend): counted,
            # never folded — the judge's truncation would have dropped
            # the record anyway (or the run is resubmitted later).
            if self.seen_pids is not None:
                merge_worker_telemetry(self.tele, value, self.seen_pids)
            if self.tele:
                self.tele.event("midrun_cancel",
                                program=self.plan.program.name,
                                backend=self.transport.name, run=index + 1,
                                checkpoints=value.get("checkpoints", 0))
                self.tele.registry.counter("runs_cancelled_midrun").inc()
            return False
        _fold_value(self.plan, self.judge, self.tele, index, value,
                    self.seen_pids, self.transport)
        return True

    def should_cancel(self) -> bool:
        return self.judge.should_cancel()

    def cancel_floor(self):
        return self.judge.divergence_index

    def budget_exhausted(self) -> bool:
        return self.judge.budget_exhausted

    def progress(self) -> dict:
        return {"completed": len(self.judge.completed),
                "failed": len(self.judge.failed)}


def _drive(plan, judge, transport, tasks, tele, seen_pids=None) -> None:
    """One session batch through the coordinator's scheduling loop."""
    feedback = SessionFeedback(plan, judge, transport, tele, seen_pids)
    coordinator = Coordinator(transport, feedback, tele,
                              program_name=plan.program.name)
    coordinate(coordinator.run(tasks))


def serial_session(plan: SessionPlan, tele):
    """Execute every scheduled run inline, in index order."""
    config = plan.config
    control = plan.make_control()
    runner = plan.make_runner(control, tele)
    budget = plan.new_budget()
    judge = Judge(plan, tele)

    def task_for(index):
        def task():
            if budget.expired():
                return {"record": None, "failure": None, "expired": True}
            record, failure, session_expired = attempt_run(
                runner, budget, plan.retry, config, tele, index)
            return {"record": record, "failure": failure,
                    "expired": session_expired}
        return task

    tasks = {index: task_for(index) for index in range(config.runs)}
    _drive(plan, judge, ExecutorTransport(SerialExecutor()), tasks, tele)
    return judge.finalize(workers=1)


def pool_session(plan: SessionPlan, tele, backend: str = "process-pool"):
    """Execute the session across a process pool.

    Phase 1 runs serially in the parent until one run completes and the
    replay logs are recorded (crashing leading runs are consumed here
    one at a time, as serial would).  Phase 2 fans the remaining run
    indexes across the pool; results merge by run index, so the
    records/failures — and everything judged from them — are identical
    to the serial session's.  *backend* picks the pool flavor:
    ``process-pool`` (pickle channel only) or ``process-pool-shmem``
    (checkpoint hashes streamed through shared memory, with mid-run
    divergence cancellation under ``stop_on_first``).
    """
    require_picklable(program=plan.program, config=plan.config)
    config = plan.config
    control = plan.make_control()
    runner = plan.make_runner(control, tele)
    budget = plan.new_budget()
    judge = Judge(plan, tele)

    # Phase 1 — the record run (serial, in the parent).  It also pins
    # the judge's reference: the lowest-index record always folds first.
    index = 0
    while index < config.runs and not control.malloc_log.recorded:
        if budget.expired():
            judge.fold_expired()
            break
        record, failure, session_expired = attempt_run(
            runner, budget, plan.retry, config, tele, index)
        if session_expired:
            judge.fold_expired()
            break
        if failure is not None:
            judge.fold_failure(index, failure)
        else:
            judge.fold_record(index, record)
        index += 1

    # Phase 2 — replayed runs, fanned out across the pool (or the
    # coordinator-native transports: the asyncio-local pool, the
    # socket worker fleet).
    remaining = [] if judge.budget_exhausted else range(index, config.runs)
    if remaining:
        telemetry_on = tele is not None
        worker_fn = session_run_worker
        if backend == "process-pool-shmem":
            from repro.core.engine.shmem import (ShmemPoolRunExecutor,
                                                 shmem_session_run_worker)

            worker_fn = shmem_session_run_worker
            # The reference prefix is phase 1's record (the judge's
            # lowest-index record — remaining is only nonempty once the
            # record run completed).
            reference = (judge.completed[min(judge.completed)]
                         if judge.completed else None)
            transport = ExecutorTransport(ShmemPoolRunExecutor(
                plan.n_workers, deadline=budget.session_deadline,
                telemetry=tele, reference=reference,
                cancel_enabled=config.stop_on_first))
        elif backend == "asyncio-local":
            from repro.core.engine.transports import AsyncioLocalTransport

            transport = AsyncioLocalTransport(
                plan.n_workers, deadline=budget.session_deadline,
                telemetry=tele)
        elif backend == "socket":
            from repro.core.engine.sockets import SocketTransport

            transport = SocketTransport(
                plan.n_workers, deadline=budget.session_deadline,
                telemetry=tele)
        else:
            transport = ExecutorTransport(ProcessPoolRunExecutor(
                plan.n_workers, deadline=budget.session_deadline,
                telemetry=tele))
        if backend == "socket":
            # Socket tasks are wire descriptors: the program travels by
            # registry name, data payloads as blobs (repro.core.engine
            # .wire); the hub stamps each run's remaining deadline at
            # dispatch time.
            from repro.core.engine import wire

            spec = wire.program_spec(plan.program)
            config_blob = wire.pack_blob(config)
            malloc_blob = wire.pack_blob(control.malloc_log)
            libcall_blob = wire.pack_blob(control.libcall_log)
            tasks = {
                i: {"kind": "session_run", "spec": spec, "index": i,
                    "config": config_blob, "malloc": malloc_blob,
                    "libcall": libcall_blob, "telemetry": telemetry_on}
                for i in remaining
            }
        else:
            tasks = {
                i: (worker_fn,
                    (plan.program, config, i, budget.session_deadline,
                     control.malloc_log, control.libcall_log, telemetry_on))
                for i in remaining
            }
        _drive(plan, judge, transport, tasks, tele, seen_pids=set())
        if transport.expired:
            judge.fold_expired()
    return judge.finalize(workers=plan.n_workers)


# -- campaigns ----------------------------------------------------------------


def record_input_outcome(outcome, point, journal, tele, program_name) -> None:
    """The single merge hook every completed input passes through.

    The parent is the journal's only writer (workers return outcomes;
    only the lock owner appends), and the ``input_verdict`` event is
    emitted from exactly one place for both backends.
    """
    if journal is not None:
        journal.append_outcome(outcome)
    if tele:
        tele.event("input_verdict", program=program_name,
                   input=point.name, outcome=outcome.outcome,
                   deterministic=outcome.deterministic,
                   det_at_end=outcome.det_at_end,
                   n_ndet_points=outcome.n_ndet_points)


class CampaignFeedback(Feedback):
    """The campaign's merge hook as coordinator feedback.

    Campaigns never cancel mid-fleet (every input gets its verdict), so
    only :meth:`fold` is interesting: crash attribution, telemetry
    merge, and the single journal/event funnel per completed input.
    """

    def __init__(self, by_position, journal, tele):
        self.by_position = by_position
        self.journal = journal
        self.tele = tele
        self.outcomes: dict = {}
        self.seen_pids: set = set()
        self.program_name = None

    def fold(self, pos: int, value) -> bool:
        point = self.by_position[pos]
        if value is CRASHED:
            outcome = error_outcome(
                point, WorkerCrashError.__name__,
                f"worker process checking input {point.name!r} "
                f"died unexpectedly")
        else:
            merge_worker_telemetry(self.tele, value, self.seen_pids)
            outcome = value["outcome"]
            if value.get("program"):
                self.program_name = value["program"]
        if self.tele and outcome.outcome == OUTCOME_ERROR:
            self.tele.event("input_error", input=point.name,
                            error=outcome.error,
                            message=outcome.error_message)
        self.outcomes[pos] = outcome
        record_input_outcome(outcome, point, self.journal, self.tele,
                             self.program_name)
        return True


def fan_out_campaign(program_factory, points, config, tele, journal,
                     n_workers: int, total=None,
                     backend: str = "process-pool"):
    """Fan campaign inputs across worker processes.

    *points* is ``[(position, InputPoint), ...]`` — the inputs still to
    run, keyed by their position in the campaign's input list so the
    merged outcomes keep input order.  Returns ``(outcomes, name)``
    with *outcomes* mapping position -> ``InputOutcome``.  *backend*
    picks the fan-out flavor: the process pool (default), the
    asyncio-local pool, or the socket worker fleet.
    """
    # Campaign parallelism is across inputs, never nested: each worker
    # runs its session serially, so an explicit pool executor in the
    # config must not force a pool *inside* a pool worker.
    worker_config = replace(config, workers=1, executor="auto")
    telemetry_on = tele is not None
    by_position = dict(points)
    if backend == "socket":
        from repro.core.engine import wire
        from repro.core.engine.sockets import SocketTransport

        factory_spec = wire.factory_spec(program_factory)
        config_blob = wire.pack_blob(worker_config)
        tasks = {pos: {"kind": "campaign_input", "factory": factory_spec,
                       "index": pos, "point": wire.pack_blob(point),
                       "config": config_blob, "telemetry": telemetry_on}
                 for pos, point in points}
        transport = SocketTransport(n_workers, telemetry=tele)
    else:
        require_picklable(program_factory=program_factory, config=config)
        tasks = {pos: (campaign_input_worker,
                       (program_factory, point, worker_config, telemetry_on))
                 for pos, point in points}
        if backend == "asyncio-local":
            from repro.core.engine.transports import AsyncioLocalTransport

            transport = AsyncioLocalTransport(n_workers, telemetry=tele)
        else:
            transport = ExecutorTransport(
                ProcessPoolRunExecutor(n_workers, deadline=None,
                                       telemetry=tele))
    if tele:
        for pos, point in points:
            tele.event("progress", kind="input", input=point.name,
                       index=pos, total=total)

    feedback = CampaignFeedback(by_position, journal, tele)
    coordinate(Coordinator(transport, feedback, tele).run(tasks))
    return feedback.outcomes, feedback.program_name


def execute_campaign(program_factory, inputs, config, telemetry=None,
                     journal_path=None, resume: bool = False):
    """Check determinism across several input points.

    One ``campaign`` telemetry span; pending inputs run serially or fan
    out across a process pool (``config.workers``, with more than one
    pending input).  A session that raises a
    :class:`~repro.errors.ReproError` becomes an ``error`` outcome and
    the campaign continues.  With *journal_path*, every completed input
    is appended as it finishes; *resume* restores inputs the journal
    already holds instead of re-running them.
    """
    inputs = list(inputs)
    tele = telemetry if (telemetry is not None and telemetry.enabled) else None
    journal = None
    completed: dict = {}
    if journal_path is not None:
        from repro.core.checker.journal import CampaignJournal

        journal = CampaignJournal(journal_path, telemetry=tele)
        journal.acquire()
        if resume:
            completed = journal.load_completed()
    elif resume:
        raise ValueError("resume=True requires a journal_path")

    n_workers = (resolve_workers(config.workers)
                 if config.workers != 1 else 1)
    span = (tele.start_span("campaign", inputs=len(inputs),
                            resumed=len(completed))
            if tele else None)
    try:
        resumed_inputs = []
        program_name = None
        by_position: dict = {}
        pending = []
        if journal is not None:
            journal.begin_segment(inputs=[p.name for p in inputs],
                                  resumed=sorted(completed))
        for index, point in enumerate(inputs):
            if point.name in completed:
                by_position[index] = completed[point.name]
                resumed_inputs.append(point.name)
                if tele:
                    tele.event("input_resumed", input=point.name,
                               index=index, total=len(inputs))
            else:
                pending.append((index, point))

        if n_workers > 1 and len(pending) > 1:
            # The fan-out backend follows the executor knob, except
            # that session-level flavors (serial semantics, the shmem
            # checkpoint exchange) have no meaning *across* inputs and
            # map back to the plain pool.
            backend = resolve_executor(config.executor, n_workers)
            if backend in ("serial", "process-pool-shmem"):
                backend = "process-pool"
            fanned, program_name = fan_out_campaign(
                program_factory, pending, config, tele, journal, n_workers,
                total=len(inputs), backend=backend)
            by_position.update(fanned)
        else:
            # Serial loop.  With a single pending input the campaign
            # stays serial and lets the session itself parallelize.
            for index, point in pending:
                if tele:
                    tele.event("progress", kind="input",
                               program=program_name, input=point.name,
                               index=index, total=len(inputs))
                try:
                    program = program_factory(**point.params)
                    program_name = program.name
                    result = execute_session(program, config,
                                             telemetry=telemetry)
                    outcome = outcome_from_result(point, result)
                except SessionInterrupted:
                    # A shutdown signal stops the whole campaign; the
                    # journal (released in the finally below) keeps the
                    # inputs completed so far for --resume.
                    raise
                except ReproError as exc:
                    outcome = error_outcome(point, type(exc).__name__,
                                            str(exc))
                    if tele:
                        tele.event("input_error", input=point.name,
                                   error=outcome.error,
                                   message=outcome.error_message)
                by_position[index] = outcome
                record_input_outcome(outcome, point, journal, tele,
                                     program_name)
        outcomes = [by_position[i] for i in sorted(by_position)]
        if tele and span is not None:
            span.set(program=program_name or "?",
                     flagged=sum(1 for o in outcomes if not o.deterministic),
                     errors=sum(1 for o in outcomes
                                if o.outcome == OUTCOME_ERROR))
        return CampaignResult(program=program_name or "?",
                              outcomes=outcomes,
                              resumed_inputs=resumed_inputs)
    finally:
        if journal is not None:
            journal.release()
        if tele:
            tele.end_span(span)
