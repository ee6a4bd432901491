"""Session and campaign orchestration: plan → execute → judge.

:func:`execute_session` is the engine's front door for one
determinism-checking session: it expands the config into a
:class:`~repro.core.engine.plan.SessionPlan`, picks the executor
backend from the resolved worker topology, folds completed runs into
an incremental :class:`~repro.core.engine.judge.Judge`, and lets the
judge stop outstanding work (``stop_on_first``) or react to budget
exhaustion.  A serial session is one plain loop, :func:`run_inline`:
attempt a run, fold it, steer.  The pool's record phase runs the same
loop before the remaining runs fan out through the coordinator.  A
judge-driven early exit is announced as a ``session_cancelled``
telemetry event (and the ``sessions_cancelled`` counter) on every
backend.

:func:`execute_campaign` drives one session per input point.  Pending
inputs are checked one at a time (:func:`check_input`, the same check
a pool worker runs) or fanned out across a process pool, and every
outcome funnels through one merge hook — journal append +
``input_verdict`` event — regardless of backend.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.engine.coordinator import (Feedback, announce_cancelled,
                                           coordinate)
from repro.core.engine.executors import (CRASHED, EXECUTORS,
                                         resolve_executor, resolve_workers)
from repro.core.engine.judge import Judge
from repro.core.engine.model import (OUTCOME_ERROR, CampaignResult,
                                     error_outcome, outcome_from_result)
from repro.core.engine.plan import SessionPlan
from repro.core.engine.tasks import (attempt_run, campaign_input_worker,
                                     crash_failure, merge_worker_telemetry,
                                     require_picklable, session_run_worker)
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
        return pool_session(plan, tele)
    finally:
        if tele:
            tele.end_span(span)


def fold_attempt(judge, index: int, record, failure, expired: bool) -> None:
    """Fold one :func:`~repro.core.engine.tasks.attempt_run` result."""
    if expired:
        judge.fold_expired()
    elif failure is not None:
        judge.fold_failure(index, failure)
    else:
        judge.fold_record(index, record)


def run_inline(plan, judge, runner, budget, tele, until=None) -> int:
    """Run the session's runs in index order, in this process.

    Each run is attempted (retry policy included), folded into *judge*,
    then steered: budget expiry stops the loop; a ``stop_on_first``
    divergence stops it and announces the runs never started as
    cancelled.  *until*, if given, is asked before each run and ends
    the loop when true.  Returns the index of the first run not
    started.
    """
    config = plan.config
    for index in range(config.runs):
        if until is not None and until():
            return index
        if budget.expired():
            judge.fold_expired()
            return index
        record, failure, expired = attempt_run(
            runner, budget, plan.retry, config, tele, index)
        fold_attempt(judge, index, record, failure, expired)
        if judge.should_cancel():
            announce_cancelled(tele, plan.program.name, "serial",
                               {"completed": len(judge.completed),
                                "failed": len(judge.failed)},
                               config.runs - index - 1)
            return index + 1
        if judge.budget_exhausted:
            return index + 1
    return config.runs


def serial_session(plan: SessionPlan, tele):
    """Execute every scheduled run inline, in index order."""
    control = plan.make_control()
    runner = plan.make_runner(control, tele)
    budget = plan.new_budget()
    judge = Judge(plan, tele)
    run_inline(plan, judge, runner, budget, tele)
    return judge.finalize(workers=1)


class SessionFeedback(Feedback):
    """The judge as the coordinator's feedback: fold results, steer.

    The judge's cancel signal (``stop_on_first`` divergence) revokes
    unstarted work and drains what is in flight; budget exhaustion
    cancels too (every later run would only expire against the same
    deadline).  Only the judge-driven cancel is announced — that is the
    early exit a user asked for, not an error path.
    """

    def __init__(self, plan, judge, tele):
        self.plan = plan
        self.judge = judge
        self.tele = tele
        self.seen_pids: set = set()

    def fold(self, index: int, value) -> None:
        """Fold one worker result — run record, failure, crash, or
        budget-expiry marker — into the judge."""
        if value is CRASHED:
            self.judge.fold_failure(index, crash_failure(
                self.plan.config, index, f"run {index + 1}"))
            return
        merge_worker_telemetry(self.tele, value, self.seen_pids)
        fold_attempt(self.judge, index, value["record"], value["failure"],
                     value["expired"])

    def should_cancel(self) -> bool:
        return self.judge.should_cancel()

    def cancel_floor(self):
        return self.judge.divergence_index

    def budget_exhausted(self) -> bool:
        return self.judge.budget_exhausted

    def progress(self) -> dict:
        return {"completed": len(self.judge.completed),
                "failed": len(self.judge.failed)}


def pool_session(plan: SessionPlan, tele):
    """Execute the session across a process pool.

    Phase 1 runs serially in the parent until one run completes and the
    replay logs are recorded (crashing leading runs are consumed here
    one at a time, as serial would).  Phase 2 fans the remaining run
    indexes across the pool; results merge by run index, so the
    records/failures — and everything judged from them — are identical
    to the serial session's.
    """
    require_picklable(program=plan.program, config=plan.config)
    # Load the transport's module before the first run, so its import
    # is set-up time, not run time.
    transport_cls = EXECUTORS["process-pool"]
    config = plan.config
    control = plan.make_control()
    runner = plan.make_runner(control, tele)
    budget = plan.new_budget()
    judge = Judge(plan, tele)

    # Phase 1 — the record run (serial, in the parent).  It also pins
    # the judge's reference: the lowest-index record always folds first.
    index = run_inline(plan, judge, runner, budget, tele,
                       until=lambda: control.malloc_log.recorded)

    # Phase 2 — replayed runs, fanned out across the pool.
    remaining = [] if judge.budget_exhausted else range(index, config.runs)
    if remaining:
        telemetry_on = tele is not None
        deadline = budget.session_deadline
        transport = transport_cls(plan.n_workers, deadline=deadline,
                                  telemetry=tele)
        tasks = {
            i: (session_run_worker,
                (plan.program, config, i, deadline,
                 control.malloc_log, control.libcall_log, telemetry_on))
            for i in remaining
        }
        feedback = SessionFeedback(plan, judge, tele)
        coordinate(transport, feedback, tasks, tele,
                   program_name=plan.program.name)
        if transport.expired:
            judge.fold_expired()
    return judge.finalize(workers=plan.n_workers)


# -- campaigns ----------------------------------------------------------------


def check_input(program_factory, point, config, telemetry=None):
    """Check one campaign input: build its program, run its session.

    Returns ``(outcome, program_name)``.  A session that raises a
    :class:`~repro.errors.ReproError` becomes an ``error`` outcome; a
    shutdown signal is re-raised — it stops the whole campaign, and the
    journal keeps the inputs completed so far for ``--resume``.
    *program_name* is None if the factory itself raised.
    """
    program_name = None
    try:
        program = program_factory(**point.params)
        program_name = program.name
        result = execute_session(program, config, telemetry=telemetry)
        return outcome_from_result(point, result), program_name
    except SessionInterrupted:
        raise
    except ReproError as exc:
        return (error_outcome(point, type(exc).__name__, str(exc)),
                program_name)


class CampaignFeedback(Feedback):
    """The campaign's merge hook: :meth:`record` for the serial loop,
    :meth:`fold` for the coordinator.

    Campaigns never cancel mid-fleet (every input gets its verdict), so
    :meth:`fold` only attributes crashes and merges worker telemetry
    before handing the outcome to :meth:`record`.
    """

    def __init__(self, points: dict, journal, tele):
        self.points = points  # position -> InputPoint
        self.journal = journal
        self.tele = tele
        self.outcomes: dict = {}
        self.seen_pids: set = set()
        self.program_name = None

    def fold(self, pos: int, value) -> None:
        if value is CRASHED:
            point = self.points[pos]
            self.record(pos, error_outcome(
                point, WorkerCrashError.__name__,
                f"worker process checking input {point.name!r} "
                f"died unexpectedly"))
            return
        merge_worker_telemetry(self.tele, value, self.seen_pids)
        self.record(pos, value["outcome"], value.get("program"))

    def record(self, pos: int, outcome, program_name=None) -> None:
        """The single merge hook every completed input passes through.

        The parent is the journal's only writer (workers return
        outcomes; only the lock owner appends), and the
        ``input_error``/``input_verdict`` events are emitted from
        exactly one place for every backend.
        """
        if program_name:
            self.program_name = program_name
        point, tele = self.points[pos], self.tele
        if tele and outcome.outcome == OUTCOME_ERROR:
            tele.event("input_error", input=point.name, error=outcome.error,
                       message=outcome.error_message)
        self.outcomes[pos] = outcome
        if self.journal is not None:
            self.journal.append_outcome(outcome)
        if tele:
            tele.event("input_verdict", program=self.program_name,
                       input=point.name, outcome=outcome.outcome,
                       deterministic=outcome.deterministic,
                       det_at_end=outcome.det_at_end,
                       n_ndet_points=outcome.n_ndet_points)


def fan_out_campaign(program_factory, points, config, feedback,
                     n_workers: int, total=None) -> None:
    """Fan campaign inputs across worker processes.

    *points* is ``[(position, InputPoint), ...]`` — the inputs still to
    run, keyed by their position in the campaign's input list so the
    merged outcomes keep input order.  Every outcome lands in
    *feedback* (a :class:`CampaignFeedback`).
    """
    transport_cls = EXECUTORS["process-pool"]
    tele = feedback.tele
    # Campaign parallelism is across inputs, never nested: each worker
    # runs its session serially, so an explicit pool executor in the
    # config must not force a pool *inside* a pool worker.
    worker_config = replace(config, workers=1, executor="auto")
    telemetry_on = tele is not None
    require_picklable(program_factory=program_factory, config=config)
    tasks = {pos: (campaign_input_worker,
                   (program_factory, point, worker_config, telemetry_on))
             for pos, point in points}
    transport = transport_cls(n_workers, telemetry=tele)
    if tele:
        for pos, point in points:
            tele.event("progress", kind="input", input=point.name,
                       index=pos, total=total)
    coordinate(transport, feedback, tasks, tele)


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

        feedback = CampaignFeedback(dict(pending), journal, tele)
        if n_workers > 1 and len(pending) > 1:
            # Inputs always fan out across the pool (``serial`` has no
            # meaning *across* inputs); the executor name is still
            # validated.
            resolve_executor(config.executor, n_workers)
            fan_out_campaign(program_factory, pending, config, feedback,
                             n_workers, total=len(inputs))
        else:
            # Serial loop.  With a single pending input the campaign
            # stays serial and lets the session itself parallelize.
            for index, point in pending:
                if tele:
                    tele.event("progress", kind="input",
                               program=feedback.program_name,
                               input=point.name, index=index,
                               total=len(inputs))
                feedback.record(index, *check_input(
                    program_factory, point, config, telemetry))
        by_position.update(feedback.outcomes)
        program_name = feedback.program_name
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
