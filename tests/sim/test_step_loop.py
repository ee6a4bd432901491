"""The runtime's step loop against a reference that decides every step.

Mid-block, every scheduler keeps the current thread, so the runner
continues it without scanning the runnable set or calling
:meth:`~repro.sim.scheduler.Scheduler.pick`, and re-places it on its
core only on a switch or when threads migrate.  It runs the plain ops
(``load``, ``store``, ``compute``) inline and keeps their counts in
locals until the phase ends.  ``ReferenceRunner`` keeps the loop's
earlier shape: rescan, ``pick``, ``schedule_thread`` and ``_step`` on
every step, with every op dispatched through ``_handlers`` and charged
on the spot.  Both loops must produce identical runs, counters in the
same key order, under every scheduler, memory model, switch
granularity and migration setting, with split stores, a tracer or
cache models attached, and when a run is cut short.  The tests after
the differential ones pin the runner/scheduler contract itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core.schemes.base import SchemeConfig
from repro.errors import DeadlockError, SchedulerError
from repro.sim.cache import attach_caches
from repro.sim.context import SWITCH_POINTS, Op
from repro.sim.dpor import DporScheduler, TracingDecisionScheduler
from repro.sim.layout import StaticLayout
from repro.sim.program import Program, Runner, _Status
from repro.sim.scheduler import (DecisionScheduler, PctScheduler,
                                 RandomScheduler, RoundRobinScheduler)
from repro.sim.sync import Lock
from repro.sim.trace import HbTracer
from repro.workloads.fft import Fft
from repro.workloads.storebuffer import SbDclBroken

from _programs import CondQueueProgram, Fig1Program


class _Recording:
    """Logs every executed step as ``(actor, op kind)``; a drain's
    actor is its negative pseudo-tid and its kind ``"drain"``, a
    wakeup's kind None.

    The log is taken at the scheduler's ``observe_step``, which the
    runtime calls after every step: plain ops run inline, everything
    else through ``_step``, drains through the machine.  The wrapper
    asks for observations and forwards them to a scheduler that wants
    them itself."""

    def __init__(self, program, **kwargs):
        super().__init__(program, **kwargs)
        scheduler = self.scheduler
        inner = (scheduler.observe_step
                 if getattr(scheduler, "wants_observations", False)
                 else None)

        def observe_step(actor, op):
            self.steps.append((actor, op.kind if op is not None else None))
            if inner is not None:
                inner(actor, op)

        scheduler.observe_step = observe_step
        scheduler.wants_observations = True

    def _run_body(self, seed):
        self.steps = []
        return super()._run_body(seed)


class RecordingRunner(_Recording, Runner):
    """The production loop, recorded."""


class ReferenceRunner(_Recording, Runner):
    """The step loop as it was before mid-block continuation and the
    inline plain ops: rescan, ``pick``, ``schedule_thread`` and
    ``_step`` (so ``_handlers``) on every step, counters charged op by
    op."""

    def _run_phase(self, threads: dict) -> None:
        for thread in threads.values():
            self._advance(thread, None)
        self._threads = threads
        buffering = self.machine.memory_model is not None
        current = None
        at_switch = True
        while True:
            runnable = sorted(
                t.tid for t in threads.values() if self._runnable(t))
            if not runnable:
                pending_drains = buffering and self.machine.drain_choices()
                if all(t.status is _Status.DONE for t in threads.values()):
                    if not pending_drains:
                        break
                elif not pending_drains:
                    raise DeadlockError("deadlock")
            if buffering:
                runnable = self.machine.drain_choices() + runnable
            tid = self.scheduler.pick(runnable, current, at_switch)
            if tid not in runnable:
                raise SchedulerError(f"scheduler picked non-runnable tid {tid}")
            self._sched_picks += 1
            if tid < 0:
                owner, address = self.machine.execute_drain(tid)
                self.scheduler.observe_step(tid, Op("drain", (owner, address)))
                at_switch = True
            else:
                if current is not None and tid != current:
                    self._sched_switches += 1
                thread = threads[tid]
                self.machine.schedule_thread(tid)
                op = self._step(thread)
                self.scheduler.observe_step(tid, op)
                at_switch = self.scheduler.is_switch_point(
                    op.kind if op is not None else None)
                current = tid
            self.step_count += 1
            if self.step_count > self.max_steps:
                raise SchedulerError("run exceeded max_steps")


def _decisions(granularity):
    rng = random.Random(7)
    return TracingDecisionScheduler([rng.randrange(4) for _ in range(400)],
                                    granularity)


SCHEDULERS = {
    "random": RandomScheduler,
    "pct": PctScheduler,
    "round_robin": RoundRobinScheduler,
    "decisions": _decisions,
    "dpor": DporScheduler,
}

PROGRAMS = {
    "fft": lambda: Fft(n_workers=3, log2_n=3),
    "seeded-sb-dcl": lambda: SbDclBroken(n_workers=3),
    "lock": lambda: Fig1Program(),
    "cond": lambda: CondQueueProgram(items=3),
}


def _scheduler_state(scheduler):
    """What a run leaves in the scheduler that later runs depend on."""
    if isinstance(scheduler, DporScheduler):
        return scheduler.last_trace, scheduler.last_run_redundant
    if isinstance(scheduler, TracingDecisionScheduler):
        return scheduler.trace, scheduler.taken, scheduler.choice_counts
    return None


class _Caches:
    """A ``machine_hook`` that attaches L1 models and keeps the last
    run's observer."""

    observer = None

    def __call__(self, machine):
        self.observer = attach_caches(machine)


#: Runner settings the inline plain ops must honour: the default HW
#: scheme; SW-InstantCheck_Inc non-atomic, whose split stores issue a
#: ``read_old`` step before each store; a happens-before tracer that
#: sees every op; and L1 cache models fed by every load.
CONFIGS = {
    "hw": lambda: {"scheme_factory": SchemeConfig()},
    "sw_inc-split": lambda: {
        "scheme_factory": SchemeConfig(kind="sw_inc", atomic=False)},
    "hb-tracer": lambda: {"scheme_factory": SchemeConfig(),
                          "tracer": HbTracer()},
    "caches": lambda: {"scheme_factory": SchemeConfig(),
                       "machine_hook": _Caches()},
}


def _instrumentation_state(runner):
    """What the tracer and the cache models saw, so far."""
    state = []
    if runner.tracer is not None:
        state.append((runner.tracer.sync_signature(),
                      sorted(runner.tracer.racy_addresses())))
    if runner.machine_hook is not None:
        state.append(runner.machine_hook.observer.total_stats())
    return state


def _runs(runner_cls, program, scheduler, memory_model, migrate_prob,
          config="hw"):
    runner = runner_cls(program(), scheduler=scheduler,
                        memory_model=memory_model,
                        migrate_prob=migrate_prob, **CONFIGS[config]())
    runs = []
    # Consecutive runs on one scheduler: DPOR carries its frontier
    # from one run to the next.
    for seed in range(3):
        record = runner.run(seed)
        runs.append((runner.steps, runner.step_count, runner._sched_picks,
                     runner._sched_switches, record,
                     # Key order too: counts kept in locals must reach
                     # the counters in the order of first use.
                     list(record.instructions), list(record.events),
                     _instrumentation_state(runner),
                     _scheduler_state(scheduler)))
    return runs


def _assert_same_runs(fast, reference):
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        assert got[0] == want[0]  # the (actor, op kind) step trace
        assert got[1:] == want[1:]


@pytest.mark.parametrize("migrate_prob", [0.0, 0.3])
@pytest.mark.parametrize("granularity", ["sync", "access"])
@pytest.mark.parametrize("memory_model", ["sc", "tso", "pso"])
@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_step_loop_matches_the_every_step_reference(
        program, scheduler, memory_model, granularity, migrate_prob):
    make_program = PROGRAMS[program]
    make_scheduler = SCHEDULERS[scheduler]
    fast = _runs(RecordingRunner, make_program, make_scheduler(granularity),
                 memory_model, migrate_prob)
    reference = _runs(ReferenceRunner, make_program,
                      make_scheduler(granularity), memory_model, migrate_prob)
    _assert_same_runs(fast, reference)


@pytest.mark.parametrize("config", ["sw_inc-split", "hb-tracer", "caches"])
@pytest.mark.parametrize("granularity", ["sync", "access"])
@pytest.mark.parametrize("memory_model", ["sc", "tso", "pso"])
@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_step_loop_matches_the_reference_under_instrumentation(
        program, scheduler, memory_model, granularity, config):
    make_program = PROGRAMS[program]
    make_scheduler = SCHEDULERS[scheduler]
    fast = _runs(RecordingRunner, make_program, make_scheduler(granularity),
                 memory_model, 0.0, config)
    reference = _runs(ReferenceRunner, make_program,
                      make_scheduler(granularity), memory_model, 0.0, config)
    _assert_same_runs(fast, reference)


@pytest.mark.parametrize("memory_model", ["sc", "tso", "pso"])
def test_run_stopped_mid_phase_flushes_its_counters(memory_model):
    """A run cut by ``max_steps`` inside the worker phase leaves the
    same steps, step count and counters, in the same key order, as the
    reference that charges op by op."""
    def runner(runner_cls, max_steps):
        return runner_cls(Fft(n_workers=3, log2_n=3),
                          scheme_factory=SchemeConfig(),
                          scheduler=RandomScheduler(),
                          memory_model=memory_model, max_steps=max_steps)

    full = runner(RecordingRunner, 20_000_000)
    full.run(0)
    # Past the setup phase, well before the end of the workers'.
    max_steps = full.step_count // 2
    outcomes = []
    for runner_cls in (RecordingRunner, ReferenceRunner):
        stopped = runner(runner_cls, max_steps)
        with pytest.raises(SchedulerError):
            stopped.run(0)
        counters = stopped.counters
        kinds = [kind for _actor, kind in stopped.steps]
        assert counters.events["loads"] == kinds.count("load") > 0
        assert counters.events["stores"] == kinds.count("store") > 0
        outcomes.append((stopped.steps, stopped.step_count,
                         stopped._sched_picks,
                         list(counters.instructions.items()),
                         list(counters.events.items())))
    assert outcomes[0][1] == max_steps + 1
    assert outcomes[0] == outcomes[1]


class ClockProgram(Program):
    """Two workers do plain work, then read the clock and store what
    they read."""

    name = "clock"

    def __init__(self):
        layout = StaticLayout()
        self.x = layout.var("x")
        self.seen = [layout.var(f"seen{wid}") for wid in range(2)]
        super().__init__(n_workers=2, static_words=layout.words)

    def worker(self, ctx, st, wid):
        for _ in range(3):
            value = yield from ctx.load(self.x)
            yield from ctx.compute(2)
            yield from ctx.store(self.x, value + 1)
        now = yield from ctx.gettimeofday()
        yield from ctx.store(self.seen[wid], now)


@pytest.mark.parametrize("seed", range(4))
def test_time_reads_the_step_count_before_its_step(seed):
    """Without InstantCheck control, ``time`` returns the runner's step
    count, which the loop keeps in a local: it must be written back
    before the handler runs, however many plain steps ran inline."""
    runner = RecordingRunner(ClockProgram())
    runner.run(seed)
    program = runner.program
    for wid in range(2):
        step = runner.steps.index((wid + 1, "time"))
        assert runner.memory.load(program.seen[wid]) == step


# -- the runner/scheduler contract -----------------------------------------------


class CountingScheduler(RandomScheduler):
    """Counts ``pick`` calls and logs each ``choose`` with the kind of
    the step that preceded it."""

    wants_observations = True

    def begin_run(self, seed):
        super().begin_run(seed)
        self.picks = 0
        self.chooses = []
        self.last_kind = None

    def observe_step(self, actor, op):
        self.last_kind = op.kind if op is not None else None

    def pick(self, runnable, current, at_switch_point):
        self.picks += 1
        return super().pick(runnable, current, at_switch_point)

    def choose(self, runnable, current):
        self.chooses.append((current, current in runnable, self.last_kind))
        return super().choose(runnable, current)


@pytest.mark.parametrize("memory_model", ["sc", "tso"])
@pytest.mark.parametrize("program", list(PROGRAMS))
def test_choose_runs_only_at_switch_points_or_when_blocked(program,
                                                           memory_model):
    scheduler = CountingScheduler()
    runner = Runner(PROGRAMS[program](), scheduler=scheduler,
                    memory_model=memory_model)
    for seed in range(3):
        runner.run(seed)
        assert scheduler.chooses
        for current, still_runnable, last_kind in scheduler.chooses:
            assert (current is None or not still_runnable
                    or last_kind is None or last_kind == "drain"
                    or last_kind in SWITCH_POINTS), (current, last_kind)
        # The runtime asks only when it has to: every pick is a choice.
        assert scheduler.picks == len(scheduler.chooses)
        assert scheduler.picks < runner.step_count


def test_access_granularity_chooses_on_every_step():
    scheduler = CountingScheduler(granularity="access")
    runner = Runner(PROGRAMS["fft"](), scheduler=scheduler)
    runner.run(0)
    assert len(scheduler.chooses) == runner.step_count


class LoggingDecisions(DecisionScheduler):
    """A decision-vector scheduler that logs its ``choose`` calls."""

    def begin_run(self, seed):
        super().begin_run(seed)
        self.calls = []

    def choose(self, runnable, current):
        self.calls.append((list(runnable), current))
        return super().choose(runnable, current)


class HeldLockProgram(Program):
    """Worker 0 holds the lock across a yield; worker 1's first block
    is a load followed by a lock on that same lock."""

    name = "held-lock"

    def __init__(self):
        layout = StaticLayout()
        self.x = layout.var("x")
        super().__init__(n_workers=2, static_words=layout.words)

    def make_state(self):
        st = super().make_state()
        st.lock = Lock("held")
        return st

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.lock(st.lock)
            yield from ctx.sched_yield()
            yield from ctx.store(self.x, 1)
            yield from ctx.unlock(st.lock)
        else:
            yield from ctx.load(self.x)
            yield from ctx.lock(st.lock)
            yield from ctx.unlock(st.lock)


def test_mid_block_lock_on_a_held_lock_takes_the_full_pick():
    # Decisions: tid 1 locks, tid 1 yields, then tid 2 runs its load.
    scheduler = LoggingDecisions([0, 0, 1])
    runner = RecordingRunner(HeldLockProgram(), scheduler=scheduler)
    runner.run(0)
    assert runner.steps[:5] == [(1, "lock"), (1, "yield"), (2, "load"),
                                (1, "store"), (1, "unlock")]
    # After the load (no switch point) tid 2 is blocked on the held
    # lock, so the scheduler chooses among the others.
    assert scheduler.calls[3] == ([1], 2)


class FencedStoreProgram(Program):
    """One worker: a store, then a lock — a fence that stalls the
    thread until the store has drained from its buffer."""

    name = "fenced-store"

    def __init__(self):
        layout = StaticLayout()
        self.x = layout.var("x")
        super().__init__(n_workers=1, static_words=layout.words)

    def make_state(self):
        st = super().make_state()
        st.lock = Lock("fence")
        return st

    def worker(self, ctx, st, wid):
        yield from ctx.store(self.x, 1)
        yield from ctx.lock(st.lock)
        yield from ctx.unlock(st.lock)


def test_mid_block_fence_stalled_under_tso_picks_the_drain():
    scheduler = LoggingDecisions()
    runner = RecordingRunner(FencedStoreProgram(), scheduler=scheduler,
                             memory_model="tso")
    runner.run(0)
    drain = -1 - 1  # tid 1's TSO buffer
    assert scheduler.calls[:2] == [([1], None), ([drain], 1)]
    assert runner.steps == [(1, "store"), (drain, "drain"), (1, "lock"),
                            (1, "unlock")]
    assert runner.memory.load(runner.program.x) == 1


def test_subclass_op_handler_overrides_dispatch():
    """Handler names are scanned once per class: a subclass's ``_op_*``
    override is what its instances dispatch to, and the base class's
    runners keep the base handler."""
    class CountingRunner(Runner):
        def _op_store(self, thread, args):
            self.stores_seen += 1
            return super()._op_store(thread, args)

    counting = CountingRunner(Fig1Program(), n_cores=2)
    counting.stores_seen = 0
    record = counting.run(7)
    assert counting.stores_seen == record.events["stores"] > 0
    base = Runner(Fig1Program(), n_cores=2)
    assert base._handlers["store"].__func__ is Runner._op_store
