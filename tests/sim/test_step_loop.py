"""The runtime's step loop against a reference that decides every step.

Mid-block, every scheduler keeps the current thread, so the runner
continues it without scanning the runnable set or calling
:meth:`~repro.sim.scheduler.Scheduler.pick`, and re-places it on its
core only on a switch or when threads migrate.  ``ReferenceRunner``
keeps the loop's earlier shape: rescan, ``pick`` and ``schedule_thread``
on every step, through the same step body.  Both loops must produce
identical runs under every scheduler, memory model, switch granularity
and migration setting.  The tests after the differential ones pin the
runner/scheduler contract itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core.schemes.base import SchemeConfig
from repro.errors import DeadlockError, SchedulerError
from repro.sim.context import SWITCH_POINTS, Op
from repro.sim.dpor import DporScheduler, TracingDecisionScheduler
from repro.sim.layout import StaticLayout
from repro.sim.program import Program, Runner, _Status
from repro.sim.scheduler import (DecisionScheduler, PctScheduler,
                                 RandomScheduler, RoundRobinScheduler)
from repro.sim.sync import Lock
from repro.workloads.fft import Fft
from repro.workloads.storebuffer import SbDclBroken

from _programs import CondQueueProgram, Fig1Program


class _Recording:
    """Logs every executed step as ``(actor, op kind)``; a drain's
    actor is its negative pseudo-tid and its kind ``"drain"``."""

    def __init__(self, program, **kwargs):
        super().__init__(program, machine_hook=self._record_drains, **kwargs)

    def _record_drains(self, machine):
        execute = machine.execute_drain

        def recorded(pseudo_tid):
            self.steps.append((pseudo_tid, "drain"))
            return execute(pseudo_tid)

        machine.execute_drain = recorded

    def _run_body(self, seed):
        self.steps = []
        return super()._run_body(seed)

    def _step(self, thread):
        op = super()._step(thread)
        self.steps.append((thread.tid, op.kind if op is not None else None))
        return op


class RecordingRunner(_Recording, Runner):
    """The production loop, recorded."""


class ReferenceRunner(_Recording, Runner):
    """The step loop as it was before mid-block continuation."""

    def _run_phase(self, threads: dict) -> None:
        for thread in threads.values():
            self._advance(thread, None)
        self._threads = threads
        buffering = self.machine.memory_model is not None
        observing = getattr(self.scheduler, "wants_observations", False)
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
                if observing:
                    self.scheduler.observe_step(tid, Op("drain",
                                                        (owner, address)))
                at_switch = True
            else:
                if current is not None and tid != current:
                    self._sched_switches += 1
                thread = threads[tid]
                self.machine.schedule_thread(tid)
                op = self._step(thread)
                if observing:
                    self.scheduler.observe_step(tid, op)
                at_switch = self.scheduler.is_switch_point(
                    op.kind if op is not None else None)
                current = tid
            self.step_count += 1


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


def _runs(runner_cls, program, scheduler, memory_model, migrate_prob):
    runner = runner_cls(program(), scheme_factory=SchemeConfig(),
                        scheduler=scheduler, memory_model=memory_model,
                        migrate_prob=migrate_prob)
    runs = []
    # Consecutive runs on one scheduler: DPOR carries its frontier
    # from one run to the next.
    for seed in range(3):
        record = runner.run(seed)
        runs.append((runner.steps, runner.step_count, runner._sched_picks,
                     runner._sched_switches, record,
                     _scheduler_state(scheduler)))
    return runs


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
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        assert got[0] == want[0]  # the (actor, op kind) step trace
        assert got[1:] == want[1:]


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
