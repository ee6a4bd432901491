"""Tests for the runtime trampoline: blocking, barriers, condvars,
checkpoints, deadlock detection."""

import pytest

from repro.errors import DeadlockError, SchedulerError
from repro.sim.layout import StaticLayout
from repro.sim.program import NativeServices, Program, Runner
from repro.sim.scheduler import RandomScheduler, RoundRobinScheduler
from repro.sim.sync import Barrier, Lock

from _programs import CondQueueProgram


class CounterProgram(Program):
    """Lock-protected increments; final count == workers * increments."""

    name = "counterp"

    def __init__(self, n_workers=4, increments=5):
        layout = StaticLayout()
        self.count = layout.var("count")
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.static_layout = layout
        self.increments = increments

    def make_state(self):
        st = super().make_state()
        st.lock = Lock("count")
        return st

    def worker(self, ctx, st, wid):
        for _ in range(self.increments):
            yield from ctx.lock(st.lock)
            value = yield from ctx.load(self.count)
            yield from ctx.store(self.count, value + 1)
            yield from ctx.unlock(st.lock)


def test_lock_mutual_exclusion():
    program = CounterProgram(n_workers=4, increments=5)
    runner = Runner(program)
    for seed in range(5):
        runner.run(seed)
        assert runner.memory.load(program.count) == 20


class BarrierProgram(Program):
    name = "barrierp"

    def __init__(self, n_workers=3, phases=4):
        layout = StaticLayout()
        self.marks = layout.array("marks", n_workers * phases)
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.phases = phases

    def make_state(self):
        st = super().make_state()
        st.barrier = Barrier(self.n_workers, name="b")
        return st

    def worker(self, ctx, st, wid):
        for phase in range(self.phases):
            yield from ctx.store(self.marks + phase * self.n_workers + wid,
                                 phase + 1)
            yield from ctx.barrier_wait(st.barrier)


def test_barrier_checkpoints_fire_per_generation():
    program = BarrierProgram(phases=4)
    runner = Runner(program)
    record = runner.run(0)
    labels = record.structure
    assert labels == ("b#0", "b#1", "b#2", "b#3", "end")


def test_barrier_synchronizes_phases():
    """At barrier generation g, every thread has finished phase g."""
    program = BarrierProgram(n_workers=3, phases=2)

    seen = []

    class SnoopControl(NativeServices):
        pass

    runner = Runner(program)
    record = runner.run(3)
    # After the run all marks are set.
    for phase in range(2):
        for wid in range(3):
            assert runner.memory.load(
                program.marks + phase * 3 + wid) == phase + 1


def test_condvar_mailbox():
    program = CondQueueProgram(items=5)
    runner = Runner(program)
    for seed in range(4):
        runner.run(seed)
        values = [runner.memory.load(program.consumed + i) for i in range(5)]
        assert values == [100, 101, 102, 103, 104]


class DeadlockProgram(Program):
    name = "deadlockp"

    def __init__(self):
        super().__init__(n_workers=2, static_words=1)

    def make_state(self):
        st = super().make_state()
        st.a, st.b = Lock("a"), Lock("b")
        return st

    def worker(self, ctx, st, wid):
        first, second = (st.a, st.b) if wid == 0 else (st.b, st.a)
        yield from ctx.lock(first)
        yield from ctx.sched_yield()
        yield from ctx.lock(second)


def test_deadlock_detected():
    runner = Runner(DeadlockProgram(), scheduler=RoundRobinScheduler())
    with pytest.raises(DeadlockError):
        runner.run(0)


class SpinProgram(Program):
    """A flag set by one thread, spin-waited by the other."""

    name = "spinp"

    def __init__(self):
        layout = StaticLayout()
        self.flag = layout.var("flag")
        self.seen = layout.var("seen")
        super().__init__(n_workers=2, static_words=layout.words)

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.store(self.flag, 1)
        else:
            while not (yield from ctx.load(self.flag)):
                yield from ctx.sched_yield()
            yield from ctx.store(self.seen, 1)


def test_spin_wait_with_yield_completes():
    runner = Runner(SpinProgram(), scheduler=RandomScheduler())
    for seed in range(5):
        runner.run(seed)
        assert runner.memory.load(1) == 1


def test_max_steps_catches_livelock():
    class ForeverProgram(Program):
        name = "forever"

        def __init__(self):
            super().__init__(n_workers=1, static_words=1)

        def worker(self, ctx, st, wid):
            while True:
                yield from ctx.sched_yield()

    runner = Runner(ForeverProgram(), max_steps=500)
    with pytest.raises(SchedulerError, match="500 steps"):
        runner.run(0)


def test_explicit_checkpoint_op():
    class CheckpointProgram(Program):
        name = "cpp"

        def __init__(self):
            super().__init__(n_workers=1, static_words=2)

        def worker(self, ctx, st, wid):
            yield from ctx.store(0, 1)
            yield from ctx.checkpoint("after-first")
            yield from ctx.store(1, 2)

    record = Runner(CheckpointProgram()).run(0)
    assert record.structure == ("after-first", "end")


def test_setup_teardown_order():
    class PhasedProgram(Program):
        name = "phased"

        def __init__(self):
            super().__init__(n_workers=2, static_words=4)

        def setup(self, ctx, st):
            yield from ctx.store(0, 10)

        def worker(self, ctx, st, wid):
            base = yield from ctx.load(0)
            yield from ctx.store(1 + wid, base + wid)

        def teardown(self, ctx, st):
            a = yield from ctx.load(1)
            b = yield from ctx.load(2)
            yield from ctx.store(3, a + b)

    runner = Runner(PhasedProgram())
    runner.run(0)
    assert runner.memory.load(3) == 21


def test_run_record_counters_and_events():
    record = Runner(CounterProgram()).run(1)
    assert record.events["stores"] >= 20
    assert record.events["loads"] >= 20
    assert record.instructions["sync"] > 0
    assert record.events["checkpoints"] == 1


def test_keep_final_snapshot():
    runner = Runner(CounterProgram(n_workers=2, increments=1),
                    keep_final_snapshot=True)
    record = runner.run(0)
    assert record.final_snapshot == {0: 2}


def test_gettimeofday_and_rand_native():
    class LibProgram(Program):
        name = "libp"

        def __init__(self):
            super().__init__(n_workers=1, static_words=2)

        def worker(self, ctx, st, wid):
            r = yield from ctx.rand()
            t = yield from ctx.gettimeofday()
            yield from ctx.store(0, r)
            yield from ctx.store(1, t)

    runner = Runner(LibProgram())
    runner.run(0)
    r0 = runner.memory.load(0)
    runner.run(1)
    r1 = runner.memory.load(0)
    assert r0 != r1  # native rand varies across runs
