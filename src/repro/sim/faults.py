"""Seeded fault-injection workloads.

The fault-tolerant checker claims that crashing and hanging runs are
*determinism evidence*, not infrastructure noise.  These programs prove
it: each one deterministically triggers a specific failure class on a
schedule-dependent subset of seeds, so tests (and the CI smoke run) can
assert exactly how the checker classifies each failure —

* :class:`DeadlockFault` — the classic AB-BA lock-order inversion;
  schedules that interleave the two critical sections deadlock
  (:class:`~repro.errors.DeadlockError`), the rest complete.
* :class:`HeapHogFault` — a racy flag decides whether a worker issues
  an allocation far beyond the simulated heap
  (:class:`~repro.errors.AllocationError`, "simulated heap exhausted").
* :class:`ReplaySplitFault` — a racy flag decides *how many* blocks a
  worker allocates; under ``strict_replay`` any run whose allocation
  sequence differs from the recorded one raises
  :class:`~repro.errors.ReplayError` (log divergence).
* :class:`LivelockFault` — a worker that loses a racy handshake spins
  forever; the runner's ``max_steps`` budget converts the hang into a
  :class:`~repro.errors.SchedulerError`.
* :class:`AlwaysCrashFault` — a double free on every schedule
  (:class:`~repro.errors.AllocationError`); the checker must classify
  the input ``infeasible``, not nondeterministic.

All of them are externally deterministic when they *do* complete (their
workers write disjoint words), so the only divergence a session can see
is the injected failure itself.  :data:`FAULT_REGISTRY` names them for
the CLI (``repro check deadlock-fault``, ``repro campaign ...``).
"""

from __future__ import annotations

from repro.core.registry import Registry
from repro.sim.layout import StaticLayout
from repro.sim.program import Program
from repro.sim.sync import Lock


class FaultProgram(Program):
    """Base class: a :class:`StaticLayout` plus per-worker result slots."""

    name = "fault"

    def __init__(self, n_workers: int = 2):
        layout = StaticLayout()
        self.flag = layout.var("flag")
        self.done = layout.array("done", max(n_workers, 1))
        self.declare_globals(layout)
        super().__init__(n_workers=n_workers, static_words=max(layout.words, 1))
        self.static_layout = layout
        self.static_types = layout.types

    def declare_globals(self, layout: StaticLayout) -> None:
        """Hook for subclasses to add more globals."""

    def setup(self, ctx, st):
        yield from ctx.store(self.flag, 0)

    def finish(self, ctx, wid: int):
        """Disjoint per-worker write: deterministic when runs complete."""
        yield from ctx.store(self.done + wid, wid + 1)


class DeadlockFault(FaultProgram):
    """AB-BA lock inversion: deadlocks on the interleaved schedules.

    Worker 0 takes A then B; worker 1 takes B then A, with a scheduling
    point between the two acquisitions.  Seeds whose interleaving lets
    both workers grab their first lock before either grabs its second
    deadlock; the rest run to completion deterministically.
    """

    name = "deadlock-fault"

    def make_state(self):
        st = super().make_state()
        st.lock_a = Lock("fault.A")
        st.lock_b = Lock("fault.B")
        return st

    def worker(self, ctx, st, wid):
        first, second = ((st.lock_a, st.lock_b) if wid % 2 == 0
                         else (st.lock_b, st.lock_a))
        yield from ctx.lock(first)
        yield from ctx.sched_yield()
        yield from ctx.lock(second)
        yield from self.finish(ctx, wid)
        yield from ctx.unlock(second)
        yield from ctx.unlock(first)


class HeapHogFault(FaultProgram):
    """Racy allocation burst that exhausts the simulated heap.

    Worker 0 raises the flag; worker 1 reads it *unsynchronized*.  On
    schedules where the read beats the write, worker 1 requests a block
    far past the heap limit and the allocator raises.
    """

    name = "heap-hog-fault"

    def __init__(self, n_workers: int = 2, hog_words: int = 1 << 26):
        super().__init__(n_workers=n_workers)
        self.hog_words = hog_words

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.store(self.flag, 1)
        else:
            seen = yield from ctx.load(self.flag)
            if not seen:
                yield from ctx.malloc(self.hog_words, site="fault.c:hog")
        yield from self.finish(ctx, wid)


class ReplaySplitFault(FaultProgram):
    """Schedule-dependent allocation *sequence* — replay log divergence.

    Worker 1 allocates one block, plus a second one only when it loses
    the race with worker 0's flag store.  The record run fixes one
    sequence; any later run on the other side of the race performs a
    different (thread, allocation-index) sequence.  Lenient replay
    surfaces that as address nondeterminism; ``strict_replay`` raises
    :class:`~repro.errors.ReplayError` — the transient class retry
    policies exist for.
    """

    name = "replay-split-fault"

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.store(self.flag, 1)
        else:
            seen = yield from ctx.load(self.flag)
            block = yield from ctx.malloc(4, site="fault.c:base")
            yield from ctx.store(block.base, wid)
            if not seen:
                extra = yield from ctx.malloc(4, site="fault.c:extra")
                yield from ctx.store(extra.base, wid)
                yield from ctx.free(extra.base)
            yield from ctx.free(block.base)
        yield from self.finish(ctx, wid)


class LivelockFault(FaultProgram):
    """A lost handshake leaves a worker spinning forever.

    Worker 1 samples ``flag`` once, unsynchronized; if it reads 0 it
    spins on a condition nobody will ever make true.  Runs on the losing
    side of the race exceed the runner's ``max_steps`` and are aborted
    as livelock (:class:`~repro.errors.SchedulerError`); check such
    programs with a small ``max_steps`` budget.
    """

    name = "livelock-fault"

    def declare_globals(self, layout: StaticLayout) -> None:
        self.never = layout.var("never")

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.store(self.flag, 1)
        else:
            seen = yield from ctx.load(self.flag)
            while not seen:
                yield from ctx.sched_yield()
                seen = yield from ctx.load(self.never)
        yield from self.finish(ctx, wid)


class AlwaysCrashFault(FaultProgram):
    """Double free on every schedule: the *infeasible* case.

    No interleaving completes, so a checking session learns nothing
    about determinism — the outcome must be ``infeasible``, distinct
    from crash divergence.
    """

    name = "always-crash-fault"

    def worker(self, ctx, st, wid):
        block = yield from ctx.malloc(2, site="fault.c:dbl")
        yield from ctx.free(block.base)
        yield from ctx.free(block.base)
        yield from self.finish(ctx, wid)


#: Fault workloads by CLI name.  Kept separate from the Table 1
#: :data:`repro.workloads.REGISTRY` — these are checker-infrastructure
#: probes, not paper applications.
FAULT_REGISTRY = Registry("faults", what="fault workload")
for _cls in (DeadlockFault, HeapHogFault, ReplaySplitFault, LivelockFault,
             AlwaysCrashFault):
    FAULT_REGISTRY.register(_cls.name, _cls)
del _cls


def make_fault(name: str, n_workers: int = 2, **kwargs) -> FaultProgram:
    """Instantiate a fault-injection workload by registry name."""
    return FAULT_REGISTRY.get(name)(n_workers=n_workers, **kwargs)
