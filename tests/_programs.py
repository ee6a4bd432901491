"""Small example programs with known determinism behavior."""

from __future__ import annotations

from repro.sim.layout import StaticLayout
from repro.sim.program import Program
from repro.sim.sync import CondVar, Lock


class Fig1Program(Program):
    """The paper's Figure 1: G += L under a lock, two threads.

    Externally deterministic (G always ends at 12) but internally
    nondeterministic (update order and intermediate values vary).
    """

    name = "fig1"

    def __init__(self, initial: int = 2, locals_=(7, 3), fp: bool = False):
        layout = StaticLayout()
        self.G = layout.var("G", tag="f" if fp else "i")
        super().__init__(n_workers=len(locals_), static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types
        self.initial = initial
        self.locals_ = locals_
        self.fp = fp

    def make_state(self):
        st = super().make_state()
        st.lock = Lock("g_lock")
        return st

    def setup(self, ctx, st):
        yield from ctx.store(self.G, float(self.initial) if self.fp
                             else self.initial)

    def worker(self, ctx, st, wid):
        local = self.locals_[wid]
        yield from ctx.lock(st.lock)
        g = yield from ctx.load(self.G)
        value = (float(g) + float(local)) if self.fp else g + local
        yield from ctx.store(self.G, value)
        yield from ctx.unlock(st.lock)


class CondQueueProgram(Program):
    """One producer, one consumer over a single-slot mailbox."""

    name = "condp"

    def __init__(self, items=5):
        layout = StaticLayout()
        self.slot = layout.var("slot")
        self.full = layout.var("full")
        self.consumed = layout.array("consumed", items)
        super().__init__(n_workers=2, static_words=layout.words)
        self.items = items

    def make_state(self):
        st = super().make_state()
        st.lock = Lock("mx")
        st.cond = CondVar("cv")
        return st

    def worker(self, ctx, st, wid):
        if wid == 0:  # producer
            for i in range(self.items):
                yield from ctx.lock(st.lock)
                while (yield from ctx.load(self.full)):
                    yield from ctx.cond_wait(st.cond, st.lock)
                yield from ctx.store(self.slot, i + 100)
                yield from ctx.store(self.full, 1)
                yield from ctx.cond_broadcast(st.cond)
                yield from ctx.unlock(st.lock)
        else:  # consumer
            for i in range(self.items):
                yield from ctx.lock(st.lock)
                while not (yield from ctx.load(self.full)):
                    yield from ctx.cond_wait(st.cond, st.lock)
                value = yield from ctx.load(self.slot)
                yield from ctx.store(self.consumed + i, value)
                yield from ctx.store(self.full, 0)
                yield from ctx.cond_broadcast(st.cond)
                yield from ctx.unlock(st.lock)


class RacyProgram(Program):
    """Unsynchronized read-modify-write: lost updates, nondeterministic."""

    name = "racy"

    def __init__(self, n_workers: int = 2):
        layout = StaticLayout()
        self.G = layout.var("G")
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types

    def setup(self, ctx, st):
        yield from ctx.store(self.G, 2)

    def worker(self, ctx, st, wid):
        g = yield from ctx.load(self.G)
        yield from ctx.sched_yield()
        yield from ctx.store(self.G, g + (wid + 1) * 7)


class AllocProgram(Program):
    """Workers allocate, write, and publish their block addresses.

    Without malloc replay the published pointers differ run to run;
    with replay they are fixed.
    """

    name = "allocp"

    def __init__(self, n_workers: int = 3, block_words: int = 4):
        layout = StaticLayout()
        self.ptrs = layout.array("ptrs", n_workers, tag="p")
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types
        self.block_words = block_words

    def worker(self, ctx, st, wid):
        yield from ctx.sched_yield()
        block = yield from ctx.malloc(self.block_words, site="alloc.c:buf")
        for j in range(self.block_words):
            yield from ctx.store(block.base + j, wid * 10 + j)
        yield from ctx.store(self.ptrs + wid, block.base)


class KillOwnProcessProgram(Program):
    """Deterministic workload that hard-kills any process other than the
    one that constructed it.

    Built in the checker's parent process, so serial runs pass; when the
    parallel engine ships it to a worker process, the first step there
    calls ``os._exit`` — the analog of a segfaulting worker.  Exercises
    crash containment (``RunFailure`` with ``WorkerCrashError``, never a
    hung pool).
    """

    name = "killworker"

    def __init__(self, home_pid: int | None = None):
        import os

        layout = StaticLayout()
        self.G = layout.var("G")
        super().__init__(n_workers=2, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types
        self.home_pid = home_pid if home_pid is not None else os.getpid()

    def worker(self, ctx, st, wid):
        import os

        if os.getpid() != self.home_pid:
            os._exit(42)
        yield from ctx.store(self.G + 0, wid)


class SlowProgram(Program):
    """Deterministic workload that burns real wall-clock time per run.

    Each worker thread sleeps ``delay_s`` once, so a run takes roughly
    ``delay_s`` regardless of scheduling.  Used to test deadline
    enforcement and to give the parallel engine something worth
    overlapping.
    """

    name = "slow"

    def __init__(self, delay_s: float = 0.2, n_workers: int = 2):
        import time

        layout = StaticLayout()
        self.G = layout.var("G")
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types
        self.delay_s = delay_s
        self._sleep = time.sleep

    def worker(self, ctx, st, wid):
        self._sleep(self.delay_s)
        yield from ctx.store(self.G + 0, 1)
