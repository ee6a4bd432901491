"""Programs, the runtime trampoline, and run records.

A :class:`Program` is the simulated analog of one pthreads application:
a ``setup`` phase run by the main thread (allocate and initialize the
input state — the fixed input of Section 2.1), ``n_workers`` worker
threads run under the serializing scheduler, and a ``teardown`` phase
(final reductions, output writes).  A determinism checkpoint fires at
every pthread barrier generation, at every explicit ``ctx.checkpoint``,
and once at the very end of the run.

:class:`Runner` executes one interleaving of a program: it builds a fresh
machine, attaches the InstantCheck scheme (if any) and the nondeterminism
controller, drives the trampoline, and returns a :class:`RunRecord` with
the checkpoint hash sequence that the determinism checker compares across
runs.
"""

from __future__ import annotations

import enum
import functools
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.errors import (BudgetError, DeadlockError, ProgramError,
                          SchedulerError)
from repro.sim.allocator import Allocator
from repro.sim.context import SWITCH_POINTS, Ctx, Op
from repro.sim.counters import CostModel, Counters
from repro.sim.machine import Machine
from repro.sim.memmodel import make_memory_model
from repro.sim.memory import Memory
from repro.sim.scheduler import RandomScheduler, Scheduler
from repro.sim.values import MASK64

#: Op kinds that act as a store-buffer fence for the *issuing* thread:
#: the thread stalls at the op until its buffered stores have retired.
#: This is every synchronization and runtime-service op — the classic
#: "locked instructions flush the write buffer" rule — except ``free``
#: and ``checkpoint``, which wait on *all* buffers (a free removes
#: words from the hashable state and a checkpoint reads a quiescent
#: one).  Crucially the fence does not retire the stores itself: the
#: stalled thread simply drops out of the runnable set, so the drains
#: run as ordinary scheduler steps.  Every buffered store therefore
#: retires as exactly one drain event under every schedule — a fixed
#: event alphabet, which systematic exploration (DPOR) relies on when
#: it argues one explored branch covers a race found in another.
FENCE_OPS = frozenset({
    "lock", "unlock", "barrier", "cond_wait", "cond_signal",
    "cond_broadcast", "rand", "time", "malloc", "write_out", "isa",
})


class Program:
    """Base class for simulated parallel applications.

    Subclasses override :meth:`setup`, :meth:`worker`, and optionally
    :meth:`teardown`; all three are generator functions using the
    :class:`~repro.sim.context.Ctx` API.  ``st`` is a plain namespace for
    Python-side metadata (addresses, sync objects) shared across phases —
    only the simulated memory is part of the hashed program state.
    """

    name = "program"
    #: Optional :class:`~repro.sim.layout.StaticLayout` describing globals;
    #: workloads set both so SW-InstantCheck_Tr and static ignores can
    #: resolve addresses to symbols and types.
    static_layout = None
    static_types: dict | None = None

    def __init__(self, n_workers: int = 8, static_words: int = 64):
        self.n_workers = n_workers
        self.static_words = static_words

    def make_state(self) -> SimpleNamespace:
        return SimpleNamespace()

    def setup(self, ctx: Ctx, st):
        yield from ()

    def worker(self, ctx: Ctx, st, wid: int):
        yield from ()

    def teardown(self, ctx: Ctx, st):
        yield from ()


@dataclass
class CheckpointRecord:
    """One determinism check point of one run."""

    index: int
    label: str
    raw_hash: int | None  # primary-scheme hash before ignore-deletion
    hash: int | None      # primary-scheme hash after deleting ignored structures
    state_words: int      # full-sweep size at this point (overhead model)
    #: Per scheme variant: name -> (raw_hash, adjusted_hash).  Lets one
    #: run be judged under several hash configurations at once (e.g.
    #: bit-by-bit and FP-rounded), as the Table 1 ladder needs.
    variants: dict = field(default_factory=dict)
    snapshot: dict | None = None        # full state, when requested
    blocks: list | None = None          # live allocation table, with snapshot


@dataclass
class RunRecord:
    """Everything the checker needs from one run."""

    program: str
    seed: int
    checkpoints: list = field(default_factory=list)
    output_hashes: dict = field(default_factory=dict)
    instructions: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    final_snapshot: dict | None = None

    @property
    def structure(self) -> tuple:
        """Checkpoint labels, used to align checkpoints across runs."""
        return tuple(c.label for c in self.checkpoints)

    def hashes(self) -> tuple:
        return tuple(c.hash for c in self.checkpoints)

    def raw_hashes(self) -> tuple:
        return tuple(c.raw_hash for c in self.checkpoints)

    def variant_hashes(self, name: str, adjusted: bool = True) -> tuple:
        """Checkpoint hashes under one scheme variant."""
        idx = 1 if adjusted else 0
        return tuple(c.variants[name][idx] for c in self.checkpoints)


class NativeServices:
    """Default runtime services: no InstantCheck control at all.

    malloc returns garbage-filled memory at schedule-dependent addresses,
    ``rand`` draws from one *shared* hidden-state generator (so values
    depend on the global call interleaving), ``gettimeofday`` reflects
    execution progress, and output is discarded unhashed.  This is the
    "Native" configuration of Figure 6 and the uncontrolled baseline the
    checker's controlled runs are contrasted with.
    """

    zero_fill = False

    def begin_run(self, runner, seed: int) -> None:
        self._rand_state = random.Random(seed ^ 0x5EED)

    def end_run(self, runner) -> None:
        pass

    def do_malloc(self, runner, tid: int, nwords: int, site: str, typeinfo):
        return runner.allocator.malloc(tid, nwords, site=site, typeinfo=typeinfo,
                                       zeroed=False)

    def do_free(self, runner, tid: int, base: int) -> None:
        block = runner.allocator.block_of(base)
        if block is None or block.base != base:
            from repro.errors import AllocationError

            raise AllocationError(f"free of non-block address {base:#x}")
        old_values = [runner.memory.load(a) for a in block.addresses()]
        runner.allocator.free(base)
        runner.machine.free_block(tid, block, old_values)
        runner.counters.note("freed_words", block.nwords)

    def do_rand(self, runner, tid: int) -> int:
        return self._rand_state.randrange(1 << 31)

    def do_time(self, runner, tid: int) -> int:
        return runner.step_count

    def do_write(self, runner, tid: int, fd: int, data: tuple) -> None:
        pass

    def resolve_ignores(self, allocator) -> list:
        return []

    def output_hashes(self) -> dict:
        return {}


#: The run deadline is polled every (mask+1) scheduling steps, keeping
#: the ``time.monotonic()`` cost off the per-step fast path.
DEADLINE_CHECK_MASK = 0xFF


class _Status(enum.Enum):
    READY = "ready"
    PARKED = "parked"
    DONE = "done"


class _Thread:
    __slots__ = ("tid", "gen", "pending", "status", "deliver", "waiting_on")

    def __init__(self, tid: int, gen):
        self.tid = tid
        self.gen = gen
        self.pending: Op | None = None
        self.status = _Status.READY
        self.deliver = False
        self.waiting_on = None


#: Op kinds that are neither synchronization nor a fence nor a runtime
#: service: memory accesses and ALU work, most of a run's steps.
#: ``_run_phase`` executes them inline.  A thread whose next op is plain
#: is runnable under every memory model.
PLAIN_OPS = frozenset({"load", "store", "compute"})


@functools.cache
def _op_handler_names(cls) -> tuple:
    """``(op kind, method name)`` for each ``_op_*`` handler of *cls*.

    ``dir()`` is slow and a pool worker builds a runner per task, so the
    scan runs once per concrete class; a subclass's overrides win.
    """
    return tuple((name[len("_op_"):], name) for name in dir(cls)
                 if name.startswith("_op_"))


@functools.cache
def _inline_kinds(cls) -> frozenset:
    """The plain op kinds ``_run_phase`` runs inline for *cls*: those
    whose ``_op_*`` handler *cls* does not override.  An overridden
    kind is dispatched through ``_handlers`` like every other kind."""
    return frozenset(kind for kind in PLAIN_OPS
                     if getattr(cls, "_op_" + kind)
                     is getattr(Runner, "_op_" + kind))


class Runner:
    """Executes one interleaving of a :class:`Program`."""

    def __init__(self, program: Program, *, scheme_factory=None, control=None,
                 scheduler: Scheduler | None = None, n_cores: int = 8,
                 cost_model: CostModel | None = None, snapshot_at: int | None = None,
                 keep_final_snapshot: bool = False, migrate_prob: float = 0.0,
                 max_steps: int = 20_000_000, deadline: float | None = None,
                 tracer=None, machine_hook=None, telemetry=None,
                 memory_model: str = "sc"):
        self.program = program
        self.scheme_factory = scheme_factory
        self.control = control if control is not None else NativeServices()
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()
        self.n_cores = n_cores
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.snapshot_at = snapshot_at
        self.keep_final_snapshot = keep_final_snapshot
        #: Memory-model name (``sc`` / ``tso`` / ``pso``); a fresh model
        #: instance is built per run (see :mod:`repro.sim.memmodel`).
        self.memory_model = memory_model
        self.migrate_prob = migrate_prob
        self.max_steps = max_steps
        #: Absolute ``time.monotonic()`` deadline for the current run, or
        #: None.  Checked every :data:`DEADLINE_CHECK_MASK`+1 steps; the
        #: checker re-arms it before each run from its session budget.
        self.deadline = deadline
        #: Optional :class:`~repro.sim.trace.HbTracer`-like observer that
        #: sees every executed op (for HB signatures and race detection).
        self.tracer = tracer
        #: Optional callable invoked with each run's fresh machine right
        #: after construction (e.g. to attach L1 cache models).
        self.machine_hook = machine_hook
        #: Optional :class:`~repro.telemetry.Telemetry` session; when
        #: enabled, every run gets a span with wall-clock timing, and the
        #: registry accumulates per-scheme hash-update counts, Figure 6
        #: instruction categories, and scheduler decisions.
        self.telemetry = telemetry
        self._handlers = {kind: getattr(self, name)
                          for kind, name in _op_handler_names(type(self))}

        # Per-run state, rebuilt by run(); exposed for inspection in tests.
        self.memory: Memory | None = None
        self.machine: Machine | None = None
        self.allocator: Allocator | None = None
        self.counters: Counters | None = None
        self.scheme = None
        self.schemes: dict = {}
        self.step_count = 0
        self.checkpoints: list[CheckpointRecord] = []

    # -- top level -------------------------------------------------------------------

    def run(self, seed: int) -> RunRecord:
        """Execute one full run under schedule *seed* and record it."""
        tele = self.telemetry
        if tele is None or not tele.enabled:
            return self._run_body(seed)
        with tele.span("run", program=self.program.name, seed=seed) as span:
            start = time.perf_counter()
            record = self._run_body(seed)
            elapsed = time.perf_counter() - start
            span.set(steps=self.step_count,
                     checkpoints=len(self.checkpoints),
                     sched_picks=self._sched_picks,
                     sched_switches=self._sched_switches)
            self._record_run_metrics(tele, elapsed)
        return record

    def _record_run_metrics(self, tele, elapsed: float) -> None:
        """Fold one finished run into the telemetry registry."""
        reg = tele.registry
        reg.counter("runs").inc()
        reg.histogram("run_seconds", program=self.program.name).observe(elapsed)
        if elapsed > 0:
            reg.histogram("steps_per_second").observe(self.step_count / elapsed)
        reg.counter("sched_picks").inc(self._sched_picks)
        reg.counter("sched_switches").inc(self._sched_switches)
        # Mirror the Figure 6 instruction categories of sim/counters.py.
        for category, count in self.counters.instructions.items():
            reg.counter("instructions", category=category).inc(count)
        for name, scheme in self.schemes.items():
            reg.counter("scheme_hash_updates", scheme=scheme.name,
                        variant=name).inc(scheme.hash_updates)

    def _run_body(self, seed: int) -> RunRecord:
        self.memory = Memory(self.program.static_words, entropy=seed)
        self.counters = Counters(self.cost_model)
        self.machine = Machine(self.memory, self.n_cores, self.counters,
                               migrate_prob=self.migrate_prob,
                               migrate_rng=random.Random(seed ^ 0xC0DE),
                               memory_model=make_memory_model(self.memory_model))
        self.allocator = Allocator(self.memory)
        if self.machine_hook is not None:
            self.machine_hook(self.machine)
        if hasattr(self.scheduler, "bind_runner"):
            # Systematic schedulers inspect pending ops and drain queues
            # to compute dependence footprints and sleep sets.
            self.scheduler.bind_runner(self)
        self.scheduler.begin_run(seed)
        self.control.begin_run(self, seed)
        # ``scheme_factory`` is one factory or a {name: factory} mapping;
        # every scheme observes the same run and hashes it its own way.
        self.schemes = {}
        if self.scheme_factory is not None:
            factories = self.scheme_factory
            if callable(factories):
                factories = {"main": factories}
            for name, factory in factories.items():
                self.schemes[name] = factory(self)
        self.scheme = next(iter(self.schemes.values()), None)
        self.step_count = 0
        self.checkpoints = []
        self._sched_picks = 0
        self._sched_switches = 0

        st = self.program.make_state()
        main_ctx = Ctx(self, 0)

        # Phase 1: main thread sets up the (fixed) input state.
        self._run_phase({0: _Thread(0, self.program.setup(main_ctx, st))})

        # Phase 2: worker threads under the scheduler.
        workers = {}
        for wid in range(self.program.n_workers):
            tid = wid + 1
            ctx = Ctx(self, tid)
            workers[tid] = _Thread(tid, self.program.worker(ctx, st, wid))
        if self.tracer is not None:
            # pthread_create: spawned workers inherit main's past.
            self.tracer.on_fork(0, list(workers))
        self._run_phase(workers)
        if self.tracer is not None:
            # pthread_join: main resumes after every worker.
            self.tracer.on_join(0, list(workers))

        # Phase 3: main thread tears down (reductions, output).
        self._run_phase({0: _Thread(0, self.program.teardown(main_ctx, st))})

        self._take_checkpoint("end")
        self.control.end_run(self)

        record = RunRecord(
            program=self.program.name,
            seed=seed,
            checkpoints=list(self.checkpoints),
            output_hashes=dict(self.control.output_hashes()),
            instructions=dict(self.counters.instructions),
            events=dict(self.counters.events),
        )
        if self.keep_final_snapshot:
            record.final_snapshot = self.memory.snapshot()
        return record

    # -- trampoline -------------------------------------------------------------------

    def _run_phase(self, threads: dict) -> None:
        for thread in threads.values():
            self._advance(thread, None)  # prime to the first op
        self._threads = threads
        machine = self.machine
        load = machine.load
        store = machine.store
        scheduler = self.scheduler
        observe = (scheduler.observe_step
                   if getattr(scheduler, "wants_observations", False)
                   else None)
        tracer = self.tracer
        inline = _inline_kinds(type(self))
        plain = PLAIN_OPS
        runnable = self._runnable
        # Scheduler.is_switch_point, inline: every step at ``access``
        # granularity; at ``sync`` a wakeup or an op in SWITCH_POINTS,
        # which no plain op is.
        every_step = scheduler.granularity != "sync"
        # Without migration, re-placing the thread that ran last is a
        # no-op (same tid, same core), so only a switch calls the machine.
        migrating = machine.migrate_prob > 0.0
        max_steps = self.max_steps
        deadline = self.deadline
        counters = self.counters
        instructions = counters.instructions
        events = counters.events
        # The step count and the plain ops' counts live in locals.  The
        # step count is written back before any handler runs (``time``
        # reads it); the rest reaches ``counters`` in the ``finally``.
        # A kind's first op of the phase inserts its keys, so the
        # counters' key order is the order of first use, as if every op
        # were charged on the spot.
        steps = start = self.step_count
        switches = loads = stores = fp_stores = compute = 0
        current: int | None = None
        thread: _Thread | None = None
        at_switch = True
        # Did the last step run a plain op, leaving a plain op pending?
        plain_next = False
        try:
            while True:
                # Mid-block every scheduler keeps the current thread (see
                # Scheduler.pick), so only a switch point or a blocked
                # thread needs the full decision.  A thread whose next
                # op is plain cannot be blocked.
                if at_switch or not (plain_next or runnable(thread)):
                    tid = self._pick(threads, current, at_switch)
                    if tid is None:
                        break
                else:
                    tid = current
                if tid < 0:
                    # A store-buffer drain: one buffered store retires.
                    # The current thread (if any) stays at its switch
                    # point.
                    owner, address = machine.execute_drain(tid)
                    if observe is not None:
                        observe(tid, Op("drain", (owner, address)))
                    at_switch = True
                else:
                    if tid != current:
                        if current is not None:
                            switches += 1
                        machine.schedule_thread(tid)
                        thread = threads[tid]
                        send = thread.gen.send
                        current = tid
                    elif migrating:
                        machine.schedule_thread(tid)
                    op = thread.pending
                    if op is not None and (kind := op.kind) in inline:
                        args = op.args
                        if tracer is not None:
                            tracer.on_op(tid, kind, args)
                        result = None
                        if kind == "load":
                            if not loads:
                                events.setdefault("loads", 0)
                                instructions.setdefault("load", 0)
                            loads += 1
                            result = load(tid, args[0])
                        elif kind == "store":
                            address, value, is_fp, captured_old = args
                            if not stores:
                                events.setdefault("stores", 0)
                                instructions.setdefault("store", 0)
                            stores += 1
                            if is_fp:
                                if not fp_stores:
                                    events.setdefault("fp_stores", 0)
                                fp_stores += 1
                            store(tid, address, value, is_fp, True,
                                  captured_old)
                        else:
                            if not compute:
                                instructions.setdefault("compute", 0)
                            compute += args[0]
                        try:
                            op_next = thread.pending = send(result)
                        except StopIteration:
                            op_next = thread.pending = None
                            thread.status = _Status.DONE
                        plain_next = (op_next is not None
                                      and op_next.kind in plain)
                        at_switch = every_step
                    else:
                        self.step_count = steps
                        op = self._step(thread)
                        plain_next = False
                        at_switch = (every_step or op is None
                                     or op.kind in SWITCH_POINTS)
                    if observe is not None:
                        observe(tid, op)
                steps += 1
                if steps > max_steps:
                    raise SchedulerError(
                        f"run exceeded {max_steps} steps (livelock?)")
                if (deadline is not None
                        and (steps & DEADLINE_CHECK_MASK) == 0
                        and time.monotonic() >= deadline):
                    raise BudgetError(
                        f"run exceeded its wall-clock deadline after "
                        f"{steps} steps")
        finally:
            self.step_count = steps
            self._sched_picks += steps - start
            self._sched_switches += switches
            if loads:
                counters.note("loads", loads)
                counters.charge("load", loads)
            if stores:
                counters.note("stores", stores)
                counters.charge("store", stores)
            if fp_stores:
                counters.note("fp_stores", fp_stores)
            if compute:
                counters.charge("compute", compute)

    def _pick(self, threads: dict, current: int | None,
              at_switch: bool) -> int | None:
        """Let the scheduler pick among the runnable threads and drains;
        None once neither is left, so drains at the phase tail retire
        through the scheduler too, visible to systematic exploration."""
        is_runnable = self._runnable
        runnable = [t.tid for t in threads.values() if is_runnable(t)]
        runnable.sort()
        if self.machine.memory_model is not None:
            # Drain pseudo-tids are negative, so splicing them in
            # front keeps the runnable list sorted.
            runnable = self.machine.drain_choices() + runnable
        if not runnable:
            if all(t.status is _Status.DONE for t in threads.values()):
                return None
            states = {t.tid: (t.status.value, t.waiting_on) for t in
                      threads.values() if t.status is not _Status.DONE}
            raise DeadlockError(f"deadlock; blocked threads: {states}")
        tid = self.scheduler.pick(runnable, current, at_switch)
        if tid not in runnable:
            raise SchedulerError(f"scheduler picked non-runnable tid {tid}")
        return tid

    def _runnable(self, thread: _Thread) -> bool:
        if thread.status is not _Status.READY:
            return False
        if thread.deliver:
            return True
        op = thread.pending
        if op is None:
            return False
        model = self.machine.memory_model
        if model is not None:
            # Fence semantics: stall until the relevant buffers have
            # drained (via scheduler-picked drain steps), rather than
            # retiring the stores as a side effect of this op.
            if op.kind in FENCE_OPS:
                if model.pending_for(thread.tid):
                    return False
            elif op.kind in ("free", "checkpoint") and model.pending_count():
                return False
        if op.kind == "lock":
            return not op.args[0].held
        return True

    def _step(self, thread: _Thread) -> Op | None:
        """Advance one thread by one scheduling step; returns the op it
        executed (None for a wakeup-delivery step)."""
        if thread.deliver:
            thread.deliver = False
            self._advance(thread, None)
            return None
        op = thread.pending
        thread.pending = None
        kind = op.kind
        # No store-buffer work here: ``_runnable`` stalls fences, frees
        # and checkpoints until the buffers they wait on are empty.
        if self.tracer is not None:
            self.tracer.on_op(thread.tid, kind, op.args)
        handler = self._handlers.get(kind)
        if handler is None:
            raise ProgramError(f"unknown op kind {kind!r}")
        result = handler(thread, op.args)
        if thread.status is _Status.READY and not thread.deliver:
            self._advance(thread, result)
        return op

    def _advance(self, thread: _Thread, value) -> None:
        try:
            thread.pending = thread.gen.send(value)
        except StopIteration:
            thread.pending = None
            thread.status = _Status.DONE

    def _wake(self, tid: int) -> None:
        thread = self._threads[tid]
        thread.status = _Status.READY
        thread.deliver = True
        thread.waiting_on = None

    # -- op execution -------------------------------------------------------------------

    # One ``_op_<kind>`` handler per op kind, dispatched through
    # ``_handlers``: (thread, args) -> the value sent back to the thread.
    # ``_run_phase`` runs ``load``, ``store`` and ``compute`` inline and
    # keeps their counts itself; their handlers serve only a subclass
    # that overrides one of them (see ``_inline_kinds``).

    def _op_load(self, thread: _Thread, args):
        self.counters.note("loads")
        self.counters.charge("load")
        return self.machine.load(thread.tid, args[0])

    def _op_store(self, thread: _Thread, args):
        address, value, is_fp, captured_old = args
        self.counters.note("stores")
        if is_fp:
            self.counters.note("fp_stores")
        self.counters.charge("store")
        self.machine.store(thread.tid, address, value, is_fp=is_fp,
                           captured_old=captured_old)

    def _op_read_old(self, thread: _Thread, args):
        # SW-InstantCheck_Inc's instrumentation read; its cost belongs
        # to the overhead model, not the native instruction count.
        return self.memory.load(args[0])

    def _op_compute(self, thread: _Thread, args):
        self.counters.charge("compute", args[0])

    def _op_malloc(self, thread: _Thread, args):
        nwords, site, typeinfo = args
        self.counters.charge("alloc")
        self.counters.note("allocs")
        self.counters.note("alloc_words", nwords)
        return self.control.do_malloc(self, thread.tid, nwords, site, typeinfo)

    def _op_free(self, thread: _Thread, args):
        self.counters.charge("alloc")
        self.counters.note("frees")
        self.control.do_free(self, thread.tid, args[0])

    def _op_lock(self, thread: _Thread, args):
        self.counters.charge("sync")
        args[0].acquire(thread.tid)

    def _op_unlock(self, thread: _Thread, args):
        self.counters.charge("sync")
        args[0].release(thread.tid)

    def _op_barrier(self, thread: _Thread, args):
        self.counters.charge("sync")
        barrier = args[0]
        if barrier.arrive(thread.tid):
            # Everyone is parked at the barrier: the state is quiescent,
            # which is exactly when InstantCheck reads the hash.
            if barrier.checkpoint:
                self._take_checkpoint(f"{barrier.name}#{barrier.generation}")
            for rtid in barrier.complete():
                if rtid != thread.tid:
                    self._wake(rtid)
            return
        thread.status = _Status.PARKED
        thread.waiting_on = barrier

    def _op_cond_wait(self, thread: _Thread, args):
        self.counters.charge("sync")
        cond, lk = args
        lk.release(thread.tid)
        cond.add_waiter(thread.tid)
        thread.status = _Status.PARKED
        thread.waiting_on = cond

    def _op_cond_signal(self, thread: _Thread, args):
        self.counters.charge("sync")
        woken = args[0].take_one()
        if woken is not None:
            self._wake(woken)

    def _op_cond_broadcast(self, thread: _Thread, args):
        self.counters.charge("sync")
        for woken in args[0].take_all():
            self._wake(woken)

    def _op_yield(self, thread: _Thread, args):
        pass

    def _op_checkpoint(self, thread: _Thread, args):
        self.counters.charge("sync")
        self._take_checkpoint(args[0])

    def _op_rand(self, thread: _Thread, args):
        self.counters.charge("libcall")
        self.counters.note("libcalls")
        return self.control.do_rand(self, thread.tid)

    def _op_time(self, thread: _Thread, args):
        self.counters.charge("libcall")
        self.counters.note("libcalls")
        return self.control.do_time(self, thread.tid)

    def _op_write_out(self, thread: _Thread, args):
        fd, data = args
        self.counters.charge("output", len(data))
        self.counters.note("output_words", len(data))
        self.control.do_write(self, thread.tid, fd, data)

    def _op_isa(self, thread: _Thread, args):
        name, isa_args = args
        if self.scheme is not None:
            core = self.machine.core_of(thread.tid)
            return self.scheme.isa_exec(name, core, *isa_args)

    # -- checkpoints -------------------------------------------------------------------

    def _take_checkpoint(self, label: str) -> None:
        if self.machine.memory_model is not None:
            # A checkpoint reads a quiescent state: every buffered store
            # retires first, so the hash covers what memory will hold.
            self.machine.drain_all()
        index = len(self.checkpoints)
        state_words = self.memory.state_words()
        raw = adjusted = None
        variants: dict = {}
        tele = self.telemetry
        timed = tele is not None and tele.enabled
        if self.schemes:
            ignored = self.control.resolve_ignores(self.allocator)
            for name, scheme in self.schemes.items():
                if timed:
                    t0 = time.perf_counter()
                    r = scheme.state_hash()
                    tele.registry.histogram(
                        "state_hash_seconds", scheme=scheme.name,
                        variant=name).observe(time.perf_counter() - t0)
                else:
                    r = scheme.state_hash()
                a = r
                if ignored:
                    total = 0
                    for address, is_fp in ignored:
                        total = (total + scheme.location_term(address, is_fp)) & MASK64
                    a = (r - total) & MASK64
                variants[name] = (r, a)
            if ignored:
                self.counters.charge("ignore_unhash", len(ignored))
                self.counters.note("ignored_words", len(ignored))
            raw, adjusted = next(iter(variants.values()))
        record = CheckpointRecord(index=index, label=label, raw_hash=raw,
                                  hash=adjusted, state_words=state_words,
                                  variants=variants)
        if self.snapshot_at is not None and index == self.snapshot_at:
            record.snapshot = self.memory.snapshot()
            record.blocks = self.allocator.live_blocks()
        self.checkpoints.append(record)
        self.counters.note("checkpoints")
        self.counters.note("checkpoint_words", state_words)
        if timed:
            tele.registry.counter("checkpoints").inc()
