"""TSO/PSO store-buffer semantics and drain-order hash independence.

Three layers:

* unit tests of the :mod:`repro.sim.memmodel` queues (FIFO order,
  store-to-load forwarding, per-thread vs per-location keying);
* litmus tests (SB, MP, LB) that exhaustively enumerate every
  interleaving — including drain orderings — and pin the *exact*
  reachable-outcome sets per memory model: TSO and PSO admit precisely
  the relaxed outcomes SC forbids, and neither invents load buffering;
* Hypothesis property tests of the paper's Section 3.2 claim: the
  mod-2^64 incremental hash is invariant under the drain order of the
  same store multiset, bit-identically across all three schemes and
  every available hash backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.systematic import _next_vector
from repro.core.control.controller import InstantCheckControl
from repro.core.hashing.kernels import available_backends
from repro.core.schemes.base import SchemeConfig
from repro.sim.layout import StaticLayout
from repro.sim.machine import Machine
from repro.sim.memmodel import MEMORY_MODELS, make_memory_model
from repro.sim.memory import Memory
from repro.sim.program import Program, Runner
from repro.sim.scheduler import DecisionScheduler
from repro.sim.sync import Lock

BACKENDS = available_backends()
SCHEME_KINDS = ("hw", "sw_inc", "sw_tr")


# -- model unit tests --------------------------------------------------------------


def _entry(tid, address, value):
    # (core, tid, address, value, is_fp, hashed, captured_old)
    return (tid % 2, tid, address, value, False, True, None)


def test_registry_names():
    assert set(MEMORY_MODELS) == {"sc", "tso", "pso"}
    assert make_memory_model("sc").buffers is False
    assert make_memory_model("tso").buffers is True
    assert make_memory_model("pso").buffers is True


def test_tso_single_fifo_per_thread():
    model = make_memory_model("tso")
    model.push(_entry(1, 10, 111))
    model.push(_entry(1, 20, 222))
    model.push(_entry(2, 10, 333))
    assert model.pending_keys() == [(1,), (2,)]
    # FIFO: program order within the thread is preserved, across
    # locations too (one queue per thread).
    assert (model.peek((1,))[2], model.peek((1,))[3]) == (10, 111)
    drained = [model.pop((1,)), model.pop((1,))]
    assert [(e[2], e[3]) for e in drained] == [(10, 111), (20, 222)]
    assert model.peek((1,)) is None
    assert model.pending_count() == 1


def test_pso_fifo_per_location():
    model = make_memory_model("pso")
    model.push(_entry(1, 10, 111))
    model.push(_entry(1, 20, 222))
    model.push(_entry(1, 10, 444))
    assert model.pending_keys() == [(1, 10), (1, 20)]
    # Same-location stores stay ordered even under PSO.
    assert model.pop((1, 10))[3] == 111
    assert model.pop((1, 10))[3] == 444


@pytest.mark.parametrize("name", ["tso", "pso"])
def test_store_to_load_forwarding_newest_wins(name):
    model = make_memory_model(name)
    model.push(_entry(1, 10, 111))
    model.push(_entry(1, 20, 222))
    model.push(_entry(1, 10, 444))
    assert model.forward(1, 10) == (True, 444)
    assert model.forward(1, 20) == (True, 222)
    assert model.forward(1, 99) == (False, None)
    # No cross-thread forwarding: buffers are private.
    assert model.forward(2, 10) == (False, None)


def test_drain_all_empties_every_queue():
    model = make_memory_model("pso")
    for tid in (1, 2):
        for address in (5, 6):
            model.push(_entry(tid, address, tid * 100 + address))
    assert len(model.drain_all()) == 4
    assert model.pending_count() == 0
    assert model.pending_keys() == []


# A store-buffer workload: ("push", tid, address), ("pop", pick) with
# *pick* indexing the non-empty queues, or ("drain_all",).
buffer_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("pop"), st.integers(0, 15)),
    st.tuples(st.just("drain_all"))), max_size=40)


@settings(deadline=None)
@given(ops=buffer_ops, name=st.sampled_from(["tso", "pso"]))
def test_pending_counters_match_a_scan_of_the_queues(ops, name):
    """``pending_count``/``pending_for`` keep running counts; after every
    operation they must equal a scan of the queues themselves."""
    model = make_memory_model(name)
    for step, op in enumerate(ops):
        if op[0] == "push":
            model.push(_entry(op[1], op[2], step))
        elif op[0] == "pop":
            keys = model.pending_keys()
            if keys:
                model.pop(keys[op[1] % len(keys)])
        else:
            model.drain_all()
        queues = model._queues
        assert model.pending_count() == sum(len(q) for q in queues.values())
        assert model.pending_keys() == [k for k, q in queues.items() if q]
        for tid in range(4):
            assert model.pending_for(tid) == any(
                q for key, q in queues.items() if key[0] == tid)


@settings(deadline=None)
@given(ops=buffer_ops, name=st.sampled_from(["tso", "pso"]))
def test_drain_choices_match_a_scan_of_the_queues(ops, name):
    """The machine keeps the drain choices as a sorted list, updated as
    queues fill and empty; after every store, drain and ``drain_all``
    it must equal the pseudo-tids of the non-empty queues, sorted."""
    machine = Machine(Memory(static_words=8), n_cores=2,
                      memory_model=make_memory_model(name))
    for step, op in enumerate(ops):
        if op[0] == "push":
            machine.store(op[1], op[2], step)
        elif op[0] == "pop":
            choices = machine.drain_choices()
            if choices:
                machine.execute_drain(choices[op[1] % len(choices)])
        else:
            machine.drain_all()
        scanned = sorted(machine._drain_ids[key]
                         for key in machine.memory_model.pending_keys())
        assert machine.drain_choices() == scanned


# -- litmus programs ---------------------------------------------------------------


class _Litmus(Program):
    """Two workers, two shared variables, two result cells."""

    def __init__(self):
        layout = StaticLayout()
        self.x = layout.var("x")
        self.y = layout.var("y")
        self.r0 = layout.var("r0")
        self.r1 = layout.var("r1")
        super().__init__(n_workers=2, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types

    def setup(self, ctx, st):
        for address in (self.x, self.y, self.r0, self.r1):
            yield from ctx.store(address, 0)


class SbLitmus(_Litmus):
    """Store buffering: w0: x=1; r0=y   w1: y=1; r1=x."""

    name = "litmus-sb"

    def worker(self, ctx, st, wid):
        mine, theirs, result = ((self.x, self.y, self.r0) if wid == 0
                                else (self.y, self.x, self.r1))
        yield from ctx.store(mine, 1)
        yield from ctx.sched_yield()
        seen = yield from ctx.load(theirs)
        yield from ctx.store(result, seen)


class MpLitmus(_Litmus):
    """Message passing: w0: x=1; y=1   w1: r0=y; r1=x (x=data, y=flag)."""

    name = "litmus-mp"

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.store(self.x, 1)
            yield from ctx.sched_yield()
            yield from ctx.store(self.y, 1)
        else:
            flag = yield from ctx.load(self.y)
            yield from ctx.sched_yield()
            data = yield from ctx.load(self.x)
            yield from ctx.store(self.r0, flag)
            yield from ctx.store(self.r1, data)


class LbLitmus(_Litmus):
    """Load buffering: w0: r0=y; x=1   w1: r1=x; y=1."""

    name = "litmus-lb"

    def worker(self, ctx, st, wid):
        mine, theirs, result = ((self.x, self.y, self.r0) if wid == 0
                                else (self.y, self.x, self.r1))
        seen = yield from ctx.load(theirs)
        yield from ctx.sched_yield()
        yield from ctx.store(mine, 1)
        yield from ctx.store(result, seen)


class MpFenceLitmus(_Litmus):
    """Message passing where the publisher's lock/unlock fences the data."""

    name = "litmus-mp-fence"

    def make_state(self):
        st = super().make_state()
        st.lock = Lock("mp.lock")
        return st

    def worker(self, ctx, st, wid):
        if wid == 0:
            yield from ctx.store(self.x, 1)
            yield from ctx.sched_yield()
            yield from ctx.lock(st.lock)    # fence: drains the x store
            yield from ctx.unlock(st.lock)
            yield from ctx.store(self.y, 1)
        else:
            flag = yield from ctx.load(self.y)
            yield from ctx.sched_yield()
            data = yield from ctx.load(self.x)
            yield from ctx.store(self.r0, flag)
            yield from ctx.store(self.r1, data)


def enumerate_outcomes(program, memory_model, max_interleavings=20_000):
    """Every reachable ``(r0, r1)`` over all schedules and drain orders."""
    outcomes = set()
    decisions: list[int] = []
    count = 0
    while True:
        scheduler = DecisionScheduler(decisions)
        runner = Runner(program, scheduler=scheduler,
                        memory_model=memory_model)
        runner.run(seed=0)
        outcomes.add((runner.memory.load(program.r0),
                      runner.memory.load(program.r1)))
        count += 1
        assert count <= max_interleavings, "enumeration did not terminate"
        nxt = _next_vector(scheduler.taken, scheduler.choice_counts)
        if nxt is None:
            return outcomes
        decisions = nxt


SC_SB = {(0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("memory_model,expected", [
    ("sc", SC_SB),
    ("tso", SC_SB | {(0, 0)}),   # the relaxed outcome SC forbids
    ("pso", SC_SB | {(0, 0)}),
])
def test_sb_litmus_exact_outcome_sets(memory_model, expected):
    assert enumerate_outcomes(SbLitmus(), memory_model) == expected


SC_MP = {(0, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("memory_model,expected", [
    ("sc", SC_MP),
    ("tso", SC_MP),              # the per-thread FIFO keeps x before y
    ("pso", SC_MP | {(1, 0)}),   # flag may retire before the data
])
def test_mp_litmus_exact_outcome_sets(memory_model, expected):
    assert enumerate_outcomes(MpLitmus(), memory_model) == expected


@pytest.mark.parametrize("memory_model", ["sc", "tso", "pso"])
def test_lb_litmus_store_buffers_never_buffer_loads(memory_model):
    outcomes = enumerate_outcomes(LbLitmus(), memory_model)
    assert outcomes == {(0, 0), (0, 1), (1, 0)}
    assert (1, 1) not in outcomes  # needs load reordering, not store buffers


@pytest.mark.parametrize("memory_model", ["tso", "pso"])
def test_mp_fence_restores_publication_order(memory_model):
    outcomes = enumerate_outcomes(MpFenceLitmus(), memory_model)
    # flag seen => data seen, on every schedule — and the flag is
    # genuinely observable early on some schedule.
    assert all(data == 1 for flag, data in outcomes if flag == 1)
    assert any(flag == 1 for flag, _data in outcomes)


# -- drain-order hash independence (Section 3.2) -----------------------------------


class DisjointWriter(Program):
    """Each worker stores Hypothesis-chosen values to its own slots,
    yielding between stores so every drain interleaving is schedulable."""

    name = "disjoint-writer"

    def __init__(self, per_thread_values):
        self.per_thread_values = [list(v) for v in per_thread_values]
        width = max(len(v) for v in self.per_thread_values)
        layout = StaticLayout()
        self.slots = layout.array("slots",
                                  width * len(self.per_thread_values))
        self.width = width
        super().__init__(n_workers=len(self.per_thread_values),
                         static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types

    def worker(self, ctx, st, wid):
        base = self.slots + wid * self.width
        for offset, value in enumerate(self.per_thread_values[wid]):
            yield from ctx.store(base + offset, value)
            yield from ctx.sched_yield()


class RacyWriter(Program):
    """Workers store Hypothesis-chosen values to *shared* slots."""

    name = "racy-writer"

    def __init__(self, scripts, n_slots=4):
        self.scripts = [list(s) for s in scripts]
        layout = StaticLayout()
        self.slots = layout.array("slots", n_slots)
        self.n_slots = n_slots
        super().__init__(n_workers=len(self.scripts),
                         static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types

    def worker(self, ctx, st, wid):
        for slot, value in self.scripts[wid]:
            yield from ctx.store(self.slots + slot % self.n_slots, value)
            yield from ctx.sched_yield()


def _all_variants():
    return {f"{kind}:{backend}": SchemeConfig(kind=kind, backend=backend)
            for kind in SCHEME_KINDS for backend in BACKENDS}


def _run_with_schedule(program, memory_model, decisions):
    runner = Runner(program, scheme_factory=_all_variants(),
                    control=InstantCheckControl(),
                    scheduler=DecisionScheduler(decisions),
                    memory_model=memory_model)
    record = runner.run(seed=0)
    return {name: record.variant_hashes(name) for name in _all_variants()}


values_lists = st.lists(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    min_size=2, max_size=3)
schedule_vectors = st.lists(st.integers(0, 7), max_size=48)


@settings(deadline=None)
@given(values=values_lists, memory_model=st.sampled_from(["tso", "pso"]),
       decisions=schedule_vectors)
def test_drain_order_never_changes_the_hash(values, memory_model, decisions):
    """Disjoint stores: *any* drain interleaving must hash bit-identically
    to the reference schedule, per scheme and per backend."""
    program = DisjointWriter(values)
    reference = _run_with_schedule(program, memory_model, [])
    adversarial = _run_with_schedule(program, memory_model, decisions)
    assert adversarial == reference
    baseline = reference["hw:" + BACKENDS[0]]
    for name, hashes in reference.items():
        assert hashes == baseline, f"scheme variant {name} diverged"


@settings(deadline=None)
@given(scripts=st.lists(
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**64 - 1)),
                    min_size=1, max_size=4),
           min_size=2, max_size=3),
       memory_model=st.sampled_from(["tso", "pso"]),
       decisions=schedule_vectors)
def test_schemes_agree_under_adversarial_drains(scripts, memory_model,
                                                decisions):
    """Racing stores: one fixed (adversarial) schedule, all schemes and
    backends must still agree bit-for-bit on the reordered stream."""
    hashes = _run_with_schedule(RacyWriter(scripts), memory_model, decisions)
    baseline = next(iter(hashes.values()))
    for name, got in hashes.items():
        assert got == baseline, f"scheme variant {name} diverged"


def test_sc_memory_model_is_bitwise_noop():
    """``memory_model='sc'`` must not perturb any existing digest."""
    program = DisjointWriter([[11, 22], [33, 44]])
    explicit = _run_with_schedule(program, "sc", [2, 1, 0, 1])
    runner = Runner(program, scheme_factory=_all_variants(),
                    control=InstantCheckControl(),
                    scheduler=DecisionScheduler([2, 1, 0, 1]))
    record = runner.run(seed=0)
    legacy = {name: record.variant_hashes(name) for name in _all_variants()}
    assert explicit == legacy
