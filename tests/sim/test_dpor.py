"""DPOR exhaustiveness, cross-checked against brute-force enumeration.

The contract under test: for small programs, the non-redundant runs of
:class:`~repro.sim.dpor.DporScheduler` visit every Mazurkiewicz trace
class *exactly once* — the same classes a brute-force DFS over all
scheduling decisions (including store-buffer drain choices) finds — and
therefore any divergence brute force can produce, DPOR produces too.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.systematic import _next_vector
from repro.core.checker.runner import check_determinism
from repro.core.schemes.base import SchemeConfig
from repro.errors import CheckerError
from repro.sim.dpor import (DporScheduler, TracingDecisionScheduler,
                            dependent, mazurkiewicz_key, op_footprint)
from repro.sim.program import Runner
from repro.workloads.storebuffer import SbDclBroken, SbVisibleLate

from tests._programs import Fig1Program, RacyProgram
from tests.sim.test_memory_models import MpLitmus, SbLitmus

SCHEMES = {"main": SchemeConfig()}


def brute_force_classes(program, memory_model, max_interleavings=20_000):
    """Every Mazurkiewicz class and its final hash, by exhaustive DFS."""
    classes: dict = {}
    decisions: list[int] = []
    count = 0
    while True:
        scheduler = TracingDecisionScheduler(decisions)
        runner = Runner(program, scheme_factory=SCHEMES,
                        scheduler=scheduler, memory_model=memory_model)
        record = runner.run(seed=0)
        classes.setdefault(mazurkiewicz_key(scheduler.trace),
                           record.hashes())
        count += 1
        assert count <= max_interleavings, "enumeration did not terminate"
        nxt = _next_vector(scheduler.taken, scheduler.choice_counts)
        if nxt is None:
            return classes
        decisions = nxt


def dpor_explore(program, memory_model, scheduler=None, max_total_runs=5_000):
    """Run DPOR to exhaustion; returns (runs, [(class key, hashes)])."""
    scheduler = scheduler if scheduler is not None else DporScheduler()
    runner = Runner(program, scheme_factory=SCHEMES, scheduler=scheduler,
                    memory_model=memory_model)
    visited = []
    runs = 0
    while True:
        record = runner.run(seed=runs)
        runs += 1
        if not scheduler.last_run_redundant:
            visited.append((mazurkiewicz_key(scheduler.last_trace),
                            record.hashes()))
        if not scheduler.has_more():
            return runs, visited
        assert runs <= max_total_runs, "DPOR did not converge"


CASES = [
    (lambda: Fig1Program(), "sc"),
    (lambda: RacyProgram(n_workers=2), "sc"),
    (lambda: RacyProgram(n_workers=2), "tso"),
    (lambda: SbLitmus(), "sc"),
    (lambda: SbLitmus(), "tso"),
    (lambda: SbLitmus(), "pso"),
    (lambda: MpLitmus(), "pso"),
    (lambda: SbVisibleLate(n_workers=2), "sc"),
    (lambda: SbVisibleLate(n_workers=2), "tso"),
    (lambda: SbVisibleLate(n_workers=2), "pso"),
    (lambda: SbDclBroken(n_workers=2), "pso"),
]


@pytest.mark.parametrize("make_program,memory_model",
                         CASES, ids=[f"{m().name}-{mm}" for m, mm in CASES])
def test_dpor_visits_every_class_exactly_once(make_program, memory_model):
    brute = brute_force_classes(make_program(), memory_model)
    _runs, visited = dpor_explore(make_program(), memory_model)
    keys = [key for key, _hashes in visited]
    assert len(keys) == len(set(keys)), "a trace class was explored twice"
    assert set(keys) == set(brute), "DPOR missed (or invented) a class"
    for key, hashes in visited:
        assert hashes == brute[key], "same class, different state hash"


@pytest.mark.parametrize("make_program,memory_model", CASES,
                         ids=[f"{m().name}-{mm}" for m, mm in CASES])
def test_dpor_finds_every_bruteforce_divergence(make_program, memory_model):
    brute = brute_force_classes(make_program(), memory_model)
    _runs, visited = dpor_explore(make_program(), memory_model)
    assert ({hashes for hashes in brute.values()}
            == {hashes for _key, hashes in visited})


def test_dpor_never_exceeds_bruteforce_interleavings():
    """The reduction must not be worse than plain enumeration."""
    program = SbVisibleLate(n_workers=2)
    brute = brute_force_classes(program, "pso")
    runs, visited = dpor_explore(SbVisibleLate(n_workers=2), "pso")
    assert len(visited) == len(brute)
    assert runs <= 8  # brute force needs 8 interleavings here


# Exact exploration counts per case, pinned so footprint changes cannot
# silently regress the reduction: (classes, dpor visited, dpor runs).
# The per-(thread,location) PSO buffer footprint collapsed litmus-sb-pso
# from 744 classes / 1176 DPOR runs to 4 / 18 — drain orderings of
# *different* location queues of one thread no longer count as distinct
# classes (they commute on real PSO hardware), while the reachable
# outcome set is unchanged (see the hash-constancy test below).
EXPECTED_COUNTS = {
    ("fig1", "sc"): (2, 2, 2),
    ("racy", "sc"): (4, 4, 4),
    ("racy", "tso"): (4, 4, 6),
    ("litmus-sb", "sc"): (3, 3, 3),
    ("litmus-sb", "tso"): (14, 14, 24),
    ("litmus-sb", "pso"): (4, 4, 18),
    ("litmus-mp", "pso"): (4, 4, 13),
    ("sb-visible-late", "sc"): (2, 2, 2),
    ("sb-visible-late", "tso"): (3, 3, 3),
    ("sb-visible-late", "pso"): (3, 3, 3),
    ("sb-dcl", "pso"): (6, 6, 11),
}


@pytest.mark.parametrize("make_program,memory_model", CASES,
                         ids=[f"{m().name}-{mm}" for m, mm in CASES])
def test_exploration_counts_are_pinned(make_program, memory_model):
    """Class/run counts may only drop, never drift up (the ISSUE floor:
    litmus-sb-pso had 744 classes and 1176 DPOR runs before the
    per-location refinement)."""
    name = make_program().name
    classes, visited, runs = EXPECTED_COUNTS[(name, memory_model)]
    brute = brute_force_classes(make_program(), memory_model)
    got_runs, got_visited = dpor_explore(make_program(), memory_model)
    assert len(brute) == classes
    assert len(got_visited) == visited
    assert got_runs == runs
    if (name, memory_model) == ("litmus-sb", "pso"):
        assert len(brute) <= 744 and got_runs <= 1176


def test_pso_class_merging_is_hash_constant():
    """Soundness of the per-location footprint: every interleaving that
    the refined dependence relation places in one Mazurkiewicz class
    reaches the same final hash — the merge never hides a divergence."""
    for make_program, model in [(lambda: SbVisibleLate(n_workers=2), "pso"),
                                (lambda: SbDclBroken(n_workers=2), "pso")]:
        per_class: dict = {}
        decisions: list[int] = []
        count = 0
        while True:
            scheduler = TracingDecisionScheduler(decisions)
            runner = Runner(make_program(), scheme_factory=SCHEMES,
                            scheduler=scheduler, memory_model=model)
            record = runner.run(seed=0)
            per_class.setdefault(mazurkiewicz_key(scheduler.trace),
                                 set()).add(record.hashes())
            count += 1
            assert count <= 1_000
            nxt = _next_vector(scheduler.taken, scheduler.choice_counts)
            if nxt is None:
                break
            decisions = nxt
        assert all(len(hashes) == 1 for hashes in per_class.values())


# -- incremental race analysis ----------------------------------------------------


class _ResumingDpor(DporScheduler):
    """Counts the analyses that resumed from a cached prefix."""

    resumed = 0

    def _resume_point(self, blocks):
        fresh = super()._resume_point(blocks)
        self.resumed += fresh > 0
        return fresh


class _FullAnalysisDpor(DporScheduler):
    """Re-analyses every run from its first block."""

    def _analyze_races(self):
        self._drop_analysis_cache()
        super()._analyze_races()


def _assert_same_frontiers(make_program, memory_model, max_runs=None):
    """Drive a prefix-caching and a full-analysis scheduler side by
    side; their frontiers must agree after every run."""
    cached, full = _ResumingDpor(), _FullAnalysisDpor()
    runners = [Runner(make_program(), scheme_factory=SCHEMES,
                      scheduler=scheduler, memory_model=memory_model)
               for scheduler in (cached, full)]
    runs = 0
    while max_runs is None or runs < max_runs:
        for runner in runners:
            runner.run(seed=runs)
        runs += 1
        assert cached.export_frontier() == full.export_frontier(), \
            f"frontiers diverged after run {runs}"
        assert cached.last_run_redundant == full.last_run_redundant
        more = cached.has_more()
        assert more == full.has_more()
        if not more:
            break
        assert runs <= 5_000, "DPOR did not converge"
    return cached, runs


@pytest.mark.parametrize("make_program,memory_model", CASES,
                         ids=[f"{m().name}-{mm}" for m, mm in CASES])
def test_prefix_cache_leaves_the_exploration_unchanged(make_program,
                                                       memory_model):
    cached, runs = _assert_same_frontiers(make_program, memory_model)
    if runs > 2:
        assert cached.resumed, "no analysis resumed from the prefix"


def test_prefix_cache_leaves_a_long_pso_exploration_unchanged():
    cached, runs = _assert_same_frontiers(
        lambda: SbDclBroken(n_workers=6), "pso", max_runs=300)
    assert runs == 300
    assert cached.resumed > 250


# -- frontier resume ---------------------------------------------------------------


def test_frontier_resumes_across_scheduler_instances():
    full = dict(dpor_explore(SbVisibleLate(n_workers=2), "pso")[1])

    first = DporScheduler()
    runner = Runner(SbVisibleLate(n_workers=2), scheme_factory=SCHEMES,
                    scheduler=first, memory_model="pso")
    head = []
    for seed in range(2):
        record = runner.run(seed=seed)
        if not first.last_run_redundant:
            head.append((mazurkiewicz_key(first.last_trace),
                         record.hashes()))
    assert first.has_more()
    state = json.loads(json.dumps(first.export_frontier()))

    resumed = DporScheduler()
    resumed.import_frontier(state)
    assert resumed.runs_started == 2
    _runs, tail = dpor_explore(SbVisibleLate(n_workers=2), "pso",
                               scheduler=resumed)
    keys = [key for key, _ in head + tail]
    assert len(keys) == len(set(keys)), "resume re-explored a class"
    assert dict(head + tail) == full


@pytest.mark.parametrize("version", [1, 3, None])
def test_import_frontier_rejects_other_format_versions(version):
    state = DporScheduler().export_frontier()
    if version is None:
        del state["version"]
    else:
        state["version"] = version
    with pytest.raises(CheckerError,
                       match=f"version {version!r}.* reads version 2"):
        DporScheduler().import_frontier(state)


def test_max_runs_budget_freezes_exploration():
    scheduler = DporScheduler(max_runs=1)
    runner = Runner(SbVisibleLate(n_workers=2), scheme_factory=SCHEMES,
                    scheduler=scheduler, memory_model="tso")
    runner.run(seed=0)
    assert not scheduler.last_run_redundant
    assert not scheduler.has_more()
    first = runner.run(seed=1)
    assert scheduler.last_run_redundant
    assert scheduler.budget_exhausted
    # Post-budget runs replay the first interleaving, harmlessly.
    assert first.hashes() == runner.run(seed=2).hashes()


# -- engine integration ------------------------------------------------------------


def test_systematic_scheduler_requires_serial_executor():
    with pytest.raises(CheckerError, match="systematic"):
        check_determinism(SbVisibleLate(n_workers=2), runs=4,
                          scheduler="dpor", executor="process-pool",
                          memory_model="tso")


def test_dpor_session_catches_the_sb_bug_deterministically():
    result = check_determinism(SbVisibleLate(n_workers=2), runs=6,
                               scheduler="dpor", memory_model="tso")
    assert not result.deterministic
    # Exploration order is deterministic, so so is the catching run.
    again = check_determinism(SbVisibleLate(n_workers=2), runs=6,
                              scheduler="dpor", memory_model="tso")
    assert (result.judged.first_ndet_run == again.judged.first_ndet_run
            is not None)


def test_dpor_session_is_deterministic_under_sc():
    result = check_determinism(SbVisibleLate(n_workers=2), runs=6,
                               scheduler="dpor", memory_model="sc")
    assert result.deterministic


def _runs_to_catch(scheduler, budget, base_seed=0):
    """Runs until a TSO session first records a divergence, or None."""
    result = check_determinism(
        SbVisibleLate(n_workers=2, spin=4), runs=budget,
        base_seed=base_seed, scheduler=scheduler, memory_model="tso",
        stop_on_first=True)
    return result.judged.first_ndet_run


def test_dpor_catches_the_rare_sb_bug_5x_sooner_than_random():
    """Search efficiency: with ``spin=4`` every yield point is one more
    chance for a random schedule to drain the pending flag store, so
    the buggy window is rare for random search, while DPOR enumerates
    the same handful of trace classes.  DPOR must reach the first
    divergence in at least 5x fewer runs than random search's *best*
    seed (an uncaught seed counts as its whole budget).  Both searches
    are deterministic given their seeds."""
    dpor = _runs_to_catch("dpor", budget=64)
    assert dpor is not None, "dpor missed the seeded bug within 64 runs"
    # Widely spaced: per-run seeds are base_seed + run index, so
    # adjacent base seeds would sample overlapping schedule streams.
    random_best = min(_runs_to_catch("random", 1500, base_seed=seed) or 1500
                      for seed in (1, 5001, 90001))
    assert dpor * 5 <= random_best, (dpor, random_best)


# -- trace-theory helpers ----------------------------------------------------------


def test_mazurkiewicz_key_invariant_under_independent_swap():
    a = (1, frozenset({(("m", 1), "W")}))
    b = (2, frozenset({(("m", 2), "W")}))
    c = (1, frozenset({(("m", 2), "R")}))
    assert not dependent(a[1], b[1])
    assert mazurkiewicz_key([a, b, c]) == mazurkiewicz_key([b, a, c])
    # Dependent swap (b writes what c reads) changes the class.
    assert mazurkiewicz_key([a, b, c]) != mazurkiewicz_key([a, c, b])


def test_op_footprints_make_buffered_stores_private():
    class _NoBufferMachine:
        memory_model = None

    class _R:
        machine = _NoBufferMachine()
        fence_drained = ()

    from repro.sim.context import Op

    sc_store = op_footprint(1, Op("store", (7, 42)), _R())
    assert (("m", 7), "W") in sc_store

    class _BufferMachine:
        memory_model = object()

    class _RBuf:
        machine = _BufferMachine()
        fence_drained = ()

    buffered = op_footprint(1, Op("store", (7, 42)), _RBuf())
    assert buffered == frozenset({(("buf", 1), "W"), (("buf", 1), "R")})
    drain = op_footprint(-1, Op("drain", (1, 7)), _RBuf())
    assert dependent(drain, op_footprint(2, Op("load", (7,)), _RBuf()))
    assert dependent(drain, buffered)


def test_pso_footprints_key_buffer_objects_per_location():
    """PSO gives each (thread, location) queue its own footprint object.

    Drains of *different* location queues of one thread commute (the
    hardware reorders them); drains of the *same* queue, loads of the
    drained address, and the thread's fences stay ordered.  Under TSO
    every location maps to the thread's single queue, so the footprints
    are the same per-thread object as before the refinement.
    """
    from repro.sim.context import Op
    from repro.sim.memmodel import make_memory_model

    def runner_for(model_name):
        class _Machine:
            memory_model = make_memory_model(model_name)

        class _R:
            machine = _Machine()
            fence_drained = ()

        return _R()

    pso = runner_for("pso")
    drain_a = op_footprint(-1, Op("drain", (1, 7)), pso)
    drain_b = op_footprint(-2, Op("drain", (1, 8)), pso)
    assert (("buf", 1, 7), "W") in drain_a
    assert (("buf", 1, 8), "W") in drain_b
    # Same thread, different locations: independent under PSO...
    assert not dependent(drain_a, drain_b)
    # ...but a store to the same location stays ordered with its drain,
    assert dependent(op_footprint(1, Op("store", (7, 42)), pso), drain_a)
    # and commutes with a drain of the thread's *other* queue.
    assert not dependent(op_footprint(1, Op("store", (7, 42)), pso),
                         drain_b)

    # A fence retires the whole buffer: its per-thread WRITE conflicts
    # with every queue's READ, whichever location the queue holds.
    pso.fence_drained = (8,)
    fence = op_footprint(1, Op("isa", ("fence",)), pso)
    assert (("buf", 1), "W") in fence
    assert dependent(fence, drain_a)
    assert dependent(fence, drain_b)

    # TSO: one queue per thread, identical to the pre-refinement shape.
    tso = runner_for("tso")
    t_drain = op_footprint(-1, Op("drain", (1, 7)), tso)
    assert (("buf", 1), "W") in t_drain
    assert dependent(t_drain, op_footprint(-2, Op("drain", (1, 8)), tso))
