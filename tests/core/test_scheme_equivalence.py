"""Cross-scheme equivalence: the heart of the reproduction's correctness.

For any program, at every checkpoint, HW-InstantCheck_Inc (incremental,
per-core MHM with context switching), SW-InstantCheck_Inc (incremental,
per-thread software hashes), and SW-InstantCheck_Tr (full traversal) must
produce the *same* 64-bit State Hash — that is what makes the schemes
interchangeable implementations of one definition (Section 2.2).

The property is exercised over randomly generated programs (random
store/malloc/free scripts across threads), with and without FP rounding,
and under forced thread migration (TH save/restore on every switch).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker.runner import CheckConfig, check_determinism
from repro.core.control.controller import InstantCheckControl
from repro.core.hashing.kernels import available_backends
from repro.core.hashing.rounding import default_policy, no_rounding
from repro.core.schemes.base import SchemeConfig
from repro.sim.layout import StaticLayout
from repro.sim.program import Program, Runner
from repro.sim.scheduler import RandomScheduler
from repro.sim.sync import Barrier
from repro.telemetry import MemorySink, Telemetry


class ScriptProgram(Program):
    """Workers execute a deterministic random script of memory ops."""

    name = "script"

    def __init__(self, seed: int, n_workers: int = 3, ops_per_worker: int = 25,
                 barriers: int = 2, fp: bool = False):
        layout = StaticLayout()
        self.static_data = layout.array("data", 16,
                                        tag="f" if fp else "i")
        super().__init__(n_workers=n_workers, static_words=layout.words)
        self.static_layout = layout
        self.static_types = layout.types
        self.script_seed = seed
        self.ops_per_worker = ops_per_worker
        self.barriers = barriers
        self.fp = fp

    def make_state(self):
        st = super().make_state()
        st.barrier = Barrier(self.n_workers, name="sb")
        return st

    def worker(self, ctx, st, wid):
        rng = random.Random(self.script_seed * 131 + wid)
        blocks = []
        ops_per_phase = max(1, self.ops_per_worker // (self.barriers + 1))
        for phase in range(self.barriers + 1):
            for _ in range(ops_per_phase):
                action = rng.random()
                if action < 0.25 or not blocks:
                    tag = "f" if self.fp else "i"
                    block = yield from ctx.malloc(
                        rng.randint(1, 4), site=f"script.c:{wid}", typeinfo=tag)
                    blocks.append(block)
                elif action < 0.40 and len(blocks) > 1:
                    victim = blocks.pop(rng.randrange(len(blocks)))
                    yield from ctx.free(victim.base)
                elif action < 0.55:
                    address = self.static_data + rng.randrange(16)
                    value = (rng.random() * 100.0 if self.fp
                             else rng.randrange(1 << 20))
                    yield from ctx.store(address, value)
                else:
                    block = blocks[rng.randrange(len(blocks))]
                    address = block.base + rng.randrange(block.nwords)
                    value = (rng.random() * 100.0 if self.fp
                             else rng.randrange(1 << 20))
                    yield from ctx.store(address, value)
            if phase < self.barriers:
                yield from ctx.barrier_wait(st.barrier)


#: Every installed hash backend; the property tests below run each
#: example once per backend.
BACKENDS = available_backends()


def run_all_schemes(program, seed=0, rounding=None, migrate_prob=0.0,
                    clusters=1, drain="fifo", backend="auto"):
    rounding = rounding if rounding is not None else no_rounding()
    schemes = {
        "hw": SchemeConfig(kind="hw", rounding=rounding,
                           n_clusters=clusters, drain_policy=drain,
                           backend=backend),
        "sw_inc": SchemeConfig(kind="sw_inc", rounding=rounding,
                               backend=backend),
        "sw_tr": SchemeConfig(kind="sw_tr", rounding=rounding,
                              backend=backend),
    }
    runner = Runner(program, scheme_factory=schemes,
                    control=InstantCheckControl(),
                    scheduler=RandomScheduler(), migrate_prob=migrate_prob)
    return runner.run(seed)


def assert_schemes_agree(record):
    hw = record.variant_hashes("hw")
    sw_inc = record.variant_hashes("sw_inc")
    sw_tr = record.variant_hashes("sw_tr")
    assert hw == sw_inc, "HW vs SW-Inc disagreement"
    assert hw == sw_tr, "HW vs SW-Tr disagreement"


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), run_seed=st.integers(0, 100))
def test_schemes_agree_int_programs(seed, run_seed):
    for backend in BACKENDS:
        record = run_all_schemes(ScriptProgram(seed), seed=run_seed,
                                 backend=backend)
        assert_schemes_agree(record)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_schemes_agree_fp_programs_bitwise(seed):
    for backend in BACKENDS:
        record = run_all_schemes(ScriptProgram(seed, fp=True), seed=3,
                                 backend=backend)
        assert_schemes_agree(record)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_schemes_agree_fp_programs_rounded(seed):
    """FP rounding applies identically: by instruction (incremental) and
    by type annotation (traversal)."""
    for backend in BACKENDS:
        record = run_all_schemes(ScriptProgram(seed, fp=True), seed=5,
                                 rounding=default_policy(), backend=backend)
        assert_schemes_agree(record)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_migration_does_not_change_hashes(seed):
    """TH save/restore at context switches is transparent (Section 3.3)."""
    for backend in BACKENDS:
        base = run_all_schemes(ScriptProgram(seed), seed=11,
                               migrate_prob=0.0, backend=backend)
        migrated = run_all_schemes(ScriptProgram(seed), seed=11,
                                   migrate_prob=0.5, backend=backend)
        # Same schedule seed, same scheduler => same interleaving; only
        # the thread-to-core placement differs.
        assert base.variant_hashes("hw") == migrated.variant_hashes("hw")
        assert_schemes_agree(migrated)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000),
       clusters=st.integers(1, 6),
       drain=st.sampled_from(["fifo", "lifo", "shuffle"]))
def test_mhm_design_space_transparent(seed, clusters, drain):
    """Figure 3(b): clustering and drain order never change the hash."""
    for backend in BACKENDS:
        reference = run_all_schemes(ScriptProgram(seed), seed=2,
                                    backend=backend)
        variant = run_all_schemes(ScriptProgram(seed), seed=2,
                                  clusters=clusters, drain=drain,
                                  backend=backend)
        assert reference.variant_hashes("hw") == variant.variant_hashes("hw")


def test_free_removes_words_from_all_schemes():
    class FreeProgram(Program):
        name = "freep"

        def __init__(self):
            super().__init__(n_workers=1, static_words=2)

        def worker(self, ctx, st, wid):
            keep = yield from ctx.malloc(2, site="keep")
            gone = yield from ctx.malloc(2, site="gone")
            yield from ctx.store(keep.base, 11)
            yield from ctx.store(gone.base, 22)
            yield from ctx.free(gone.base)

    class KeepOnly(Program):
        name = "keeponly"

        def __init__(self):
            super().__init__(n_workers=1, static_words=2)

        def worker(self, ctx, st, wid):
            keep = yield from ctx.malloc(2, site="keep")
            yield from ctx.malloc(2, site="gone")  # never written
            yield from ctx.store(keep.base, 11)

    for backend in BACKENDS:
        record = run_all_schemes(FreeProgram(), seed=0, backend=backend)
        assert_schemes_agree(record)
        reference = run_all_schemes(KeepOnly(), seed=0, backend=backend)
        # Freed-and-written state hashes like never-written state.
        assert record.hashes() == reference.hashes()


# -- backend differential fuzz ---------------------------------------------------------
#
# The hash backend must be *observably absent*: whole checking sessions
# under every backend, serial or parallel, produce bit-identical
# checkpoint hash sequences, identical verdicts, and identical hash-unit
# accounting.  The serial pure-Python session is the reference.


def run_session(program, backend, workers=1, runs=3, rounding=None):
    """One full checking session with all three schemes on *backend*."""
    rounding = rounding if rounding is not None else no_rounding()
    telemetry = Telemetry(MemorySink())
    config = CheckConfig(
        runs=runs, base_seed=77, workers=workers,
        schemes={kind: SchemeConfig(kind=kind, rounding=rounding,
                                    backend=backend)
                 for kind in ("hw", "sw_inc", "sw_tr")})
    result = check_determinism(program, config, telemetry=telemetry)
    return result, telemetry


def session_fingerprint(result):
    """Everything a session reports that the backend must not change."""
    return (
        result.outcome,
        tuple(record.hashes() for record in result.records),
        {name: (verdict.deterministic, verdict.first_ndet_run,
                verdict.n_det_points, verdict.n_ndet_points)
         for name, verdict in result.verdicts.items()},
    )


def hash_update_counts(telemetry):
    """The ``scheme_hash_updates`` telemetry counters, by variant."""
    counters = telemetry.registry.snapshot()["counters"]
    return {key: count for key, count in counters.items()
            if key.startswith("scheme_hash_updates")}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000), fp=st.booleans())
def test_sessions_identical_across_backends_and_workers(backend, workers,
                                                        seed, fp):
    """Randomized programs: every backend x worker-count combination
    reports the same hashes, verdicts, and hash_updates as the serial
    pure-Python reference."""
    rounding = default_policy() if fp else no_rounding()
    reference, ref_tele = run_session(
        ScriptProgram(seed, fp=fp), backend="python", workers=1,
        rounding=rounding)
    variant, var_tele = run_session(
        ScriptProgram(seed, fp=fp), backend=backend, workers=workers,
        rounding=rounding)
    assert session_fingerprint(variant) == session_fingerprint(reference)
    assert hash_update_counts(var_tele) == hash_update_counts(ref_tele)


@pytest.mark.parametrize("backend", BACKENDS)
def test_racy_program_verdict_identical_across_backends(backend):
    """A genuinely nondeterministic program is flagged identically —
    same first divergent run — whichever backend hashes it."""

    class RacyScript(ScriptProgram):
        # No barriers: store interleavings across the shared static
        # array differ between schedule seeds.
        def worker(self, ctx, st_, wid):
            for i in range(8):
                old = yield from ctx.load(self.static_data + (i % 4))
                yield from ctx.store(self.static_data + (i % 4),
                                     old + wid + 1)

    reference, _ = run_session(RacyScript(3), backend="python", runs=6)
    variant, _ = run_session(RacyScript(3), backend=backend, runs=6)
    assert session_fingerprint(variant) == session_fingerprint(reference)


@pytest.mark.skipif("numpy" not in BACKENDS,
                    reason="numpy backend not installed")
def test_hash_updates_parity_python_vs_numpy():
    """Figure-6 accounting parity: the numpy backend must leave every
    telemetry counter — the per-scheme hash_updates *and* the
    instruction categories — exactly as the Python reference kernel
    reports them."""
    program_seed = 11

    def counters_for(backend):
        _, telemetry = run_session(ScriptProgram(program_seed, fp=True),
                                   backend=backend, rounding=default_policy())
        snapshot = telemetry.registry.snapshot()["counters"]
        return {key: count for key, count in snapshot.items()
                if key.startswith(("scheme_hash_updates", "instructions"))}

    python = counters_for("python")
    assert any(key.startswith("scheme_hash_updates") for key in python)
    assert counters_for("numpy") == python
