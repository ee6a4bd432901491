"""Catch-rate meta-tests for the relaxed-memory seeded bugs.

The Table 2 seeded bugs are schedule bugs; the two store-buffer bugs
are *memory-model* bugs: their incorrect outcomes require a store to
become visible late, so they are unreachable under SC and only appear
once ``--memory-model tso``/``pso`` turns on buffering.  These tests
pin the full claim matrix:

* each bug is caught under its weakest exposing model (and any weaker
  relaxation of it) by the paper's plain random scheduler;
* each bug is *provably* unreachable under the models it should not
  affect — proved by exhaustive DPOR exploration, not by sampling;
* the detection point (``first_ndet_run``) is a pure function of the
  seed, identical across the serial and both process-pool executors.
"""

import pytest

from repro.core.checker.runner import check_determinism
from repro.workloads.seeded_bugs import STOREBUFFER_BUGS, seeded_program

#: memory models ordered weakest-exposing-first; a bug exposed by
#: ``tso`` is also exposed by the strictly weaker ``pso``.
RELAXATIONS = {"tso": ("tso", "pso"), "pso": ("pso",)}

CATCH_MATRIX = [(app, model)
                for app, _bug, weakest in STOREBUFFER_BUGS
                for model in RELAXATIONS[weakest]]

SAFE_MATRIX = [(app, model)
               for app, _bug, weakest in STOREBUFFER_BUGS
               for model in ("sc", "tso", "pso")
               if model not in RELAXATIONS[weakest]]


@pytest.mark.parametrize("app,model", CATCH_MATRIX)
def test_storebuffer_bug_caught_under_exposing_model(app, model):
    result = check_determinism(seeded_program(app, n_workers=2), runs=24,
                               scheduler="random", memory_model=model)
    assert not result.deterministic, (app, model)
    assert result.judged.first_ndet_run is not None


@pytest.mark.parametrize("app,model", SAFE_MATRIX)
def test_storebuffer_bug_unreachable_under_stronger_model(app, model):
    """Exhaustive proof, not sampling: DPOR enumerates *every*
    Mazurkiewicz class of the program under *model*, so a deterministic
    verdict here means the buggy outcome is not expressible at all."""
    result = check_determinism(seeded_program(app, n_workers=2), runs=64,
                               scheduler="dpor", memory_model=model)
    assert result.deterministic, (app, model)


@pytest.mark.parametrize("executor", ["serial", "process-pool"])
def test_first_ndet_run_stable_across_executors(executor, serial_baseline):
    result = check_determinism(
        seeded_program("sb-visible-late", n_workers=2), runs=24,
        scheduler="random", memory_model="tso", executor=executor, workers=2)
    assert not result.deterministic
    assert result.judged.first_ndet_run == serial_baseline


@pytest.fixture(scope="module")
def serial_baseline():
    result = check_determinism(
        seeded_program("sb-visible-late", n_workers=2), runs=24,
        scheduler="random", memory_model="tso", executor="serial")
    assert result.judged.first_ndet_run is not None
    return result.judged.first_ndet_run


def test_storebuffer_bug_registry_names_resolve():
    for app, _bug, _weakest in STOREBUFFER_BUGS:
        program = seeded_program(app, n_workers=2)
        assert program.name == app
