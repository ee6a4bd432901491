"""Tests for the session engine (`repro.core.engine`).

The engine collapses the serial, parallel, and campaign execution paths
into one plan -> execute -> judge pipeline.  These tests pin the parts
the facades rely on: the frozen config, the single outcome-classification
rule, the judge's order-independence, and the judge-driven early exit
(``stop_on_first`` actually cancelling outstanding work on the pool).
"""

import json
import pickle

import pytest

from repro.core.checker.serialize import result_to_dict
from repro.core.engine import (OUTCOME_CRASH_DIVERGENCE,
                               OUTCOME_DETERMINISTIC, OUTCOME_INCOMPLETE,
                               OUTCOME_INFEASIBLE, OUTCOME_NONDETERMINISTIC,
                               CheckConfig, FrozenDict, Judge, SessionPlan,
                               classify_outcome, execute_session)
from repro.core.checker.runner import check_determinism
from repro.core.engine.executors import resolve_executor
from repro.errors import CheckerError
from repro.sim.faults import make_fault
from repro.telemetry import MemorySink, Telemetry
from repro.workloads import make

from _programs import RacyProgram


def _canonical(result):
    payload = result_to_dict(result, include_hashes=True)
    payload.pop("workers")
    return json.dumps(payload, sort_keys=True, default=str)


# -- frozen configuration ------------------------------------------------------


def test_check_config_schemes_is_frozen():
    config = CheckConfig()
    assert isinstance(config.schemes, FrozenDict)
    with pytest.raises(TypeError):
        config.schemes["evil"] = None
    with pytest.raises(TypeError):
        del config.schemes["main"]
    with pytest.raises(TypeError):
        config.schemes.clear()
    with pytest.raises(TypeError):
        config.schemes.update({"evil": None})
    with pytest.raises(TypeError):
        config.schemes.pop("main")
    with pytest.raises(TypeError):
        config.schemes.setdefault("evil", None)


def test_check_config_ignores_coerced_to_tuple():
    config = CheckConfig(ignores=["a", "b"])
    assert config.ignores == ("a", "b")


def test_mutating_schemes_mid_session_cannot_change_verdict():
    """Regression for the freeze: a caller holding the config cannot
    grow or shrink the scheme map after the session captured it."""
    config = CheckConfig(runs=4)
    result = check_determinism(make("fft"), config)
    with pytest.raises(TypeError):
        config.schemes["late"] = next(iter(config.schemes.values()))
    # The verdict set is exactly what the config declared at build time.
    assert set(result.verdicts) == set(config.schemes)


def test_frozen_dict_pickle_roundtrip():
    frozen = FrozenDict({"a": 1, "b": (2, 3)})
    clone = pickle.loads(pickle.dumps(frozen))
    assert clone == frozen
    assert isinstance(clone, FrozenDict)
    with pytest.raises(TypeError):
        clone["c"] = 4


def test_frozen_dict_copy_is_mutable():
    frozen = FrozenDict({"a": 1})
    mutable = frozen.copy()
    mutable["b"] = 2  # must not raise
    assert frozen == {"a": 1}


def test_check_config_pickles_with_frozen_schemes():
    config = CheckConfig(runs=3)
    clone = pickle.loads(pickle.dumps(config))
    assert isinstance(clone.schemes, FrozenDict)
    assert set(clone.schemes) == set(config.schemes)


# -- the single classification rule --------------------------------------------


@pytest.mark.parametrize("n_records,n_failures,deterministic,expected", [
    (0, 3, True, OUTCOME_INFEASIBLE),
    (0, 1, False, OUTCOME_INFEASIBLE),
    (2, 1, True, OUTCOME_CRASH_DIVERGENCE),
    (5, 2, False, OUTCOME_CRASH_DIVERGENCE),
    (0, 0, True, OUTCOME_INCOMPLETE),
    (1, 0, True, OUTCOME_INCOMPLETE),
    (2, 0, True, OUTCOME_DETERMINISTIC),
    (2, 0, False, OUTCOME_NONDETERMINISTIC),
])
def test_classify_outcome_table(n_records, n_failures, deterministic,
                                expected):
    assert classify_outcome(n_records, n_failures, deterministic) == expected


@pytest.mark.parametrize("fault,expected", [
    ("always-crash-fault", OUTCOME_INFEASIBLE),
    ("deadlock-fault", OUTCOME_CRASH_DIVERGENCE),
])
def test_classification_parity_across_backends(fault, expected):
    """Both backends classify the same failure mix through the same
    engine-owned function — the verdicts must agree exactly."""
    serial = check_determinism(make_fault(fault), CheckConfig(runs=6))
    pooled = check_determinism(make_fault(fault),
                               CheckConfig(runs=6, workers=2))
    local = check_determinism(
        make_fault(fault),
        CheckConfig(runs=6, workers=2, executor="asyncio-local"))
    assert serial.outcome == expected
    assert pooled.outcome == expected
    assert local.outcome == expected
    assert _canonical(serial) == _canonical(pooled) == _canonical(local)


# -- judge: order independence -------------------------------------------------


def _records_for(program, runs=6):
    result = check_determinism(program, CheckConfig(runs=runs))
    return result.records, result


@pytest.mark.parametrize("order", [
    [0, 1, 2, 3, 4, 5],
    [5, 4, 3, 2, 1, 0],
    [3, 0, 5, 1, 4, 2],
])
def test_judge_folds_any_completion_order(order):
    """The pool hands the judge runs in completion order; the verdict
    must match the serial (in-order) fold bit for bit."""
    program = RacyProgram()
    records, reference = _records_for(program, runs=6)
    plan = SessionPlan.from_config(program, CheckConfig(runs=6))
    judge = Judge(plan, None)
    for index in order:
        judge.fold_record(index, records[index])
    result = judge.finalize(workers=1)
    assert _canonical(result) == _canonical(reference)


def test_judge_out_of_order_reference_is_lowest_index():
    """Folding a higher-index record first must not move the reference:
    the reference run is always the lowest-index record."""
    program = RacyProgram()
    records, reference = _records_for(program, runs=8)
    plan = SessionPlan.from_config(program, CheckConfig(runs=8))
    judge = Judge(plan, None)
    for index in reversed(range(8)):
        judge.fold_record(index, records[index])
    result = judge.finalize(workers=1)
    for name in result.verdicts:
        assert (result.verdict(name).first_ndet_run
                == reference.verdict(name).first_ndet_run)


# -- plan validation -----------------------------------------------------------


def test_plan_rejects_single_run():
    with pytest.raises(CheckerError, match="at least 2 runs"):
        SessionPlan.from_config(make("fft"), CheckConfig(runs=1))


def test_plan_rejects_unknown_judge_variant():
    with pytest.raises(CheckerError, match="judge_variant"):
        SessionPlan.from_config(make("fft"),
                                CheckConfig(runs=4, judge_variant="nope"))


def test_plan_holds_no_per_run_state():
    # Every pool worker task builds its own plan, so building one must
    # not cost O(runs).  Both run counts pickle as the same int width.
    program = make("fft")
    small = SessionPlan.from_config(program, CheckConfig(runs=2**10))
    large = SessionPlan.from_config(program, CheckConfig(runs=2**15))
    assert len(pickle.dumps(small)) == len(pickle.dumps(large))


# -- stop_on_first: true early exit on the pool --------------------------------


def test_stop_on_first_pool_emits_session_cancelled():
    tele = Telemetry(MemorySink())
    result = check_determinism(
        RacyProgram(), CheckConfig(runs=12, stop_on_first=True, workers=2),
        telemetry=tele)
    assert result.outcome == OUTCOME_NONDETERMINISTIC
    events = [e for e in tele.sink.events
              if e.get("t") == "event" and e["name"] == "session_cancelled"]
    assert len(events) == 1
    event = events[0]
    # $REPRO_EXECUTOR picks the pool flavor in the CI executor cells.
    assert event["backend"] == resolve_executor("auto", 2)
    assert event["completed"] >= 2
    assert event["completed"] + event["failed"] <= 12
    snapshot = tele.registry.snapshot()
    assert snapshot["counters"]["sessions_cancelled"] == 1


def test_stop_on_first_pool_matches_serial_verdict():
    serial = check_determinism(RacyProgram(),
                               CheckConfig(runs=12, stop_on_first=True))
    pooled = check_determinism(
        RacyProgram(), CheckConfig(runs=12, stop_on_first=True, workers=2))
    assert _canonical(serial) == _canonical(pooled)


def test_stop_on_first_asyncio_local_matches_serial_and_announces():
    """The natively-async local pool honours the same judge-driven
    cancel contract as the legacy pool, under its own backend name."""
    tele = Telemetry(MemorySink())
    serial = check_determinism(RacyProgram(),
                               CheckConfig(runs=12, stop_on_first=True))
    local = check_determinism(
        RacyProgram(),
        CheckConfig(runs=12, stop_on_first=True, workers=2,
                    executor="asyncio-local"),
        telemetry=tele)
    assert _canonical(serial) == _canonical(local)
    events = [e for e in tele.sink.events
              if e.get("t") == "event" and e["name"] == "session_cancelled"]
    assert len(events) == 1
    assert events[0]["backend"] == "asyncio-local"
    assert tele.registry.snapshot()["counters"]["sessions_cancelled"] == 1


def test_stop_on_first_serial_announces_cancel_uniformly():
    """Both backends drive the same loop: the serial path skips (and
    counts) the runs it no longer needs, under the same event name."""
    tele = Telemetry(MemorySink())
    check_determinism(RacyProgram(),
                      CheckConfig(runs=12, stop_on_first=True),
                      telemetry=tele)
    events = [e for e in tele.sink.events
              if e.get("t") == "event" and e["name"] == "session_cancelled"]
    assert len(events) == 1
    assert events[0]["backend"] == "serial"
    assert events[0]["cancelled"] >= 1


def test_deterministic_session_never_cancels():
    tele = Telemetry(MemorySink())
    result = check_determinism(
        make("fft"), CheckConfig(runs=4, stop_on_first=True, workers=2),
        telemetry=tele)
    assert result.outcome == OUTCOME_DETERMINISTIC
    names = [e["name"] for e in tele.sink.events if e.get("t") == "event"]
    assert "session_cancelled" not in names


def test_execute_session_is_the_facade_entry():
    """check_determinism and execute_session are the same pipeline."""
    via_facade = check_determinism(make("lu"), CheckConfig(runs=4))
    direct = execute_session(make("lu"), CheckConfig(runs=4))
    assert _canonical(via_facade) == _canonical(direct)
