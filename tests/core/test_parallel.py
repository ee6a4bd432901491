"""Tests for the parallel execution engine (`repro.core.engine`).

The contract under test: any session or campaign run with ``workers > 1``
produces results *bit-identical* to the serial path — same verdicts,
same first-divergence attribution, same serialized dict (modulo the
``workers`` field itself) — while worker crashes become ``RunFailure``
records and deadlines still cancel promptly.
"""

import json
import os
import time
from dataclasses import replace

import pytest

from repro.core.checker.campaign import InputPoint, run_campaign
from repro.core.checker.runner import (OUTCOME_CRASH_DIVERGENCE,
                                       OUTCOME_INCOMPLETE, CheckConfig,
                                       check_determinism)
from repro.core.checker.serialize import result_to_dict
from repro.core.engine import resolve_workers
from repro.errors import CheckerError, WorkerCrashError
from repro.telemetry import MemorySink, Telemetry
from repro.workloads import make

from _programs import (Fig1Program, KillOwnProcessProgram, RacyProgram,
                       SlowProgram)


def _canonical(result):
    """Serialized form with the worker count erased, for equivalence."""
    payload = result_to_dict(result, include_hashes=True)
    payload.pop("workers")
    return json.dumps(payload, sort_keys=True, default=str)


# -- serial/parallel equivalence -----------------------------------------------------


@pytest.mark.parametrize("app", ["fft", "lu"])
def test_parallel_verdict_identical_on_workload(app):
    serial = check_determinism(make(app), CheckConfig(runs=6))
    parallel = check_determinism(make(app),
                                 CheckConfig(runs=6, workers=2))
    assert parallel.workers == 2
    assert serial.workers == 1
    assert _canonical(serial) == _canonical(parallel)


def test_parallel_verdict_identical_on_nondeterministic_program():
    serial = check_determinism(RacyProgram(), CheckConfig(runs=8))
    parallel = check_determinism(RacyProgram(),
                                 CheckConfig(runs=8, workers=3))
    assert not parallel.deterministic
    assert _canonical(serial) == _canonical(parallel)


def test_parallel_merge_deterministic_under_shuffled_completion():
    """Workers finish in arbitrary order; the merge must not care.

    Real wall-clock work per run (`SlowProgram`) makes runs genuinely
    overlap across 4 workers, so completion order races against seed
    order — yet repeated parallel sessions must serialize identically
    to the serial one.
    """
    serial = check_determinism(SlowProgram(delay_s=0.02),
                               CheckConfig(runs=8))
    for _ in range(2):
        parallel = check_determinism(SlowProgram(delay_s=0.02),
                                     CheckConfig(runs=8, workers=4))
        assert _canonical(parallel) == _canonical(serial)


def test_parallel_stop_on_first_matches_serial():
    serial = check_determinism(RacyProgram(),
                               CheckConfig(runs=10, stop_on_first=True))
    parallel = check_determinism(RacyProgram(),
                                 CheckConfig(runs=10, stop_on_first=True,
                                             workers=2))
    assert _canonical(serial) == _canonical(parallel)


# -- crash containment --------------------------------------------------------------


def test_worker_crash_becomes_run_failure():
    """A dying worker process must surface as RunFailure, never hang."""
    start = time.monotonic()
    result = check_determinism(KillOwnProcessProgram(),
                               CheckConfig(runs=6, workers=2))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    # Run 1 records in the parent (its own pid) and completes; every
    # fanned-out run dies in a worker.
    assert result.runs == 1
    assert len(result.failures) == 5
    assert all(f.error == WorkerCrashError.__name__ for f in result.failures)
    assert result.outcome == OUTCOME_CRASH_DIVERGENCE
    assert result.first_failed_run == 2


def test_worker_crash_outcomes_keep_seed_attribution():
    result = check_determinism(KillOwnProcessProgram(),
                               CheckConfig(runs=4, workers=2, base_seed=500))
    assert [f.run for f in result.failures] == [2, 3, 4]
    assert [f.seed for f in result.failures] == [501, 502, 503]


# -- deadline enforcement ------------------------------------------------------------


def test_parallel_deadline_cancels_unfinished_runs():
    program = SlowProgram(delay_s=0.25)
    start = time.monotonic()
    result = check_determinism(
        program, CheckConfig(runs=12, workers=2, deadline_s=1.2))
    elapsed = time.monotonic() - start
    assert result.budget_exhausted
    # Partial verdict: some runs finished, nowhere near all twelve.
    assert result.runs < 12
    # Bounded: nowhere near the ~6s a full serial session needs.
    assert elapsed < 3.5


def test_parallel_deadline_before_two_runs_is_incomplete():
    program = SlowProgram(delay_s=0.3)
    result = check_determinism(
        program, CheckConfig(runs=8, workers=2, deadline_s=0.7))
    assert result.budget_exhausted
    assert result.outcome == OUTCOME_INCOMPLETE


# -- configuration and guard rails ---------------------------------------------------


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(7) == 7
    assert resolve_workers("auto") >= 1
    with pytest.raises(CheckerError):
        resolve_workers(0)
    with pytest.raises(CheckerError):
        resolve_workers(-2)
    with pytest.raises(CheckerError):
        resolve_workers(2.5)
    with pytest.raises(CheckerError):
        resolve_workers(True)
    with pytest.raises(CheckerError):
        resolve_workers("many")


def test_unpicklable_program_is_diagnosed():
    class LocalProgram(Fig1Program):
        """Locally defined => unpicklable by reference."""

    with pytest.raises(CheckerError, match="picklable"):
        check_determinism(LocalProgram(), CheckConfig(runs=4, workers=2))


def test_workers_field_serialized():
    result = check_determinism(make("fft"), CheckConfig(runs=4, workers=2))
    assert result_to_dict(result)["workers"] == 2


# -- telemetry merge -----------------------------------------------------------------


def test_parallel_session_merges_worker_telemetry():
    tele = Telemetry(MemorySink())
    check_determinism(make("fft"), CheckConfig(runs=6, workers=2),
                      telemetry=tele)
    events = [e for e in tele.sink.events if e.get("t") == "event"]
    names = [e["name"] for e in events]
    assert "worker_spawn" in names
    assert "worker_merge" in names
    # One progress event per run, whether executed in parent or worker.
    assert names.count("progress") == 6
    # Re-emitted worker events carry the worker's pid.
    tagged = [e for e in tele.sink.events if "worker" in e
              and e.get("t") in ("span_start", "span_end")]
    assert tagged and all(e["worker"] != os.getpid() for e in tagged)
    # Worker metrics fold into the session registry.
    snapshot = tele.registry.snapshot()
    spawned = snapshot["counters"]["workers_spawned"]
    assert 1 <= spawned <= 2
    hash_counters = [k for k in snapshot["counters"]
                     if k.startswith("scheme_hash_updates")]
    assert hash_counters


def test_parallel_run_counters_match_serial():
    tele_s = Telemetry(MemorySink())
    check_determinism(make("fft"), CheckConfig(runs=5), telemetry=tele_s)
    tele_p = Telemetry(MemorySink())
    check_determinism(make("fft"), CheckConfig(runs=5, workers=2),
                      telemetry=tele_p)
    snap_s = tele_s.registry.snapshot()["counters"]
    snap_p = tele_p.registry.snapshot()["counters"]
    for key, value in snap_s.items():
        assert snap_p.get(key) == value, key


# -- parallel campaigns --------------------------------------------------------------


def _fig1_factory(**params):
    return Fig1Program(**params)


CAMPAIGN_POINTS = [
    InputPoint("base", {"initial": 2}),
    InputPoint("shifted", {"initial": 9}),
    InputPoint("wide", {"locals_": (1, 2, 3, 4)}),
]


def test_parallel_campaign_matches_serial():
    serial = run_campaign(_fig1_factory, CAMPAIGN_POINTS, runs=4)
    parallel = run_campaign(_fig1_factory, CAMPAIGN_POINTS, runs=4,
                            workers=2)
    assert parallel.program == serial.program == "fig1"
    assert [o.input.name for o in parallel.outcomes] == \
        [o.input.name for o in serial.outcomes]
    for ser, par in zip(serial.outcomes, parallel.outcomes):
        assert ser.outcome == par.outcome
        assert ser.deterministic == par.deterministic
        assert _canonical(ser.result) == _canonical(par.result)


def test_parallel_campaign_journal_and_resume(tmp_path):
    journal_path = str(tmp_path / "campaign.jsonl")
    first = run_campaign(_fig1_factory, CAMPAIGN_POINTS, runs=4, workers=2,
                         journal_path=journal_path)
    assert len(first.outcomes) == 3
    # Every journal line is whole and parseable (atomic appends).
    with open(journal_path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    names = [r["input"] for r in records if r["t"] == "input_outcome"]
    assert sorted(names) == ["base", "shifted", "wide"]
    resumed = run_campaign(_fig1_factory, CAMPAIGN_POINTS, runs=4, workers=2,
                           journal_path=journal_path, resume=True)
    assert sorted(resumed.resumed_inputs) == ["base", "shifted", "wide"]


class _KillFactory:
    """Builds programs that die in any process but the test's own.

    The pid is captured at construction time — in the parent — so the
    program a campaign worker builds for itself still targets the
    parent, and every run executed inside a worker kills that worker.
    """

    def __init__(self):
        self.home_pid = os.getpid()

    def __call__(self, **params):
        return KillOwnProcessProgram(home_pid=self.home_pid)


def test_parallel_campaign_worker_crash_is_error_outcome():
    """A worker dying mid-input errors that input, not the campaign."""

    points = [InputPoint("one", {}), InputPoint("two", {})]

    def factory(**params):
        raise AssertionError("unpicklable local factory should be rejected "
                             "before any input runs")

    # Local closure factories are rejected up front with a diagnosis...
    with pytest.raises(CheckerError, match="picklable"):
        run_campaign(factory, points, runs=4, workers=2)
    # ...while a picklable factory whose sessions die in their worker
    # processes yields per-input error outcomes, never an exception.
    result = run_campaign(_KillFactory(), points, runs=4, workers=2)
    assert len(result.outcomes) == 2
    for outcome in result.outcomes:
        assert outcome.outcome == "error"
        assert outcome.error == WorkerCrashError.__name__


def test_parallel_campaign_merges_worker_telemetry():
    tele = Telemetry(MemorySink())
    run_campaign(_fig1_factory, CAMPAIGN_POINTS, runs=4, workers=2,
                 telemetry=tele)
    names = [e.get("name") for e in tele.sink.events
             if e.get("t") == "event"]
    assert names.count("input_verdict") == 3
    assert "worker_spawn" in names


def test_config_replace_keeps_workers():
    config = CheckConfig(runs=4, workers="auto")
    assert replace(config, runs=8).workers == "auto"
