"""Graceful SIGINT/SIGTERM shutdown of the CLI (ISSUE 7 satellite).

The contract: a signal mid-campaign finalizes the journal, prints one
clean interrupt line, exits with the infrastructure code (2) — never a
raw traceback, and never a poisoned verdict (the interrupted input must
not be journaled as crash-divergence).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAILPOINTS", None)
    return env


def _run_campaign_and_signal(tmp_path, sig, delay_s=0.8, timeout=60):
    journal = str(tmp_path / "journal.jsonl")
    argv = [sys.executable, "-m", "repro", "campaign", "fft",
            "--runs", "200", "--inputs", "a:log2_n=7",
            "--journal", journal]
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    time.sleep(delay_s)
    proc.send_signal(sig)
    stdout, stderr = proc.communicate(timeout=timeout)
    return proc.returncode, stdout, stderr, journal


@pytest.mark.parametrize("sig,name", [(signal.SIGTERM, "SIGTERM"),
                                      (signal.SIGINT, "SIGINT")])
def test_signal_mid_campaign_shuts_down_cleanly(tmp_path, sig, name):
    code, stdout, stderr, journal = _run_campaign_and_signal(tmp_path, sig)
    if code == 0:
        pytest.skip("campaign finished before the signal landed")
    assert code == 2, (stdout, stderr)
    assert f"interrupted by {name}" in stderr
    assert "shut down cleanly" in stderr
    assert "Traceback (most recent call last)" not in stderr
    assert "Traceback (most recent call last)" not in stdout

    # The journal stays parseable, and the interrupted input was never
    # recorded with a poisoned verdict — on resume it simply re-runs.
    records = [json.loads(line) for line in open(journal)]
    outcomes = [r for r in records if r.get("t") == "input_outcome"]
    assert all(r["outcome"] != "crash-divergence" for r in outcomes)
    assert all("SessionInterrupted" not in json.dumps(r) for r in records)


@pytest.mark.parametrize("sig,name", [(signal.SIGTERM, "SIGTERM"),
                                      (signal.SIGINT, "SIGINT")])
def test_signal_mid_serial_check_shuts_down_cleanly(sig, name):
    # A serial session has no event loop around it: the signal unwinds
    # through the run in progress and the inline run loop.
    argv = [sys.executable, "-m", "repro", "check", "fft", "--runs", "400"]
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    time.sleep(0.8)
    proc.send_signal(sig)
    stdout, stderr = proc.communicate(timeout=60)
    if proc.returncode == 0:
        pytest.skip("check finished before the signal landed")
    assert proc.returncode == 2, (stdout, stderr)
    assert f"interrupted by {name}" in stderr
    assert "shut down cleanly" in stderr
    assert "Traceback (most recent call last)" not in stderr
    assert "Traceback (most recent call last)" not in stdout


@pytest.mark.parametrize("executor", ["process-pool"])
def test_signal_mid_pool_session_does_not_wait_for_runs_in_flight(executor):
    # Each worker's second run sleeps 20 s, so the signal lands while
    # both workers are busy: the parent must kill them, not wait them out.
    env = _env()
    env["REPRO_FAILPOINTS"] = "worker.run.before=sleep:20@at:2"
    argv = [sys.executable, "-m", "repro", "check", "canneal",
            "--runs", "40", "--workers", "2", "--executor", executor]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    time.sleep(3.0)
    proc.send_signal(signal.SIGINT)
    signalled = time.monotonic()
    stdout, stderr = proc.communicate(timeout=60)
    exit_s = time.monotonic() - signalled
    assert proc.returncode == 2, (stdout, stderr)
    assert "shut down cleanly" in stderr
    assert "Traceback (most recent call last)" not in stderr
    assert "Traceback (most recent call last)" not in stdout
    assert exit_s < 5.0, stderr
