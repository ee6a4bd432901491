"""Smoke test of the benchmark harness: ``pytest benchmarks/perf``.

Runs every workload at 5% of its size, traced and untraced, through
``run.py`` with one ``--workload`` as BENCHMARK.json's command is run,
and checks the result schema, that metric names and units equal
BENCHMARK.json, and that an output-gate mismatch fails the command with
a pointed diff.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads(run.BENCHMARK.read_text())
SMOKE = ("--scale", "0.05", "--reps", "1")


def bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / run.HERE.relative_to(
        run.ROOT) / "run.py"), *args], cwd=cwd, capture_output=True,
        text=True, timeout=120)


def units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def test_metric_and_workload_names_equal_benchmark_json():
    assert units(SPEC["end_to_end"]) == run.END_TO_END
    assert units(SPEC["per_layer"]) == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_result_line(workload, trace):
    done = bench(*SMOKE, "--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == units(spec)
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_result_file_and_compare(tmp_path):
    out = tmp_path / "result.json"
    done = bench(*SMOKE, "--trace", "0", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert result["schema"] == run.SCHEMA
    assert set(result["provenance"]) >= {
        "cpu_count", "affinity_cpus", "python", "numpy", "hash_backend",
        "git_sha", "calibration_s"}
    assert set(result["workloads"]) == set(run.WORKLOADS)
    for entry in result["workloads"].values():
        assert set(entry["metrics"]) == set(run.END_TO_END)
        assert all(len(v) == 1 for v in entry["samples"].values())
    # A directory side pools the samples of every result file in it.
    done = bench("compare", str(tmp_path), str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("unchanged") == (
        len(run.WORKLOADS) * len(run.END_TO_END))


def test_gate_mismatch_fails_with_a_pointed_diff(tmp_path, monkeypatch,
                                                capsys):
    entry = json.loads(run.EXPECTED.read_text())["fft-serial"]
    entry.update(runs=run.scaled_runs("fft-serial", 0.05), digest="sha256:0")
    bogus = tmp_path / "expected.json"
    bogus.write_text(json.dumps({"fft-serial": entry}))
    monkeypatch.setattr(run, "EXPECTED", bogus)
    assert run.main([*SMOKE, "--workload", "fft-serial"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "OUTPUT GATE FAILED" in err
    assert "fft-serial: report digest: expected sha256:0, got" in err
    # The recorded counts are for the full-size session.
    assert "fft-serial: sim.steps: expected" in err


def test_a_crashing_cli_is_not_a_verdict(monkeypatch, capsys):
    # An exception escaping the CLI must not pass for exit code 1, the
    # code of a nondeterministic verdict.
    runs, argv = run.WORKLOADS["fft-serial"]
    monkeypatch.setitem(run.WORKLOADS, "fft-serial", (runs, (
        *argv, "--telemetry", "{tmp}/no-such-dir/telemetry.jsonl")))
    assert run.main([*SMOKE, "--workload", "fft-serial"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "exited 70" in err and "FileNotFoundError" in err


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / run.HERE.relative_to(run.ROOT),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fft-serial", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("parent, change, better, verdict", [
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10], [9, 9.1, 8.9, 9, 9.2, 8.8, 9],
     "lower", "improved"),
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10], [12, 12.1, 11.9, 12, 12, 12, 12],
     "lower", "regressed"),
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10], [10, 10.1, 9.9, 10, 10.2, 9.8, 10],
     "lower", "unchanged"),
    ([5, 15, 8, 12, 10, 6, 14], [9, 11, 10, 10, 13, 7, 12],
     "lower", "unresolved"),
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10], [9, 11, 8, 12, 10, 7, 13],
     "lower", "unresolved"),
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10], [9.5, 9.6, 9.4, 9.5, 9.7, 9.3, 9.5],
     "higher", "unchanged"),
])
def test_compare_verdicts(parent, change, better, verdict):
    assert run.compare_metric(parent, change, better, 0.10)[1] == verdict
