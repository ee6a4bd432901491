"""One benchmark for the determinism checker: CLI-to-verdict time on four
workloads, with a per-layer split from traced runs.

Usage (from the repository root)::

    python benchmarks/perf/run.py                  # every workload, 7 rounds
    python benchmarks/perf/run.py --workload fft-serial --seed 3 \\
        --seconds 30 --trace 0                     # one workload, timed
    python benchmarks/perf/run.py --out benchmarks/perf/results/a.json \\
        --append-trajectory                        # keep the result
    python benchmarks/perf/run.py compare PARENT CHANGE  # files or dirs

The load is a closed loop: one ``repro`` CLI process at a time, each
timed from spawn to exit.  A round runs every selected workload once,
alternating their order between rounds; with ``--trace 1`` (the
default) each untraced invocation is followed by a traced one.
End-to-end metrics come from the untraced invocations only, the
per-layer split from the traced ones (see ``probe.py``).

Every invocation's output passes the output gate: at the seed and size
``expected.json`` was recorded at, the exit code, report digest and,
for traced runs, exact simulation counts must equal it; at any seed,
all repetitions must agree with each other.  A CLI that crashes (exit
code other than 0 or 1) stops the benchmark.  A gate mismatch exits 1
with a pointed diff instead of printing numbers.  The
last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md in
this directory describes the workloads, metrics and caveats.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PROBE = HERE / "probe.py"
EXPECTED = HERE / "expected.json"
TRAJECTORY = HERE / "trajectory.jsonl"
BENCHMARK = ROOT / "BENCHMARK.json"

SCHEMA = "repro.bench.perf/v1"
DEFAULT_SEED = 1000
DEFAULT_REPS = 7
#: An invocation running longer than this is killed and fails the run.
CLI_TIMEOUT_S = 120.0
#: A process's unattributed time must stay under this share of its root.
MAX_UNATTRIBUTED = 0.05
#: Iterations of the calibration spin; the same loop and count as
#: benchmarks/bench_baseline.py, so the two calibrations compare.
CALIBRATION_N = 2_000_000

#: name -> (runs, CLI arguments).  ``{runs}``, ``{seed}`` and ``{tmp}``
#: are filled per invocation.  Why each workload exists is in
#: BENCHMARK.json and README.md.
WORKLOADS = {
    "fft-serial": (40, (
        "check", "fft", "--runs", "{runs}", "--seed", "{seed}", "--json")),
    "canneal-pool": (60, (
        "check", "canneal", "--runs", "{runs}", "--seed", "{seed}",
        "--workers", "2", "--executor", "process-pool",
        "--telemetry", "{tmp}/telemetry.jsonl", "--json")),
    "sbvl-tso-pool": (1000, (
        "check", "seeded-sb-visible-late", "--memory-model", "tso",
        "--runs", "{runs}", "--seed", "{seed}", "--workers", "2",
        "--executor", "process-pool", "--json")),
    "sbdcl-dpor-pso": (1000, (
        "campaign", "seeded-sb-dcl", "--scheduler", "dpor",
        "--memory-model", "pso", "--runs", "{runs}", "--seed", "{seed}",
        "--inputs", "w6:n_workers=6")),
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "steps_per_s": "steps/s",
              "cpu_s": "s", "peak_rss_mb": "MiB"}

#: The statistic of a run's invocations that each end-to-end metric
#: reports.  The host is shared: other tenants slow an invocation in
#: bursts, and how often drifts over minutes, which moves a run's median
#: with it.  The run's best invocation is the one bursts disturbed
#: least, so a timing reports that (README.md, *Noise and bounds*).
REPORTED = {"verdict_s": min, "setup_s": statistics.median,
            "steps_per_s": max, "cpu_s": min,
            "peak_rss_mb": statistics.median}

#: Counts the simulation must reproduce exactly, traced or not.
EXACT_COUNTS = ("sim.steps", "sim.instructions", "core.schemes.hash_updates",
                "sim.checkpoints", "sim.scheduler.redundant_runs")

#: Layers reported as ``<layer>.busy_s`` and ``<layer>.calls``.
BUSY_LAYERS = ("cli", "engine.plan", "engine.session", "sim.program",
               "sim.scheduler", "sim.machine", "sim.memmodel",
               "core.schemes.store", "core.schemes.checkpoint",
               "core.schemes.attach", "core.control", "engine.judge",
               "engine.tasks", "telemetry")

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in BUSY_LAYERS
       for kind, unit in (("busy_s", "s"), ("calls", "count"))},
    "sim.program.us_per_step": "us",
    "sim.program.run_ms.p50": "ms",
    "sim.program.run_ms.p90": "ms",
    "sim.scheduler.redundant_runs": "count",
    "sim.scheduler.useful_frac": "ratio",
    "sim.machine.stores": "count",
    "sim.machine.loads": "count",
    "sim.memmodel.drains": "count",
    "core.schemes.hash_updates": "count",
    "engine.judge.divergent_runs": "count",
    "engine.transport.submit_s": "s",
    "engine.transport.wait_s": "s",
    "engine.transport.close_s": "s",
    "engine.transport.useful_frac": "ratio",
    "sim.steps": "count",
    "sim.instructions": "count",
    "sim.checkpoints": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Transport sub-metric by the wrapped method's name.
TRANSPORT_PARTS = {"start": "submit_s", "next_result": "wait_s",
                   "close": "close_s"}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a gate mismatch)."""


# -- one invocation ----------------------------------------------------------


@dataclass
class Invocation:
    """What one CLI process did: timings, usage, output and trace."""

    exit_code: int
    verdict_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str
    failed: int
    trace: dict | None  # merge_trace() of the flush records, when traced


def command(name: str, runs: int, seed: int, tmp: Path) -> list:
    _, template = WORKLOADS[name]
    return [token.format(runs=runs, seed=seed, tmp=tmp)
            for token in template]


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _spawn_and_wait(argv: list, stdout, stderr):
    """Run *argv*; returns (spawn time, exit time, exit code, rusage).

    ``os.wait4`` reports the CLI's CPU time including the pool workers
    it reaped (its ``ru_maxrss`` is not used: see ``probe.py``).  The
    CLI runs in its own process group so a timeout kills its workers
    too.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT,
                            env=_cli_env(), start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        _kill_group(proc.pid)

    killer = threading.Timer(CLI_TIMEOUT_S, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    exited = time.monotonic()
    # A process the CLI left behind would slow the next invocation.
    _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise BenchError(f"repro {' '.join(argv[5:])}: killed after "
                         f"{CLI_TIMEOUT_S:.0f} s")
    return spawned, exited, proc.returncode, usage


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(name: str, runs: int, seed: int, tmp: Path,
           traced: bool = False) -> Invocation:
    """Run the workload's CLI command once, through the probe, with the
    layer tracer when *traced*."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    try:
        trace_dir = work / "trace"
        probe_mode = "run"
        if traced:
            trace_dir.mkdir()
            probe_mode = f"trace:{trace_dir}"
        mark = work / "mark"
        cli_args = command(name, runs, seed, work)
        argv = [sys.executable, str(PROBE), str(mark), probe_mode,
                *cli_args]
        with open(work / "stdout", "wb") as out, \
                open(work / "stderr", "wb") as err:
            spawned, exited, code, usage = _spawn_and_wait(argv, out, err)
        stdout = (work / "stdout").read_text()
        if code not in (0, 1):
            tail = (work / "stderr").read_text()[-2000:]
            raise BenchError(f"{name}: repro {' '.join(cli_args)} exited "
                             f"{code}:\n{tail}")
        marks = json.loads(mark.read_text()) if mark.exists() else {}
        if marks.get("first_run") is None:
            raise BenchError(f"{name}: the session never started a run")
        digest, failed = _read_report(cli_args[0], stdout)
        trace = None
        if traced:
            trace = merge_trace([json.loads(line)
                                 for path in trace_dir.glob("*.jsonl")
                                 for line in path.read_text().splitlines()])
        return Invocation(
            exit_code=code, verdict_s=exited - spawned,
            setup_s=marks["first_run"] - spawned,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=marks["peak_rss_kib"] / 1024.0,
            digest=digest, failed=failed, trace=trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


_FAILED_RUNS = re.compile(r"(\d+) failed run\(s\)")


def _read_report(subcommand: str, stdout: str):
    """(digest, failed runs) of one CLI report.

    ``check --json`` reports are digested as parsed JSON with the golden
    gate's canonical form; a campaign prints a summary, digested as text.
    """
    from repro.core.checker.golden import digest_payload

    if subcommand == "check":
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise BenchError(f"check --json printed no JSON report: {exc}")
        return digest_payload(report), len(report["failures"])
    if not stdout.startswith("campaign over "):
        raise BenchError(f"campaign printed no summary: {stdout[:200]!r}")
    failed = sum(int(n) for n in _FAILED_RUNS.findall(stdout))
    failed += sum(1 for line in stdout.splitlines() if " ERROR (" in line)
    return digest_payload(stdout), failed


# -- measurement -------------------------------------------------------------


def scaled_runs(name: str, scale: float) -> int:
    return max(2, round(WORKLOADS[name][0] * scale))


def measure(names, seed: int, scale: float, traced: bool, reps: int,
            seconds: float | None, tmp: Path, log) -> dict:
    """Interleaved rounds of every workload in *names*.

    Runs *reps* rounds, or with *seconds* as many rounds as fit in that
    many seconds (at least one).  A workload's turn in a round is one
    untraced invocation and with *traced* one traced invocation.
    Returns name -> {"untraced": [...], "traced": [...]} of
    :class:`Invocation`.
    """
    for name in names:  # compile bytecode, warm the page cache
        invoke(name, scaled_runs(name, min(scale, 0.05)), seed, tmp)
    got = {name: {"untraced": [], "traced": []} for name in names}
    started = time.monotonic()
    for round_no in itertools.count(1):
        for name in (names if round_no % 2 else names[::-1]):
            runs = scaled_runs(name, scale)
            inv = invoke(name, runs, seed, tmp)
            got[name]["untraced"].append(inv)
            log(f"  round {round_no} {name}: verdict {inv.verdict_s:.3f} s, "
                f"exit {inv.exit_code}")
            if traced:
                inv = invoke(name, runs, seed, tmp, traced=True)
                got[name]["traced"].append(inv)
                log(f"  round {round_no} {name} traced: verdict "
                    f"{inv.verdict_s:.3f} s, exit {inv.exit_code}")
        elapsed = time.monotonic() - started
        if seconds is None:
            if round_no >= reps:
                break
        elif elapsed * (round_no + 1) / round_no > seconds:
            break
    return got


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def session_steps(name: str, runs: int, expected: dict, traced: list):
    """Simulated steps of one session: the count of this run's traced
    session, else *runs* times the per-run count recorded in
    expected.json.  Seeds other than the recorded one may schedule
    differently, so without a traced session the count is approximate
    (``sbvl-tso-pool``: within 0.1%)."""
    if traced:
        return traced[0].trace["counts"]["sim.steps"]
    entry = expected.get(name)
    if entry:
        return entry["counts"]["sim.steps"] / entry["runs"] * runs
    raise BenchError(f"{name}: no step count in expected.json; run with "
                     f"--trace 1")


def end_to_end(invs: list, steps: float) -> dict:
    """name -> per-round samples of every end-to-end metric."""
    return {
        "verdict_s": [i.verdict_s for i in invs],
        "setup_s": [i.setup_s for i in invs],
        "steps_per_s": [steps / (i.verdict_s - i.setup_s) for i in invs],
        "cpu_s": [i.cpu_s for i in invs],
        "peak_rss_mb": [i.peak_rss_mb for i in invs],
    }


# -- the traced split ---------------------------------------------------------


def merge_trace(records: list) -> dict:
    """Sum one invocation's per-process flush records.

    Returns per-slot ``[self seconds, calls]``, the counts, every run's
    duration, and per process the root seconds and the unattributed
    share of them (``coverage``).
    """
    slots: dict = {}
    counts: dict = {}
    run_ms: list = []
    processes: dict = {}
    for record in records:
        proc = processes.setdefault(record["pid"], {
            "pid": record["pid"], "worker": record["worker"],
            "root_s": 0.0, "unattributed_s": 0.0})
        proc["root_s"] += record["root_s"]
        for slot, (self_s, calls) in record["slots"].items():
            total = slots.setdefault(slot, [0.0, 0])
            total[0] += self_s
            total[1] += calls
            if slot.startswith("root:"):
                proc["unattributed_s"] += self_s
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
        run_ms.extend(record["run_ms"])
    for proc in processes.values():
        proc["frac"] = (proc["unattributed_s"] / proc["root_s"]
                        if proc["root_s"] else 0.0)
    return {"slots": slots, "counts": counts, "run_ms": run_ms,
            "coverage": sorted(processes.values(), key=lambda p: p["pid"])}


def layer_metrics(merged: dict) -> dict:
    """Every per-layer metric of one traced invocation, except
    ``trace.overhead_frac`` (which needs the untraced runs)."""
    slots, counts = merged["slots"], merged["counts"]
    out = {name: 0 for name in PER_LAYER if name != "trace.overhead_frac"}
    for slot, (self_s, calls) in slots.items():
        layer, _, function = slot.partition(":")
        method = function.rpartition(".")[2]
        if layer == "engine.transport":
            out[f"engine.transport.{TRANSPORT_PARTS[method]}"] += self_s
        elif layer == "root":
            out["trace.unattributed_s"] += self_s
        else:
            out[f"{layer}.busy_s"] += self_s
            out[f"{layer}.calls"] += calls
        if slot == "sim.machine:Machine.load":
            out["sim.machine.loads"] = calls
        elif slot == "sim.machine:Machine.store":
            out["sim.machine.stores"] = calls
        elif slot == "sim.memmodel:StoreBufferModel.pop":
            out["sim.memmodel.drains"] += calls
    for key in ("sim.steps", "sim.instructions", "sim.checkpoints",
                "core.schemes.hash_updates", "sim.scheduler.redundant_runs",
                "engine.judge.divergent_runs"):
        out[key] = counts.get(key, 0)
    out["sim.memmodel.drains"] += counts.get("sim.memmodel.drains", 0)
    runs = out["sim.program.calls"]
    out["sim.scheduler.useful_frac"] = (
        (runs - out["sim.scheduler.redundant_runs"]) / runs if runs else 0.0)
    tasks = counts.get("engine.transport.tasks", 0)
    out["engine.transport.useful_frac"] = (
        counts.get("engine.transport.results", 0) / tasks if tasks else 0.0)
    if out["sim.steps"]:
        out["sim.program.us_per_step"] = (
            out["sim.program.busy_s"] / out["sim.steps"] * 1e6)
    run_ms = merged["run_ms"]
    if run_ms:
        out["sim.program.run_ms.p50"] = statistics.median(run_ms)
        out["sim.program.run_ms.p90"] = (
            statistics.quantiles(run_ms, n=10)[-1] if len(run_ms) > 1
            else run_ms[0])
    return out


# -- the output gate ---------------------------------------------------------


def load_json(path: Path, default=None):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        if default is not None:
            return default
        raise BenchError(f"{path} does not exist") from None


def gate(name: str, runs: int, seed: int, runs_by_kind: dict,
         expected: dict) -> list:
    """Pointed differences of one workload's outputs; empty means pass."""
    problems = []
    invs = runs_by_kind["untraced"] + runs_by_kind["traced"]
    first = invs[0]
    for field in ("exit_code", "digest"):
        seen = sorted({str(getattr(inv, field)) for inv in invs})
        if len(seen) > 1:
            problems.append(f"{name}: repetitions disagree on {field}: "
                            f"{', '.join(seen)}")
    counts = [{key: inv.trace["counts"].get(key, 0) for key in EXACT_COUNTS}
              for inv in runs_by_kind["traced"]]
    for key in EXACT_COUNTS:
        seen = sorted({c[key] for c in counts})
        if len(seen) > 1:
            problems.append(f"{name}: traced repetitions disagree on {key}: "
                            f"{seen}")
    entry = expected.get(name)
    if entry and entry["runs"] == runs and entry["seed"] == seed:
        if first.exit_code != entry["exit_code"]:
            problems.append(f"{name}: exit code: expected "
                            f"{entry['exit_code']}, got {first.exit_code}")
        if first.digest != entry["digest"]:
            problems.append(f"{name}: report digest: expected "
                            f"{entry['digest']}, got {first.digest}")
        if counts:
            problems.extend(
                f"{name}: {key}: expected {entry['counts'][key]}, got "
                f"{counts[0][key]}" for key in EXACT_COUNTS
                if entry["counts"][key] != counts[0][key])
    for inv in runs_by_kind["traced"]:
        for row in inv.trace["coverage"]:
            if row["frac"] >= MAX_UNATTRIBUTED:
                problems.append(
                    f"{name}: pid {row['pid']}: {row['unattributed_s']:.4f} s "
                    f"of {row['root_s']:.4f} s ({row['frac']:.1%}) is in no "
                    f"layer (limit {MAX_UNATTRIBUTED:.0%})")
    return problems


# -- summaries, provenance, output ------------------------------------------


def summarize(name: str, runs: int, seed: int, runs_by_kind: dict,
              expected: dict) -> dict:
    """One workload's result-file entry."""
    untraced, traced = runs_by_kind["untraced"], runs_by_kind["traced"]
    invs = untraced + traced
    samples = end_to_end(untraced, session_steps(name, runs, expected,
                                                 traced))
    metrics = {}
    for metric, values in samples.items():
        q1, median, q3 = quartiles(values)
        metrics[metric] = {"unit": END_TO_END[metric],
                           "value": REPORTED[metric](values),
                           "median": median, "q1": q1, "q3": q3,
                           "n": len(values)}
    entry = {
        "command": ["python", "-m", "repro",
                    *command(name, runs, seed, Path("$TMP"))],
        "runs": runs, "exit_code": invs[0].exit_code,
        "digest": invs[0].digest,
        "attempted": runs * len(invs),
        "failed": sum(inv.failed for inv in invs),
        "samples": samples, "metrics": metrics,
    }
    if traced:
        per_inv = [layer_metrics(inv.trace) for inv in traced]
        layers = {key: statistics.median(m[key] for m in per_inv)
                  for key in per_inv[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(inv.verdict_s for inv in traced)
            / metrics["verdict_s"]["median"] - 1.0)
        entry["layers"] = {key: {"unit": PER_LAYER[key],
                                 "value": layers[key]} for key in PER_LAYER}
        entry["counts"] = {key: layers[key] for key in EXACT_COUNTS}
        entry["coverage"] = [row for inv in traced
                             for row in inv.trace["coverage"]]
    return entry


def calibration_spin() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i
    return time.perf_counter() - start


def provenance() -> dict:
    from repro.core.hashing.kernels import resolve_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "hash_backend": resolve_backend("auto"),
        "git_sha": sha, "git_dirty": dirty,
        "calibration_s": min(calibration_spin() for _ in range(3)),
    }


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def print_report(name: str, entry: dict, traced: bool) -> None:
    print(f"== {name}: {' '.join(entry['command'])}")
    print(f"   exit {entry['exit_code']}, {entry['failed']} of "
          f"{entry['attempted']} runs failed, digest {entry['digest']}")
    for metric, m in entry["metrics"].items():
        print(f"   {metric:<14} {m['value']:>14.6g} {m['unit']:<8} "
              f"{REPORTED[metric].__name__} of n={m['n']}; median "
              f"{m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}")
    if traced:
        n = entry["metrics"]["verdict_s"]["n"]
        print(f"   per layer (median of {n} traced invocations):")
        for metric, m in entry["layers"].items():
            print(f"     {metric:<34} {m['value']:>14.6g} {m['unit']}")
        worst = max(entry["coverage"], key=lambda row: row["frac"])
        print(f"   coverage: at most {worst['frac']:.2%} of a process's "
              f"root span is in no layer")


def result_line(entry: dict, traced: bool) -> dict:
    """The single-workload JSON line of the benchmark contract."""
    metrics = {key: {"value": m["value"], "unit": m["unit"]}
               for key, m in entry["layers" if traced else "metrics"].items()}
    return {"correct": True, "attempted": entry["attempted"],
            "failed": entry["failed"], "metrics": metrics}


def trajectory_line(result: dict, out: Path | None) -> dict:
    return {
        "recorded_at": result["recorded_at"],
        "result_file": None if out is None else str(out),
        **{key: result["provenance"][key] for key in (
            "git_sha", "git_dirty", "cpu_count", "affinity_cpus", "python",
            "numpy", "hash_backend", "calibration_s")},
        "seed": result["config"]["seed"],
        "scale": result["config"]["scale"],
        "workloads": {name: {metric: m["value"]
                             for metric, m in entry["metrics"].items()}
                      for name, entry in result["workloads"].items()},
    }


# -- compare -----------------------------------------------------------------


def compare_metric(parent: list, change: list, better: str,
                   bound: float) -> tuple:
    """(pair-win fraction, verdict) of *change* against *parent*.

    improved: the change wins at least 9 of 10 pairs and the medians
    differ by more than the parent's interquartile range.  unresolved:
    either side's interquartile range exceeds the bound, unless every
    change run beats every parent run.  regressed: the change's median
    is worse by more than the bound.  Otherwise unchanged.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    q1a, ma, q3a = quartiles(parent)
    q1b, mb, q3b = quartiles(change)
    gain = (mb - ma) * sign
    if wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return wins / len(pairs), "improved"
    everywhere_better = all((b - a) * sign > 0
                            for a in parent for b in change)
    spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
    if spread > bound and not everywhere_better:
        return wins / len(pairs), "unresolved"
    if -gain / ma > bound:
        return wins / len(pairs), "regressed"
    return wins / len(pairs), "unchanged"


def load_runs(path: Path) -> dict:
    """workload -> metric -> one sample per run: the reported values of
    a result file, or of every ``*.json`` in a directory in file-name
    order.
    Each result file is one run, as in the guide's pairs of runs; a
    directory lets the runs of two commits alternate in time."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise BenchError(f"{path}: no result files")
    runs: dict = {}
    for file in files:
        for name, entry in load_json(file)["workloads"].items():
            for metric, m in entry["metrics"].items():
                runs.setdefault(name, {}).setdefault(metric, []).append(
                    m["value"])
    return runs


def compare(path_a: str, path_b: str) -> int:
    a, b = load_runs(Path(path_a)), load_runs(Path(path_b))
    spec = {m["name"]: m for m in load_json(BENCHMARK)["end_to_end"]}
    regressed = 0
    print(f"parent {path_a} vs change {path_b}")
    for name in [w for w in a if w in b]:
        print(f"== {name}")
        for metric, m in spec.items():
            pa, pb = a[name][metric], b[name][metric]
            wins, verdict = compare_metric(pa, pb, m["better"], m["bound"])
            regressed += verdict == "regressed"
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(pa), quartiles(pb)
            print(f"   {metric:<12} {ma:>12.6g} [{qa1:.6g}, {qa3:.6g}]  ->  "
                  f"{mb:>12.6g} [{qb1:.6g}, {qb3:.6g}] {m['unit']:<8} "
                  f"wins {wins:4.0%}  bound {m['bound']:.0%}  {verdict}")
    return 1 if regressed else 0


# -- entry point -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="CLI-to-verdict benchmark of the determinism checker")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append",
                        help="run only this workload (repeatable; default: "
                        "all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="passed to the CLI as --seed (default: 1000, "
                        "the seed expected.json was recorded at)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run rounds for this many seconds instead of "
                        "--reps rounds")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help=f"rounds to run (default: {DEFAULT_REPS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): follow each untraced invocation "
                        "with a traced one and report the per-layer split")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's run count")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the result file here")
    parser.add_argument("--append-trajectory", action="store_true",
                        help="append a one-line summary to trajectory.jsonl")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT CHANGE (result files or "
                  "directories of them)", file=sys.stderr)
            return 2
        try:
            return compare(argv[1], argv[2])
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run it from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = args.workload or list(WORKLOADS)
    traced = bool(args.trace)
    expected = load_json(EXPECTED, default={})
    log = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    scratch = ROOT / ".perf_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        got = measure(names, args.seed, args.scale, traced, args.reps,
                      args.seconds, tmp, log)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass

    problems = [line for name in names for line in gate(
        name, scaled_runs(name, args.scale), args.seed, got[name], expected)]
    if problems:
        print("run.py: OUTPUT GATE FAILED:", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 1

    result = {
        "schema": SCHEMA,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "config": {"seed": args.seed, "scale": args.scale, "trace": traced,
                   "rounds": len(got[names[0]]["untraced"])},
        "workloads": {name: summarize(name, scaled_runs(name, args.scale),
                                      args.seed, got[name], expected)
                      for name in names},
    }
    for name, entry in result["workloads"].items():
        print_report(name, entry, traced)
    if args.out or args.append_trajectory:
        result["provenance"] = provenance()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True)
                            + "\n")
        log(f"wrote {args.out}")
    if args.append_trajectory:
        with open(TRAJECTORY, "a") as handle:
            handle.write(json.dumps(trajectory_line(result, args.out),
                                    sort_keys=True) + "\n")
        log(f"appended to {TRAJECTORY}")
    if len(names) == 1:
        print(json.dumps(result_line(result["workloads"][names[0]], traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
