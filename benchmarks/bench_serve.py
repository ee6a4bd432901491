"""Coordinator-transport cost: the socket fleet vs the local pool.

The fan-out backends are ``Transport``s driven by one blocking
scheduling loop; ``serial`` is a plain inline loop.  This benchmark runs the same
session on the ``serial`` backend, the local ``process-pool`` and the
``socket`` fleet — a hub plus real ``repro worker`` subprocesses on
loopback — and fails unless all three verdicts are bit-identical.  The wall-clock
rows are informational: socket adds serialization and TCP hops by
design; it buys distribution, not local speed.

Results land in ``benchmarks/results/serve.json``.

Usage::

    python benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

DEFAULT_APP = "fft"
DEFAULT_RUNS = 16
DEFAULT_WORKERS = 2
SEED = 1000


def _canonical_verdict(result) -> str:
    from repro.core.checker.serialize import result_to_dict

    payload = result_to_dict(result, include_hashes=True)
    payload.pop("workers")
    return json.dumps(payload, sort_keys=True, default=str)


def _time_session(app: str, runs: int, workers: int, executor: str,
                  repeats: int) -> tuple[float, str]:
    from repro.core.checker.runner import CheckConfig, check_determinism
    from repro.workloads import make

    best = None
    verdict = None
    for _ in range(repeats):
        config = CheckConfig(runs=runs, base_seed=SEED, workers=workers,
                             executor=executor)
        start = time.perf_counter()
        result = check_determinism(make(app), config)
        elapsed = time.perf_counter() - start
        verdict = _canonical_verdict(result)
        if best is None or elapsed < best:
            best = elapsed
    return best, verdict


def measure(app: str = DEFAULT_APP, runs: int = DEFAULT_RUNS,
            workers: int = DEFAULT_WORKERS, repeats: int = 2,
            with_socket: bool = True) -> dict:
    """Time the same session per transport; verify verdict identity."""
    from repro.core.engine.sockets import WorkerHub, set_ambient_hub

    rows = {}
    reference = None
    for executor in ("serial", "process-pool"):
        wall, verdict = _time_session(app, runs, workers, executor, repeats)
        if reference is None:
            reference = verdict
        elif verdict != reference:
            raise AssertionError(
                f"{app}: verdict on {executor!r} differs from serial — "
                f"the pool fan-out broke bit-identity")
        rows[executor] = {"wall_s": round(wall, 4)}

    if with_socket:
        hub = WorkerHub(port=0).start()
        set_ambient_hub(hub)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", "")]))
        env.pop("REPRO_FAILPOINTS", None)
        fleet = [subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{hub.port}", "--retry-for", "30"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(workers)]
        try:
            deadline = time.monotonic() + 30
            while hub.n_workers() < workers:
                if time.monotonic() >= deadline:
                    raise AssertionError("worker fleet never came up")
                time.sleep(0.05)
            wall, verdict = _time_session(app, runs, workers, "socket",
                                          repeats)
            if verdict != reference:
                raise AssertionError(
                    f"{app}: socket verdict differs from serial — the "
                    f"wire transport broke bit-identity")
            rows["socket"] = {"wall_s": round(wall, 4)}
        finally:
            set_ambient_hub(None)
            for proc in fleet:
                proc.kill()
                proc.wait(timeout=10)
            hub.stop()

    pool = rows["process-pool"]["wall_s"]
    for name, row in rows.items():
        row["vs_pool_pct"] = round((row["wall_s"] / pool - 1.0) * 100.0, 2)
    return {
        "schema": "repro.bench.serve/v1",
        "app": app,
        "runs": runs,
        "seed": SEED,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "verdicts_identical": True,
        "transports": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default=DEFAULT_APP)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--no-socket", action="store_true",
                        help="skip the socket-fleet row (no subprocesses)")
    parser.add_argument("--out", default=os.path.join(
        RESULTS_DIR, "serve.json"))
    args = parser.parse_args(argv)

    payload = measure(args.app, args.runs, args.workers, args.repeats,
                      with_socket=not args.no_socket)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")

    return 0


def test_serve_bench_verdict_identity():
    """Pytest-visible reduced shape check (no socket fleet)."""
    payload = measure(runs=4, workers=2, repeats=1, with_socket=False)
    assert payload["verdicts_identical"]
    assert payload["transports"]["serial"]["vs_pool_pct"] is not None


if __name__ == "__main__":
    sys.exit(main())
