"""Socket-fleet loopback suite: real worker processes, identical verdicts.

One in-process :class:`WorkerHub` (installed as the ambient hub, the
way ``repro serve`` does it) and two genuine ``repro worker``
subprocesses on loopback.  Everything the ISSUE's acceptance gate asks
for runs here: byte-identical verdicts against serial and the
local process pool, ``stop_on_first`` truncation identity, and the
requeue path — a worker SIGKILLed mid-batch (via the failpoint
harness) must not change the verdict by a single byte.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.checker.runner import check_determinism
from repro.core.checker.serialize import result_to_dict, to_json
from repro.core.engine import sockets
from repro.core.engine.model import CheckConfig, InputPoint
from repro.core.engine.sockets import WorkerHub, set_ambient_hub
from repro.core.engine.wire import build_named_program
from repro.errors import CheckerError, ReproError
from repro.telemetry import MemorySink, Telemetry
from repro.workloads import make

from _programs import RacyProgram

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def _canonical(result):
    payload = result_to_dict(result, include_hashes=True)
    payload.pop("workers")
    return json.dumps(payload, sort_keys=True, default=str)


def _worker_env(**extra):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_ROOT
    env.pop("REPRO_FAILPOINTS", None)
    env.update(extra)
    return env


def _spawn_worker(port, **env_extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"127.0.0.1:{port}", "--retry-for", "30"],
        env=_worker_env(**env_extra),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _await_fleet(hub, count, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while hub.n_workers() < count:
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"fleet never reached {count} workers "
                f"(have {hub.n_workers()})")
        time.sleep(0.05)


@pytest.fixture(scope="module")
def fleet():
    """An ambient hub with two live ``repro worker`` subprocesses."""
    hub = WorkerHub(port=0).start()
    set_ambient_hub(hub)
    workers = [_spawn_worker(hub.port) for _ in range(2)]
    try:
        _await_fleet(hub, 2)
        yield hub
    finally:
        set_ambient_hub(None)
        for proc in workers:
            proc.kill()
            proc.wait(timeout=10)
        hub.stop()


# -- bit-identity across coordinator transports --------------------------------


def test_socket_session_bit_identical_to_serial_and_process_pool(fleet):
    serial = check_determinism(make("fft"), CheckConfig(runs=6))
    local = check_determinism(
        make("fft"), CheckConfig(runs=6, workers=2,
                                 executor="process-pool"))
    socketed = check_determinism(
        make("fft"), CheckConfig(runs=6, workers=2, executor="socket"))
    assert _canonical(serial) == _canonical(local) == _canonical(socketed)


def test_socket_nondeterministic_verdict_matches_serial(fleet):
    serial = check_determinism(build_named_program("seeded-radix"),
                               CheckConfig(runs=4))
    socketed = check_determinism(
        build_named_program("seeded-radix"),
        CheckConfig(runs=4, workers=2, executor="socket"))
    assert _canonical(serial) == _canonical(socketed)


def test_socket_crash_divergence_matches_serial(fleet):
    from repro.sim.faults import make_fault

    serial = check_determinism(make_fault("deadlock-fault"),
                               CheckConfig(runs=6))
    socketed = check_determinism(
        make_fault("deadlock-fault"),
        CheckConfig(runs=6, workers=2, executor="socket"))
    assert serial.outcome == socketed.outcome
    assert _canonical(serial) == _canonical(socketed)


def test_socket_stop_on_first_truncates_identically(fleet):
    serial = check_determinism(
        build_named_program("seeded-radix"),
        CheckConfig(runs=8, stop_on_first=True))
    socketed = check_determinism(
        build_named_program("seeded-radix"),
        CheckConfig(runs=8, stop_on_first=True, workers=2,
                    executor="socket"))
    assert _canonical(serial) == _canonical(socketed)


def test_socket_campaign_matches_process_pool(fleet):
    from repro.core.checker.campaign import run_campaign
    from repro.core.engine.wire import ProgramFactory

    points = [InputPoint("small", {"log2_n": 5}),
              InputPoint("large", {"log2_n": 6})]
    pooled = run_campaign(ProgramFactory("fft"), points,
                          CheckConfig(runs=4, workers=2,
                                      executor="process-pool"))
    socketed = run_campaign(ProgramFactory("fft"), points,
                            CheckConfig(runs=4, workers=2,
                                        executor="socket"))
    assert to_json(pooled) == to_json(socketed)


# -- worker loss: requeue without changing the verdict -------------------------


def test_socket_survives_a_killed_worker_bit_identically(fleet):
    # A third worker whose failpoint SIGKILLs it (os._exit) the moment
    # its first run is dispatched: the hub must requeue that run onto a
    # surviving worker and the verdict must not move by a byte.
    doomed = _spawn_worker(fleet.port,
                           REPRO_FAILPOINTS="worker.run.before=kill@at:1")
    try:
        _await_fleet(fleet, 3)
        serial = check_determinism(make("fft"), CheckConfig(runs=10))
        tele = Telemetry(MemorySink())
        socketed = check_determinism(
            make("fft"), CheckConfig(runs=10, workers=3, executor="socket"),
            telemetry=tele)
        assert _canonical(serial) == _canonical(socketed)
        assert doomed.wait(timeout=30) == 86  # the failpoint's exit code
        names = [e["name"] for e in tele.sink.events if e.get("t") == "event"]
        assert "worker_lost" in names
        assert "run_requeued" in names
    finally:
        doomed.kill()
        doomed.wait(timeout=10)
        _await_fleet(fleet, 2)


# -- refusals ------------------------------------------------------------------


def test_socket_without_a_hub_is_a_pointed_error(monkeypatch):
    monkeypatch.setattr(sockets, "_AMBIENT_HUB", None)
    monkeypatch.delenv(sockets.SOCKET_PORT_ENV_VAR, raising=False)
    with pytest.raises(CheckerError, match="repro serve"):
        check_determinism(make("fft"),
                          CheckConfig(runs=4, workers=2, executor="socket"))


def test_socket_refuses_unspecced_programs(fleet):
    with pytest.raises(ReproError, match="registry name"):
        check_determinism(RacyProgram(),
                          CheckConfig(runs=4, workers=2, executor="socket"))
