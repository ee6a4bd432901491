"""Socket-fleet loopback suite: real worker processes, identical verdicts.

One in-process :class:`WorkerHub` (installed as the ambient hub, the
way ``repro serve`` does it) and two genuine ``repro worker``
subprocesses on loopback.  Everything the ISSUE's acceptance gate asks
for runs here: byte-identical verdicts against serial and the
local process pool, ``stop_on_first`` truncation identity, and the
requeue path — a worker SIGKILLed mid-batch (via the failpoint
harness) must not change the verdict by a single byte.  A peer sending
a garbled, too deeply nested or over-long line is dropped alone; the
hub keeps serving the fleet.
"""

import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.checker.runner import check_determinism
from repro.core.checker.serialize import result_to_dict, to_json
from repro.core.engine import sockets
from repro.core.engine.model import CheckConfig, InputPoint
from repro.core.engine.sockets import WorkerHub, set_ambient_hub
from repro.core.engine.wire import build_named_program, pack_blob
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


# -- the hub's shared state under concurrent reader threads ---------------------


def _fake_worker(port, pid):
    """A minimal in-process worker: beat, then answer each run with 2*index."""
    conn = sockets._Conn(socket.create_connection(("127.0.0.1", port),
                                                  timeout=30))
    try:
        conn.send({"type": "hello", "role": "worker", "pid": pid})
        assert conn.recv()["type"] == "welcome"
        while (frame := conn.recv()) is not None:
            if frame["type"] == "run":
                conn.send({"type": "heartbeat", "beat": {"pid": pid}})
                conn.send({"type": "result", "gen": frame["gen"],
                           "index": frame["index"],
                           "payload": pack_blob(2 * frame["index"])})
    finally:
        conn.close()


def test_hub_delivers_each_run_once_under_thread_contention():
    # More fake workers than cores and a tiny switch interval: a lost
    # update to the batch state would drop, duplicate or hang a run.
    from repro.core.engine.heartbeat import HeartbeatMonitor

    hub = WorkerHub(port=0).start()
    tele = Telemetry(MemorySink())
    monitor = HeartbeatMonitor(tele, queue.SimpleQueue()).start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    workers = [threading.Thread(target=_fake_worker, args=(hub.port, pid),
                                daemon=True) for pid in range(6)]
    try:
        for thread in workers:
            thread.start()
        _await_fleet(hub, 6)
        results = hub.begin_batch({i: {} for i in range(300)},
                                  monitor=monitor)
        got = []
        while (item := results.get(timeout=60)) is not sockets._DONE:
            got.append(item)
        hub.end_batch()
    finally:
        sys.setswitchinterval(interval)
        monitor.stop()
        hub.stop()
    for thread in workers:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert sorted(got) == [(i, 2 * i) for i in range(300)]
    assert hub.n_workers() == 0
    beats = [e for e in tele.sink.events if e.get("name") == "worker_heartbeat"]
    assert len(beats) == 300


# -- malformed peers: dropped, the hub keeps serving ---------------------------


def _closed_by_peer(sock) -> bool:
    sock.settimeout(10.0)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True  # closed with our unread bytes still queued


def test_hub_drops_malformed_peers_and_keeps_serving(fleet, monkeypatch):
    before = fleet.n_workers()
    bad_lines = [b"\xff\xfe not json\n", b"[" * 100000 + b"\n"]
    for line in bad_lines:
        with socket.create_connection(("127.0.0.1", fleet.port)) as sock:
            sock.sendall(line)
            assert _closed_by_peer(sock)
    with monkeypatch.context() as patch:
        patch.setattr(sockets, "_FRAME_LIMIT", 1024)
        with socket.create_connection(("127.0.0.1", fleet.port)) as sock:
            sock.sendall(b"x" * 4096 + b"\n")
            assert _closed_by_peer(sock)
    assert fleet.n_workers() == before
    serial = check_determinism(make("fft"), CheckConfig(runs=6))
    socketed = check_determinism(
        make("fft"), CheckConfig(runs=6, workers=2, executor="socket"))
    assert _canonical(serial) == _canonical(socketed)


# -- refusals ------------------------------------------------------------------


def test_socket_without_a_hub_is_a_pointed_error(monkeypatch):
    monkeypatch.setattr(sockets, "_AMBIENT_HUB", None)
    monkeypatch.delenv(sockets.SOCKET_PORT_ENV_VAR, raising=False)
    with pytest.raises(CheckerError, match="repro serve"):
        check_determinism(make("fft"),
                          CheckConfig(runs=4, workers=2, executor="socket"))


def test_hub_bind_failure_raises_from_start(fleet):
    with pytest.raises(CheckerError, match="failed to listen"):
        WorkerHub(port=fleet.port).start()


def test_socket_refuses_unspecced_programs(fleet):
    with pytest.raises(ReproError, match="registry name"):
        check_determinism(RacyProgram(),
                          CheckConfig(runs=4, workers=2, executor="socket"))
