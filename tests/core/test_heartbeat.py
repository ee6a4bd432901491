"""Tests for worker heartbeats and the parent-side HeartbeatMonitor."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core.checker.runner import check_determinism
from repro.core.engine.executors import (HeartbeatMonitor,
                                         ProcessPoolRunExecutor)
from repro.telemetry import MemorySink, Telemetry

from _programs import Fig1Program


def _beat(pid=100, runs=0, checkpoints=0, mono=0.0):
    return {"pid": pid, "runs": runs, "checkpoints": checkpoints,
            "last_progress": mono, "mono": mono}


def _events(sink, name):
    return [e for e in sink.events
            if e.get("t") == "event" and e.get("name") == name]


class TestMonitorStateMachine:
    """Drive observe_beat/check_stalls directly with a fake clock."""

    def _monitor(self, stall_after_s=5.0):
        sink = MemorySink()
        tele = Telemetry(sink)
        monitor = HeartbeatMonitor(tele, beat_queue=None,
                                   stall_after_s=stall_after_s)
        return monitor, sink, tele

    def test_beat_updates_gauges_and_emits_event(self):
        monitor, sink, tele = self._monitor()
        monitor.observe_beat(_beat(pid=7, runs=2, checkpoints=40), now=1.0)
        beats = _events(sink, "worker_heartbeat")
        assert len(beats) == 1
        assert beats[0]["worker"] == 7
        assert beats[0]["runs_completed"] == 2
        gauges = tele.registry.snapshot()["gauges"]
        assert gauges["worker_staleness_seconds{worker=7}"] == 0.0
        counters = tele.registry.snapshot()["counters"]
        assert counters["worker_heartbeats{worker=7}"] == 1

    def test_rate_from_worker_clock_deltas(self):
        monitor, sink, _ = self._monitor()
        monitor.observe_beat(_beat(checkpoints=0, mono=10.0), now=0.0)
        monitor.observe_beat(_beat(checkpoints=30, mono=12.0), now=2.0)
        beats = _events(sink, "worker_heartbeat")
        assert beats[1]["checkpoints_per_s"] == pytest.approx(15.0)

    def test_rate_never_negative_after_worker_restart(self):
        monitor, sink, _ = self._monitor()
        monitor.observe_beat(_beat(checkpoints=100, mono=10.0), now=0.0)
        monitor.observe_beat(_beat(checkpoints=0, mono=11.0), now=1.0)
        assert _events(sink, "worker_heartbeat")[1]["checkpoints_per_s"] == 0.0

    def test_staleness_grows_on_parent_clock(self):
        monitor, _, tele = self._monitor(stall_after_s=5.0)
        monitor.observe_beat(_beat(pid=9), now=0.0)
        monitor.check_stalls(now=3.0)
        gauges = tele.registry.snapshot()["gauges"]
        assert gauges["worker_staleness_seconds{worker=9}"] == 3.0

    def test_one_stalled_event_per_episode(self):
        monitor, sink, tele = self._monitor(stall_after_s=5.0)
        monitor.observe_beat(_beat(pid=9, runs=1), now=0.0)
        monitor.check_stalls(now=6.0)
        monitor.check_stalls(now=7.0)   # still the same episode
        monitor.check_stalls(now=60.0)  # ... however long it lasts
        stalled = _events(sink, "worker_stalled")
        assert len(stalled) == 1
        assert stalled[0]["worker"] == 9
        assert stalled[0]["staleness_s"] == 6.0
        assert tele.registry.snapshot()["counters"]["workers_stalled"] == 1

    def test_recovery_clears_the_episode_and_marks_the_beat(self):
        monitor, sink, _ = self._monitor(stall_after_s=5.0)
        monitor.observe_beat(_beat(pid=9), now=0.0)
        monitor.check_stalls(now=6.0)
        monitor.observe_beat(_beat(pid=9, mono=6.0), now=6.5)
        assert _events(sink, "worker_heartbeat")[-1]["recovered"] is True
        # A second silence is a fresh episode: a second stalled event.
        monitor.check_stalls(now=12.0)
        assert len(_events(sink, "worker_stalled")) == 2

    def test_workers_tracked_independently(self):
        monitor, sink, _ = self._monitor(stall_after_s=5.0)
        monitor.observe_beat(_beat(pid=1), now=0.0)
        monitor.observe_beat(_beat(pid=2), now=4.0)
        monitor.check_stalls(now=6.0)  # pid 1 silent 6s, pid 2 only 2s
        stalled = _events(sink, "worker_stalled")
        assert [e["worker"] for e in stalled] == [1]


class TestMonitorThread:
    """The real monitor thread, fed through a multiprocessing queue."""

    def _started(self):
        sink = MemorySink()
        beats = multiprocessing.Queue()
        monitor = HeartbeatMonitor(Telemetry(sink), beats, poll_s=5.0)
        return monitor.start(), beats, sink

    def test_stop_wakes_an_idle_monitor_at_once(self):
        monitor, beats, sink = self._started()
        beats.put(_beat(pid=1))
        deadline = time.monotonic() + 5.0
        while not _events(sink, "worker_heartbeat"):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # The thread is now blocked in a 5 s queue poll.
        started = time.monotonic()
        monitor.stop()
        assert time.monotonic() - started < 1.0

    def test_beats_queued_before_stop_still_produce_events(self):
        monitor, beats, sink = self._started()
        for pid in (1, 2, 3):
            beats.put(_beat(pid=pid))
        started = time.monotonic()
        monitor.stop()
        assert time.monotonic() - started < 1.0
        assert [e["worker"] for e in _events(sink, "worker_heartbeat")] == [
            1, 2, 3]


class TestPoolIntegration:
    def test_pool_session_emits_heartbeats(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.heartbeat.HEARTBEAT_INTERVAL_S",
                            0.05)
        sink = MemorySink()
        tele = Telemetry(sink)
        check_determinism(Fig1Program(), runs=6, workers=2, telemetry=tele)
        beats = _events(sink, "worker_heartbeat")
        assert beats  # each worker beats at startup, before any sleep
        assert all(isinstance(e["worker"], int) for e in beats)
        counters = tele.registry.snapshot()["counters"]
        beat_counters = [k for k in counters
                         if k.startswith("worker_heartbeats{")]
        assert beat_counters

    def test_disabled_telemetry_arms_no_heartbeat_channel(self):
        executor = ProcessPoolRunExecutor(2, telemetry=Telemetry())
        assert executor.telemetry is None
        assert executor._start_heartbeats(None) == ()
        assert executor.monitor is None


def _slow_task(duration: float) -> int:
    time.sleep(duration)
    return os.getpid()


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"),
                    reason="needs SIGSTOP/SIGCONT")
class TestStallDetection:
    def test_sigstopped_worker_reports_stalled_without_breaking_result(self):
        sink = MemorySink()
        tele = Telemetry(sink)
        executor = ProcessPoolRunExecutor(1, telemetry=tele,
                                          heartbeat_interval_s=0.05,
                                          stall_after_s=0.4)
        stopped = {}

        def freeze_and_thaw():
            deadline = time.monotonic() + 10
            pid = None
            while time.monotonic() < deadline and pid is None:
                beats = _events(sink, "worker_heartbeat")
                if beats:
                    pid = beats[0]["worker"]
                time.sleep(0.02)
            if pid is None:
                return
            os.kill(pid, signal.SIGSTOP)
            stopped["pid"] = pid
            while time.monotonic() < deadline:
                if _events(sink, "worker_stalled"):
                    break
                time.sleep(0.02)
            os.kill(pid, signal.SIGCONT)

        saboteur = threading.Thread(target=freeze_and_thaw)
        saboteur.start()
        results = dict(executor.stream({0: (_slow_task, (2.0,))}))
        saboteur.join(timeout=15)
        # The task's result is intact despite the freeze...
        assert results[0] == stopped["pid"]
        # ... and the freeze was reported while it lasted.
        stalled = _events(sink, "worker_stalled")
        assert stalled
        assert stalled[0]["worker"] == stopped["pid"]
        assert stalled[0]["staleness_s"] >= 0.4
