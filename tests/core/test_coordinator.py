"""The transport-agnostic coordinator's steering contract.

Exercised against scripted fakes so every branch is pinned without a
process pool: judge-driven cancel carries the divergence floor,
budget-driven cancel carries none, marker values skip steering,
``close`` runs even when a fold explodes, an abandoned batch is closed
as aborted, and the ``session_cancelled`` event preserves the legacy
field order.
"""

import pytest

from repro.core.engine.coordinator import Coordinator, Feedback, coordinate


class FakeTransport:
    """Feeds a scripted result stream; records every steering call."""

    name = "fake"

    def __init__(self, items):
        self.items = list(items)
        self.cancelled = False
        self.cancelled_count = 0
        self.expired = False
        self.aborted = False
        self.calls = []

    def start(self, tasks):
        self.calls.append(("start", sorted(tasks)))

    def next_result(self):
        if not self.items:
            return None
        return self.items.pop(0)

    def cancel(self, floor=None):
        self.calls.append(("cancel", floor))
        self.cancelled = True
        self.cancelled_count += len(self.items)

    def close(self):
        self.calls.append(("close",))


class ScriptedFeedback(Feedback):
    def __init__(self, cancel_after=None, floor=None, budget_after=None):
        self.folded = []
        self.cancel_after = cancel_after
        self.floor = floor
        self.budget_after = budget_after

    def fold(self, index, value):
        self.folded.append((index, value))

    def should_cancel(self):
        return (self.cancel_after is not None
                and len(self.folded) >= self.cancel_after)

    def cancel_floor(self):
        return self.floor

    def budget_exhausted(self):
        return (self.budget_after is not None
                and len(self.folded) >= self.budget_after)

    def progress(self):
        return {"completed": len(self.folded), "failed": 0}


class EventRecorder:
    class registry:  # noqa: N801 - mimics Telemetry.registry.counter(...)
        @staticmethod
        def counter(name):
            class _C:
                def inc(self):
                    pass
            return _C()

    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


def test_folds_everything_without_steering():
    transport = FakeTransport([(0, "a"), (2, "c"), (1, "b")])
    feedback = ScriptedFeedback()
    coordinate(transport, feedback, {0: "t0", 1: "t1", 2: "t2"})
    assert feedback.folded == [(0, "a"), (2, "c"), (1, "b")]
    assert transport.calls == [("start", [0, 1, 2]), ("close",)]


def test_judge_cancel_carries_the_divergence_floor():
    transport = FakeTransport([(0, "a"), (1, "b"), (2, "c")])
    feedback = ScriptedFeedback(cancel_after=2, floor=1)
    coord = Coordinator(transport, feedback)
    coord.run({i: None for i in range(3)})
    assert ("cancel", 1) in transport.calls
    assert coord.stop_cancelled
    # In-flight results keep folding after the cancel — the transport
    # decides what still completes, the coordinator folds all of it.
    assert [i for i, _ in feedback.folded] == [0, 1, 2]


def test_budget_cancel_carries_no_floor_and_no_event():
    transport = FakeTransport([(0, "a"), (1, "b")])
    feedback = ScriptedFeedback(budget_after=1)
    tele = EventRecorder()
    coord = Coordinator(transport, feedback, tele=tele, program_name="p")
    coord.run({0: None, 1: None})
    assert ("cancel", None) in transport.calls
    assert not coord.stop_cancelled
    assert tele.events == []  # expiry is the budget's event, not an ask


def test_cancel_issued_once():
    transport = FakeTransport([(i, "x") for i in range(4)])
    feedback = ScriptedFeedback(cancel_after=1, floor=0)
    coordinate(transport, feedback, {i: None for i in range(4)})
    assert [c for c in transport.calls if c[0] == "cancel"] == [("cancel", 0)]


def test_close_runs_when_a_fold_raises():
    class ExplodingFeedback(ScriptedFeedback):
        def fold(self, index, value):
            raise RuntimeError("judge blew up")

    transport = FakeTransport([(0, "a")])
    with pytest.raises(RuntimeError, match="judge blew up"):
        coordinate(transport, ExplodingFeedback(), {0: None})
    assert ("close",) in transport.calls


def test_session_cancelled_event_preserves_field_order():
    transport = FakeTransport([(0, "a"), (1, "b"), (2, "c")])
    feedback = ScriptedFeedback(cancel_after=1, floor=0)
    tele = EventRecorder()
    coordinate(transport, feedback, {i: None for i in range(3)}, tele=tele,
               program_name="racy")
    assert len(tele.events) == 1
    name, fields = tele.events[0]
    assert name == "session_cancelled"
    # Observability identity: consumers (and the golden telemetry
    # tests) rely on this exact field order.
    assert list(fields) == ["program", "backend", "completed", "failed",
                            "cancelled"]
    assert fields["program"] == "racy"
    assert fields["backend"] == "fake"


def test_an_abandoned_batch_is_closed_as_aborted():
    class ExplodingFeedback(ScriptedFeedback):
        def fold(self, index, value):
            raise RuntimeError("judge blew up")

    transport = FakeTransport([(0, "a")])
    with pytest.raises(RuntimeError, match="judge blew up"):
        coordinate(transport, ExplodingFeedback(), {0: None})
    # The pool and socket transports read the flag in close() to kill
    # their workers instead of waiting them out.
    assert transport.aborted


def test_a_signal_raised_mid_wait_aborts_and_closes():
    class InterruptedTransport(FakeTransport):
        def next_result(self):
            raise KeyboardInterrupt  # a shutdown signal during the get

    transport = InterruptedTransport([])
    with pytest.raises(KeyboardInterrupt):
        coordinate(transport, ScriptedFeedback(), {0: None})
    assert transport.aborted
    assert transport.calls[-1] == ("close",)
