"""Tests for the machine: write path, observers, context switching."""

import random

import pytest

from repro.sim.counters import CostModel
from repro.sim.machine import STORE_WINDOW_CAPACITY, Machine, WriteObserver
from repro.sim.memmodel import make_memory_model
from repro.sim.memory import Memory
from repro.sim.program import Runner
from repro.workloads.fft import Fft


class RecordingObserver(WriteObserver):
    def __init__(self):
        self.stores = []
        self.switches = []
        self.frees = []

    def on_store(self, core, tid, address, old, new, is_fp, hashed):
        self.stores.append((core, tid, address, old, new, is_fp, hashed))

    def on_switch_out(self, core, tid):
        self.switches.append(("out", core, tid))

    def on_switch_in(self, core, tid):
        self.switches.append(("in", core, tid))

    def on_free(self, core, tid, block, old_values):
        self.frees.append((core, tid, block, tuple(old_values)))


def make_machine(n_cores=2, static=8, migrate_prob=0.0):
    machine = Machine(Memory(static_words=static), n_cores=n_cores,
                      migrate_prob=migrate_prob,
                      migrate_rng=random.Random(7))
    obs = RecordingObserver()
    machine.add_observer(obs)
    return machine, obs


def test_store_reports_old_and_new():
    machine, obs = make_machine()
    machine.store(0, 3, 10)
    machine.store(0, 3, 20)
    assert obs.stores[0][2:5] == (3, 0, 10)   # addr, old=0, new=10
    assert obs.stores[1][2:5] == (3, 10, 20)  # old value read before update


def test_store_updates_memory():
    machine, _ = make_machine()
    machine.store(1, 2, 42)
    assert machine.memory.load(2) == 42
    assert machine.load(1, 2) == 42


def test_captured_old_overrides_true_old():
    """The SW-Inc non-atomic stale-old path (Section 4.1)."""
    machine, obs = make_machine()
    machine.store(0, 1, 5)
    machine.store(0, 1, 9, captured_old=99)
    assert obs.stores[-1][3] == 99  # the stale captured value, not 5


def test_hashed_flag_propagates():
    machine, obs = make_machine()
    machine.store(0, 1, 5, hashed=False)
    assert obs.stores[-1][6] is False


def test_static_placement():
    machine, _ = make_machine(n_cores=2)
    assert machine.core_of(0) == 0
    assert machine.core_of(1) == 1
    assert machine.core_of(2) == 0  # tid % n_cores


def test_context_switch_events():
    machine, obs = make_machine(n_cores=1)
    machine.schedule_thread(0)
    machine.schedule_thread(1)  # same core: 0 out, 1 in
    assert ("in", 0, 0) in obs.switches
    assert ("out", 0, 0) in obs.switches
    assert ("in", 0, 1) in obs.switches


def test_no_switch_when_same_thread():
    machine, obs = make_machine(n_cores=1)
    machine.schedule_thread(0)
    n = len(obs.switches)
    machine.schedule_thread(0)
    assert len(obs.switches) == n


def test_migration_triggers_switch_events():
    machine, obs = make_machine(n_cores=4, migrate_prob=1.0)
    machine.schedule_thread(0)
    first_core = machine.core_of(0)
    for _ in range(20):
        machine.schedule_thread(0)
    cores_seen = {c for (_kind, c, t) in obs.switches if t == 0}
    assert len(cores_seen) > 1  # the thread actually moved


def test_free_block_notifies():
    machine, obs = make_machine()

    class FakeBlock:
        base, nwords = 100, 2

    machine.free_block(1, FakeBlock, [7, 8])
    assert obs.frees == [(1 % 2, 1, FakeBlock, (7, 8))]


def test_store_counts_instructions():
    # The runner charges every program load and store once; the
    # machine's access path charges nothing itself.
    machine, _ = make_machine()
    machine.store(0, 1, 5)
    machine.load(0, 1)
    assert machine.counters.instructions == {}
    record = Runner(Fft(n_workers=2, log2_n=3), n_cores=2).run(7)
    cost = CostModel()
    assert record.events["stores"] > 0 and record.events["loads"] > 0
    assert record.instructions["store"] == cost.store * record.events["stores"]
    assert record.instructions["load"] == cost.load * record.events["loads"]


def test_remove_observer():
    machine, obs = make_machine()
    machine.remove_observer(obs)
    machine.store(0, 1, 5)
    assert obs.stores == []


# -- the store window --------------------------------------------------------------


class WindowObserver(WriteObserver):
    """A scheme-like observer: hashed stores arrive only in windows."""

    def __init__(self):
        self.log = []

    def on_store(self, *event):
        raise AssertionError("a window observer gets no per-store call")

    def on_store_batch(self, window):
        self.log.append(("window", list(window)))

    def on_switch_out(self, core, tid):
        self.log.append(("out", core, tid))

    def on_switch_in(self, core, tid):
        self.log.append(("in", core, tid))

    def on_free(self, core, tid, block, old_values):
        self.log.append(("free", tid))


class OneWordBlock:
    base, nwords = 100, 1


def make_window_machine(n_cores=2, memory_model=None):
    """A machine with a synchronous observer, then a window observer."""
    machine = Machine(Memory(static_words=8), n_cores=n_cores,
                      memory_model=memory_model)
    sync, window = RecordingObserver(), WindowObserver()
    machine.add_observer(sync)
    machine.add_observer(window)
    return machine, sync, window


def test_window_holds_the_hashed_stores_in_retirement_order():
    machine, sync, obs = make_window_machine()
    machine.store(0, 1, 5)
    machine.store(1, 2, 6.5, is_fp=True)
    machine.store(0, 3, 7, hashed=False)
    machine.store(0, 1, 8, captured_old=99)
    assert obs.log == []  # nothing is delivered before a flush point
    machine.flush_stores()
    assert obs.log == [("window", [(0, 0, 1, 0, 5, False),
                                   (1, 1, 2, 0, 6.5, True),
                                   (0, 0, 1, 99, 8, False)])]
    # The synchronous observer saw every store as it retired.
    assert [store[2:] for store in sync.stores] == [
        (1, 0, 5, False, True), (2, 0, 6.5, True, True),
        (3, 0, 7, False, False), (1, 99, 8, False, True)]
    machine.flush_stores()  # an empty window is not delivered
    assert len(obs.log) == 1


def test_control_stores_reach_only_the_synchronous_observer():
    machine, sync, obs = make_window_machine()
    machine.store(0, 1, 5, hashed=False)
    machine.flush_stores()
    assert obs.log == []
    assert sync.stores == [(0, 0, 1, 0, 5, False, False)]


def test_window_closes_before_context_switch_events():
    machine, _, obs = make_window_machine(n_cores=1)
    machine.schedule_thread(0)
    machine.store(0, 1, 5)
    machine.schedule_thread(1)
    assert obs.log == [("in", 0, 0), ("window", [(0, 0, 1, 0, 5, False)]),
                       ("out", 0, 0), ("in", 0, 1)]


def test_window_closes_before_free():
    machine, _, obs = make_window_machine()
    machine.store(0, 1, 5)
    machine.free_block(0, OneWordBlock, [0])
    assert obs.log == [("window", [(0, 0, 1, 0, 5, False)]), ("free", 0)]


def test_window_closes_at_attach_and_detach():
    machine, _, first = make_window_machine()
    machine.store(0, 1, 5)
    second = WindowObserver()
    machine.add_observer(second)  # gets no store from before it attached
    assert first.log == [("window", [(0, 0, 1, 0, 5, False)])]
    machine.store(0, 2, 6)
    machine.remove_observer(first)  # gets every store until it detached
    assert first.log[1:] == second.log == [
        ("window", [(0, 0, 2, 0, 6, False)])]
    machine.store(0, 3, 7)
    machine.flush_stores()
    assert len(first.log) == 2 and len(second.log) == 2


def test_window_closes_at_capacity():
    machine, _, obs = make_window_machine()
    for value in range(1, STORE_WINDOW_CAPACITY + 2):
        machine.store(0, 1, value)
    assert len(obs.log) == 1
    assert len(obs.log[0][1]) == STORE_WINDOW_CAPACITY
    machine.flush_stores()
    assert obs.log[1][1] == [(0, 0, 1, STORE_WINDOW_CAPACITY,
                              STORE_WINDOW_CAPACITY + 1, False)]


@pytest.mark.parametrize("model", ["tso", "pso"])
def test_buffered_store_enters_the_window_when_it_drains(model):
    machine, sync, obs = make_window_machine(
        memory_model=make_memory_model(model))
    machine.store(0, 1, 5)
    machine.flush_stores()
    assert obs.log == [] and sync.stores == []
    machine.execute_drain(machine.drain_choices()[0])
    machine.flush_stores()
    assert obs.log == [("window", [(0, 0, 1, 0, 5, False)])]
    assert sync.stores == [(0, 0, 1, 0, 5, False, True)]
