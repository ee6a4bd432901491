"""Tests for the machine: write path, observers, context switching."""

import random

from repro.sim.counters import CostModel
from repro.sim.machine import Machine, WriteObserver
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
