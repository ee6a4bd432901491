"""The simulated multicore machine: cores, the L1 write path, observers.

All InstantCheck schemes hook the machine through the *write observer*
interface — the single interception point that plays the role of both
Pin's store instrumentation (software schemes) and the L1-controller MHM
(hardware scheme).  Every store that updates memory retires as
``(core, tid, address, old_value, new_value, is_fp)``.  The hash
schemes receive the hashed stores in *windows*: the machine appends
each one to a list and hands the list over at the next flush point (a
change of a core's resident thread — a thread switched onto a core, or
a migration — a free, a checkpoint, an MHM ISA operation, an observer
attach/detach, or :data:`STORE_WINDOW_CAPACITY` stores).  A scheduler
switch between threads that stay resident on their cores closes no
window, so one window may carry stores from several cores.  In
the paper's terms, the MHM may fold a core's retired stores into its TH
register in any order or cluster because ⊕ commutes (Section 3.2); a
window is one such cluster.  Observers that are not hash schemes (the
L1 cache model) see every store, hashed or not, synchronously.

``old_value`` is read from memory *before* the update, mirroring how "a
write access first brings the cache line with the current values into the
processor's cache and only then updates the cache line" (Section 3.1).
For SW-InstantCheck_Inc's non-atomic mode, the context layer captures the
old value in a separate earlier step and passes it as ``captured_old``;
under write-write races that captured value can be stale, which is
exactly the false-alarm hazard Section 4.1 describes.

Context switching: the runtime tells the machine which thread runs next;
the machine places it on a core (static ``tid % n_cores`` placement, with
optional random migration) and emits switch-out/switch-in events that the
hardware scheme uses to save/restore TH registers (Section 3.3).
"""

from __future__ import annotations

import bisect
import random

from repro.sim.counters import Counters
from repro.sim.memory import Memory

#: A store window closes at this many stores even without a sync point,
#: bounding memory and keeping kernel calls sized for vectorization.
STORE_WINDOW_CAPACITY = 4096


class WriteObserver:
    """Interface for schemes observing the machine.

    Stores reach an observer one of two ways, chosen by whether it
    defines ``on_store_batch``:

    * A *window* observer (every hash scheme) defines
      ``on_store_batch(window)``.  The machine appends each hashed store
      to one shared window and hands the window over at the next flush
      point (:meth:`Machine.flush_stores`).  A window is a list of
      ``(core, tid, address, old_value, new_value, is_fp)`` tuples in
      retirement order; unhashed control stores never enter it.
      Deferral is sound because the AdHash sum commutes: only
      *inclusion before a read* matters, which the flush points
      guarantee.
    * Every other observer gets each store, hashed or not, through a
      synchronous :meth:`on_store` call, so order-sensitive models (the
      L1 cache model, whose accesses interleave with loads) see the
      true access stream.
    """

    def on_store(self, core: int, tid: int, address: int, old_value, new_value,
                 is_fp: bool, hashed: bool) -> None:
        """A store retired and updated the L1/memory."""

    def on_free(self, core: int, tid: int, block, old_values: list) -> None:
        """A heap block was freed; its words leave the hashable state."""

    def on_switch_out(self, core: int, tid: int) -> None:
        """Thread *tid* is descheduled from *core*."""

    def on_switch_in(self, core: int, tid: int) -> None:
        """Thread *tid* is scheduled onto *core*."""


class Core:
    """One core; carries the identity the MHM registers attach to."""

    def __init__(self, core_id: int):
        self.core_id = core_id
        self.current_tid: int | None = None


def _drain_pseudo_tid(key: tuple) -> int:
    """The scheduler-visible negative tid of one store-buffer FIFO.

    Injective in the buffer key and independent of when the queue first
    becomes non-empty.  Per-thread (TSO) keys ``(tid,)`` map to
    ``-1 - tid``; per-location (PSO) keys ``(tid, address)`` map
    through the Cantor pairing, which is injective over pairs of
    non-negative ints.
    """
    if len(key) == 1:
        return -1 - key[0]
    tid, address = key
    return -1 - ((tid + address) * (tid + address + 1) // 2 + address)


class Machine:
    """Shared memory + cores + instruction counters + write observers."""

    def __init__(self, memory: Memory, n_cores: int = 8,
                 counters: Counters | None = None,
                 migrate_prob: float = 0.0, migrate_rng: random.Random | None = None,
                 memory_model=None):
        self.memory = memory
        #: A buffering :class:`~repro.sim.memmodel.StoreBufferModel`, or
        #: None for sequential consistency (the default, and the exact
        #: pre-memory-model behavior).  Non-buffering models (``sc``)
        #: normalize to None so the store fast path stays one check.
        self.memory_model = (memory_model if memory_model is not None
                             and memory_model.buffers else None)
        # Drain pseudo-tids: each non-empty store-buffer FIFO appears to
        # the scheduler as a negative tid.  The id is a *stable function
        # of the buffer key* (see :func:`_drain_pseudo_tid`), never of
        # discovery order: two schedules that differ only in which
        # thread buffers a store first must still name each queue
        # identically, or trace-equivalence keys (DPOR's Mazurkiewicz
        # classes) would tell equivalent interleavings apart.
        self._drain_ids: dict[tuple, int] = {}
        self._drain_keys: dict[int, tuple] = {}
        # Pseudo-tids of the non-empty FIFOs, ascending: an entry joins
        # when its queue turns non-empty and leaves when it empties.
        self._drain_order: list[int] = []
        self.cores = [Core(i) for i in range(n_cores)]
        self.counters = counters if counters is not None else Counters()
        self.observers: list[WriteObserver] = []
        self.migrate_prob = migrate_prob
        self._migrate_rng = migrate_rng or random.Random(0)
        self._placement: dict[int, int] = {}
        #: When True the context layer splits instrumented stores into a
        #: separate old-value read step (SW-InstantCheck_Inc, non-atomic).
        self.store_split = False
        #: The open store window (see :class:`WriteObserver`).
        self._store_window: list = []
        # The observer list split by delivery style, refreshed on
        # attach/detach so the store path avoids re-checking.
        self._sync_store_observers: list = []
        self._window_observers: list = []

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def _refresh_observer_split(self) -> None:
        self._window_observers = [
            obs for obs in self.observers if hasattr(obs, "on_store_batch")]
        self._sync_store_observers = [
            obs for obs in self.observers
            if not hasattr(obs, "on_store_batch")]

    def add_observer(self, observer: WriteObserver) -> None:
        # A newly attached observer must not receive events from before
        # its attachment, so close the current window first.
        self.flush_stores()
        self.observers.append(observer)
        self._refresh_observer_split()

    def remove_observer(self, observer: WriteObserver) -> None:
        self.flush_stores()
        self.observers.remove(observer)
        self._refresh_observer_split()

    def flush_stores(self) -> None:
        """Close the store window and hand it to the window observers.

        Called at every sync point that makes buffered state observable:
        a change of a core's resident thread (:meth:`schedule_thread`
        switching a thread onto a core, or migrating one), frees,
        checkpoints (via the schemes), MHM ISA operations, observer
        attach/detach, and a window reaching
        :data:`STORE_WINDOW_CAPACITY` stores.  So no window spans a TH
        save/restore or an ISA operation.  A scheduler switch between
        threads that stay resident on their cores does not close the
        window; each store carries its own core and thread.
        """
        if not self._store_window:
            return
        window, self._store_window = self._store_window, []
        for obs in self._window_observers:
            obs.on_store_batch(window)

    # -- thread placement ---------------------------------------------------------

    def core_of(self, tid: int) -> int:
        """Current core assignment of a thread (assigning one if new)."""
        core = self._placement.get(tid)
        if core is None:
            core = tid % self.n_cores
            self._placement[tid] = core
        return core

    def schedule_thread(self, tid: int) -> int:
        """Place *tid* on a core before it executes; returns the core id.

        With ``migrate_prob`` > 0, the thread occasionally migrates to a
        random core — exercising TH save/restore on every such move.
        """
        previous = self._placement.get(tid)
        core_id = self.core_of(tid)
        if (self.migrate_prob > 0.0
                and self._migrate_rng.random() < self.migrate_prob):
            core_id = self._migrate_rng.randrange(self.n_cores)
            self._placement[tid] = core_id
        if previous is not None and previous != core_id:
            # Migration: the OS saves the thread's state — including its
            # TH register — off the old core before it runs elsewhere.
            # Buffered stores must land in the outgoing thread's TH
            # before it is saved, so the window closes here.
            self.flush_stores()
            old_core = self.cores[previous]
            if old_core.current_tid == tid:
                for obs in self.observers:
                    obs.on_switch_out(previous, tid)
                old_core.current_tid = None
        core = self.cores[core_id]
        if core.current_tid != tid:
            self.flush_stores()
            if core.current_tid is not None:
                for obs in self.observers:
                    obs.on_switch_out(core_id, core.current_tid)
            core.current_tid = tid
            for obs in self.observers:
                obs.on_switch_in(core_id, tid)
        return core_id

    # -- memory operations ----------------------------------------------------------

    #: Set by :func:`repro.sim.cache.attach_caches`; loads are fed to it
    #: so the L1 performance model sees the full access stream.
    cache_observer = None

    def load(self, tid: int, address: int):
        """A program load; the runner charges it, the machine does not.

        Under a buffering memory model the loading thread's own pending
        stores are forwarded (a hardware store queue's bypass); other
        threads' buffered stores stay invisible until they drain.
        """
        if self.memory_model is not None:
            hit, value = self.memory_model.forward(tid, address)
            if hit:
                # Served from the store queue, not the cache hierarchy.
                return value
        if self.cache_observer is not None:
            self.cache_observer.on_load(self.core_of(tid), address)
        return self.memory.load(address)

    def store(self, tid: int, address: int, value, is_fp: bool = False,
              hashed: bool = True, captured_old=None) -> None:
        """A store retiring through the write path.

        The runner charges program stores; the machine does not.
        ``hashed=False`` marks stores issued by InstantCheck's own control
        layer with hashing disabled (e.g. allocation zero-fill); observers
        see the flag and leave their hash registers untouched.  Such
        control stores always write through — only *program* stores are
        subject to store buffering.
        """
        core = self.core_of(tid)
        model = self.memory_model
        if model is not None and hashed:
            key = model.push(
                (core, tid, address, value, is_fp, hashed, captured_old))
            ptid = self._drain_ids.get(key)
            if ptid is None:
                ptid = _drain_pseudo_tid(key)
                self._drain_ids[key] = ptid
                self._drain_keys[ptid] = key
            order = self._drain_order
            index = bisect.bisect_left(order, ptid)
            if index == len(order) or order[index] != ptid:
                order.insert(index, ptid)
            return
        self._commit_store(core, tid, address, value, is_fp, hashed,
                           captured_old)

    def _commit_store(self, core: int, tid: int, address: int, value,
                      is_fp: bool, hashed: bool, captured_old) -> None:
        """Retire one store into memory and the observer stream.

        Immediate stores (SC, or unhashed control writes) and drained
        buffered stores both land here, so every observer sees one
        retirement stream regardless of the memory model.
        """
        old = self.memory.load(address)
        self.memory.store(address, value)
        if captured_old is not None:
            old = captured_old
        for obs in self._sync_store_observers:
            obs.on_store(core, tid, address, old, value, is_fp, hashed)
        if hashed and self._window_observers:
            window = self._store_window
            window.append((core, tid, address, old, value, is_fp))
            if len(window) >= STORE_WINDOW_CAPACITY:
                self.flush_stores()

    # -- store-buffer drains ---------------------------------------------------------

    def drain_choices(self) -> list:
        """Pseudo-tids of every non-empty store-buffer FIFO, ascending.

        The runtime splices these (all negative) ahead of the sorted
        runnable tids, so any scheduler — random, PCT, decision replay,
        DPOR — can pick a drain exactly like a thread.  The list is kept
        up to date by ``store``, ``execute_drain`` and ``drain_all``, so
        this is a copy, not a scan of the queues.
        """
        return list(self._drain_order)

    def peek_drain(self, pseudo_tid: int):
        """(owner tid, address) the drain choice would retire, or None."""
        key = self._drain_keys.get(pseudo_tid)
        if key is None:
            return None
        entry = self.memory_model.peek(key)
        if entry is None:
            return None
        return entry[1], entry[2]

    def execute_drain(self, pseudo_tid: int):
        """Retire the oldest store of one buffer FIFO; returns
        (owner tid, address)."""
        key = self._drain_keys[pseudo_tid]
        model = self.memory_model
        entry = model.pop(key)
        if model.peek(key) is None:
            self._drain_order.remove(pseudo_tid)
        self._commit_store(*entry)
        return entry[1], entry[2]

    def drain_all(self) -> list:
        """Retire every buffered store (before a checkpoint's read)."""
        if self.memory_model is None:
            return []
        drained = self.memory_model.drain_all()
        self._drain_order.clear()
        for entry in drained:
            self._commit_store(*entry)
        return [entry[2] for entry in drained]

    def free_block(self, tid: int, block, old_values: list) -> None:
        """Notify observers that a block's words left the state."""
        # The freed words' subtraction terms and any buffered stores to
        # them commute, but closing the window first keeps every
        # observer's view in program order.
        self.flush_stores()
        core = self.core_of(tid)
        for obs in self.observers:
            obs.on_free(core, tid, block, old_values)
