"""The simulated multicore machine: cores, the L1 write path, observers.

All InstantCheck schemes hook the machine through the *write observer*
interface — the single interception point that plays the role of both
Pin's store instrumentation (software schemes) and the L1-controller MHM
(hardware scheme): every store that updates memory reports
``(core, tid, address, old_value, new_value, is_fp, hashed)``.

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

import random

from repro.sim.counters import Counters
from repro.sim.memory import Memory


class WriteObserver:
    """Interface for schemes observing the machine."""

    #: Observers that set this True opt in to *batched* store delivery:
    #: when the machine's ``store_batching`` flag is on, their store
    #: events are buffered and delivered through :meth:`on_store_batch`
    #: at the next flush point instead of one :meth:`on_store` call per
    #: store.  Order-sensitive observers (e.g. the L1 cache model, whose
    #: accesses must interleave with loads) leave this False and always
    #: receive synchronous :meth:`on_store` calls.  Deferral is sound for
    #: hash schemes because the AdHash sum is commutative — only
    #: *inclusion before a read* matters, which the flush points
    #: guarantee.
    batch_stores = False

    def on_store(self, core: int, tid: int, address: int, old_value, new_value,
                 is_fp: bool, hashed: bool) -> None:
        """A store retired and updated the L1/memory."""

    def on_store_batch(self, events) -> None:
        """A buffered window of store events, in retirement order.

        *events* is a list of ``(core, tid, address, old_value,
        new_value, is_fp, hashed)`` tuples — exactly the arguments the
        equivalent sequence of :meth:`on_store` calls would have
        received.  The default replays them one by one, so opting in is
        never observable; overrides fold the whole window through one
        vectorized kernel call.
        """
        for event in events:
            self.on_store(*event)

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
        self.cores = [Core(i) for i in range(n_cores)]
        self.counters = counters if counters is not None else Counters()
        self.observers: list[WriteObserver] = []
        self.migrate_prob = migrate_prob
        self._migrate_rng = migrate_rng or random.Random(0)
        self._placement: dict[int, int] = {}
        #: When True the context layer splits instrumented stores into a
        #: separate old-value read step (SW-InstantCheck_Inc, non-atomic).
        self.store_split = False
        #: When True, store events for opted-in observers (those with
        #: ``batch_stores``) are buffered and delivered in windows via
        #: ``on_store_batch`` at flush points; schemes with a vectorized
        #: hash kernel turn this on when they attach.
        self.store_batching = False
        #: Buffered windows flush at this many events even without a
        #: sync point, bounding memory and keeping kernel calls sized
        #: for good vectorization.
        self.store_batch_capacity = 4096
        self._store_batch: list = []
        # Cached split of the observer list by delivery style, refreshed
        # on attach/detach so the store fast path avoids re-checking.
        self._sync_store_observers: list = []
        self._any_batch_observers = False

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def _refresh_observer_split(self) -> None:
        self._sync_store_observers = [
            obs for obs in self.observers
            if not getattr(obs, "batch_stores", False)]
        self._any_batch_observers = (
            len(self._sync_store_observers) != len(self.observers))

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
        """Deliver the buffered store window to batch-capable observers.

        Called at every sync point that makes buffered state observable:
        context-switch events, frees, checkpoints (via the schemes), MHM
        ISA operations, and observer attach/detach.
        """
        if not self._store_batch:
            return
        events, self._store_batch = self._store_batch, []
        for obs in self.observers:
            if getattr(obs, "batch_stores", False):
                obs.on_store_batch(events)

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
        """A program load; charged to the native instruction count.

        Under a buffering memory model the loading thread's own pending
        stores are forwarded (a hardware store queue's bypass); other
        threads' buffered stores stay invisible until they drain.
        """
        self.counters.charge("load")
        if self.memory_model is not None:
            hit, value = self.memory_model.forward(tid, address)
            if hit:
                # Served from the store queue, not the cache hierarchy.
                return value
        if self.cache_observer is not None:
            self.cache_observer.on_load(self.core_of(tid), address)
        return self.memory.load(address)

    def store(self, tid: int, address: int, value, is_fp: bool = False,
              hashed: bool = True, captured_old=None, charge: bool = True) -> None:
        """A store retiring through the write path.

        ``hashed=False`` marks stores issued by InstantCheck's own control
        layer with hashing disabled (e.g. allocation zero-fill); observers
        see the flag and leave their hash registers untouched.  Such
        control stores always write through — only *program* stores are
        subject to store buffering.
        """
        if charge:
            self.counters.charge("store")
        core = self.core_of(tid)
        model = self.memory_model
        if model is not None and hashed:
            key = model.push(
                (core, tid, address, value, is_fp, hashed, captured_old))
            if key not in self._drain_ids:
                ptid = _drain_pseudo_tid(key)
                self._drain_ids[key] = ptid
                self._drain_keys[ptid] = key
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
        old_for_hash = captured_old if captured_old is not None else old
        if self.store_batching and self._any_batch_observers:
            event = (core, tid, address, old_for_hash, value, is_fp, hashed)
            for obs in self._sync_store_observers:
                obs.on_store(*event)
            self._store_batch.append(event)
            if len(self._store_batch) >= self.store_batch_capacity:
                self.flush_stores()
            return
        for obs in self.observers:
            obs.on_store(core, tid, address, old_for_hash, value, is_fp, hashed)

    # -- store-buffer drains ---------------------------------------------------------

    def drain_choices(self) -> list:
        """Pseudo-tids of every non-empty store-buffer FIFO, ascending.

        The runtime splices these (all negative) ahead of the sorted
        runnable tids, so any scheduler — random, PCT, decision replay,
        DPOR — can pick a drain exactly like a thread.
        """
        if self.memory_model is None:
            return []
        return sorted(self._drain_ids[key]
                      for key in self.memory_model.pending_keys())

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
        entry = self.memory_model.pop(self._drain_keys[pseudo_tid])
        self._commit_store(*entry)
        return entry[1], entry[2]

    def drain_thread(self, tid: int) -> list:
        """Fence: retire every buffered store of *tid*.

        Returns the drained addresses (the runtime reports them to an
        observing scheduler — a fence's writes are part of its step).
        """
        if self.memory_model is None:
            return []
        drained = self.memory_model.drain_thread(tid)
        for entry in drained:
            self._commit_store(*entry)
        return [entry[2] for entry in drained]

    def drain_all(self) -> list:
        """Retire every buffered store (before a checkpoint's read)."""
        if self.memory_model is None:
            return []
        drained = self.memory_model.drain_all()
        for entry in drained:
            self._commit_store(*entry)
        return [entry[2] for entry in drained]

    def free_block(self, tid: int, block, old_values: list) -> None:
        """Notify observers that a block's words left the state."""
        # The freed words' subtraction terms and any buffered stores to
        # them commute, but delivering in program order keeps every
        # observer's view identical to the unbatched machine.
        self.flush_stores()
        core = self.core_of(tid)
        for obs in self.observers:
            obs.on_free(core, tid, block, old_values)
