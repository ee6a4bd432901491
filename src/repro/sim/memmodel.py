"""Relaxed memory models: per-thread store buffers (SC / TSO / PSO).

The paper's evaluation machine is sequentially consistent: a store
yielded by a thread retires into shared memory before the next op runs.
Real x86 and SPARC machines are not — stores sit in a per-core write
buffer and *retire later*, so another core can read the old value after
the writing core has moved on.  This module adds that relaxation as a
pluggable layer under :class:`~repro.sim.machine.Machine`:

* ``sc``  — no buffering; the machine behaves exactly as before.
* ``tso`` — one FIFO store buffer per thread (x86-TSO): stores retire
  in program order, but loads by *other* threads may overtake them.
* ``pso`` — one FIFO per (thread, location) (SPARC-PSO): stores to
  *different* locations may also retire out of program order.

Buffered stores are invisible to every other thread until they *drain*.
A thread always sees its own buffered stores first (store-to-load
forwarding), exactly like a hardware store queue.  Draining is not a
hidden background process: every non-empty buffer contributes a *drain
choice* that the runtime exposes to the scheduler as a negative
pseudo-tid next to the real runnable threads, so a reordering is itself
a schedulable decision — random testing samples drain orders, and the
DPOR scheduler (:mod:`repro.sim.dpor`) enumerates them.

Drained stores retire through the machine's ordinary write path (the
hash schemes' store window), so all three InstantCheck schemes
and both hash backends see the *reordered* retirement stream.  That is
the point: the mod-2^64 incremental hash must be invariant under any
drain order of the same store multiset — the paper's Section 3.2 claim,
property-tested in ``tests/sim/test_memory_models.py``.

Fences: synchronization ops (lock/unlock/barrier/cond*), library calls,
allocation, output, and MHM ISA ops drain the issuing thread's buffer
before executing; ``free`` and every determinism checkpoint drain *all*
buffers (the checkpoint reads a quiescent state).
"""

from __future__ import annotations

from collections import deque

from repro.core.registry import Registry

#: Memory models by configuration name (``CheckConfig.memory_model``).
MEMORY_MODELS = Registry("memory-models", what="memory model")

#: One buffered store, in exactly the argument order of
#: ``Machine._commit_store``: (core, tid, address, value, is_fp, hashed,
#: captured_old).
_CORE, _TID, _ADDRESS = 0, 1, 2


class MemoryModel:
    """Interface: decide buffering, hold the buffered stores."""

    name = "sc"
    #: False means the machine bypasses the model entirely (SC).
    buffers = False

    def key_for(self, tid: int, address: int) -> tuple:
        """The FIFO a store by *tid* to *address* joins."""
        raise NotImplementedError


@MEMORY_MODELS.register("sc")
class ScModel(MemoryModel):
    """Sequential consistency: every store retires immediately."""

    name = "sc"
    buffers = False


class StoreBufferModel(MemoryModel):
    """Shared mechanics of the buffering models.

    Queues are keyed by :meth:`key_for`; each key is one FIFO and one
    drain choice.  Keys keep insertion order (first use), which makes
    drain-choice enumeration deterministic for a given schedule prefix.
    A key's first element is the owning tid.  The runtime asks
    :meth:`pending_for` / :meth:`pending_count` on every fence and
    checkpoint runnable test, so both are O(1): ``push``, ``pop`` and
    ``drain_all`` keep a total and a per-tid count of buffered stores
    instead of the queries scanning every queue (one per thread and
    location under PSO).
    """

    buffers = True

    def __init__(self):
        self._queues: dict[tuple, deque] = {}
        self._pending = 0
        self._pending_by_tid: dict[int, int] = {}

    def push(self, entry: tuple) -> tuple:
        """Buffer one store entry; returns its queue key."""
        tid = entry[_TID]
        key = self.key_for(tid, entry[_ADDRESS])
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        queue.append(entry)
        self._pending += 1
        self._pending_by_tid[tid] = self._pending_by_tid.get(tid, 0) + 1
        return key

    def forward(self, tid: int, address: int):
        """Store-to-load forwarding: ``(True, value)`` if *tid* has a
        pending store to *address* (the newest one wins), else
        ``(False, None)``."""
        raise NotImplementedError

    def pending_keys(self) -> list:
        """Keys with buffered stores, in first-use order."""
        if not self._pending:
            return []
        return [k for k, q in self._queues.items() if q]

    def peek(self, key: tuple):
        """The oldest entry of *key*'s FIFO, or None."""
        queue = self._queues.get(key)
        return queue[0] if queue else None

    def pop(self, key: tuple):
        """Remove and return the oldest entry of *key*'s FIFO."""
        entry = self._queues[key].popleft()
        self._pending -= 1
        self._pending_by_tid[key[0]] -= 1
        return entry

    def drain_all(self) -> list:
        """Remove every buffered store of every thread."""
        drained = []
        for queue in self._queues.values():
            while queue:
                drained.append(queue.popleft())
        self._pending = 0
        self._pending_by_tid.clear()
        return drained

    def pending_count(self) -> int:
        """How many stores are buffered, over all queues (O(1))."""
        return self._pending

    def pending_for(self, tid: int) -> bool:
        """Does *tid* have any store still buffered?  (O(1))"""
        return self._pending_by_tid.get(tid, 0) > 0


@MEMORY_MODELS.register("tso")
class TsoModel(StoreBufferModel):
    """x86-TSO: one FIFO per thread; store-store order is preserved."""

    name = "tso"

    def key_for(self, tid: int, address: int) -> tuple:
        return (tid,)

    def forward(self, tid: int, address: int):
        queue = self._queues.get((tid,))
        if queue:
            for entry in reversed(queue):
                if entry[_ADDRESS] == address:
                    return True, entry[3]
        return False, None


@MEMORY_MODELS.register("pso")
class PsoModel(StoreBufferModel):
    """SPARC-PSO: one FIFO per (thread, location); stores to different
    locations may retire out of program order."""

    name = "pso"

    def key_for(self, tid: int, address: int) -> tuple:
        return (tid, address)

    def forward(self, tid: int, address: int):
        queue = self._queues.get((tid, address))
        if queue:
            return True, queue[-1][3]
        return False, None


def make_memory_model(name: str = "sc") -> MemoryModel:
    """Factory used by the runner; one fresh model per run."""
    return MEMORY_MODELS.get(name)()
