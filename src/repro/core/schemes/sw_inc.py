"""SW-InstantCheck_Inc: incremental hashing in software (Section 4.1).

The same algebra as the hardware scheme, but the per-store work is done
by instrumentation added to the code under test: read the old value of
the destination, subtract its hash, add the hash of the new value.  The
machine hands the scheme its hashed stores in windows; the scheme
splits a window into per-thread columns and folds each thread's
columns into its software hash through one hash-kernel call.

The atomicity caveat is modeled mechanically.  In ``atomic=True`` mode
the instrumentation executes atomically with the store (our serialized
runtime gives this for free — "our implementation ... serializes program
execution and achieves atomicity without using locks").  In
``atomic=False`` mode the scheme asks the machine for *split* stores: the
instrumentation's read of the old value becomes a separate scheduling
step, so under a write-write race another thread's store can land in
between and the captured old value goes stale — corrupting the hash and
potentially reporting nondeterminism for deterministic code (a false
alarm the programmer trades against the atomicity overhead).
"""

from __future__ import annotations

from repro.core.hashing.mixers import DEFAULT_MIXER_NAME
from repro.core.hashing.rounding import RoundingPolicy
from repro.core.schemes.base import BY_TID, Scheme, window_columns
from repro.sim.values import MASK64


class SwIncScheme(Scheme):
    """Per-store software instrumentation maintaining per-thread hashes."""

    name = "sw_inc"

    def __init__(self, machine, allocator, mixer=DEFAULT_MIXER_NAME,
                 rounding: RoundingPolicy | None = None, atomic: bool = True,
                 backend=None):
        super().__init__(machine, allocator, mixer, rounding,
                         backend=backend)
        self.atomic = atomic
        #: Per-thread software hash accumulators (thread-local variables
        #: of the instrumented program; no synchronization needed).
        self._thread_hash: dict[int, int] = {}

    def attach(self) -> None:
        self.machine.add_observer(self)
        # Non-atomic instrumentation: the old-value read is its own step.
        self.machine.store_split = not self.atomic

    # -- write-path events -----------------------------------------------------------

    def on_store_batch(self, window):
        # Each thread's stores in the window fold through one kernel
        # call.  An entry's old value is the instrumentation's captured
        # read: the true old value in atomic mode, possibly stale in
        # non-atomic mode.
        self.hash_updates += len(window)
        rounding = self.rounding if self.rounding.enabled else None
        for tid, columns in window_columns(window, BY_TID).items():
            delta = self.kernel.store_delta(self.mixer, rounding, *columns)
            self._thread_hash[tid] = (
                self._thread_hash.get(tid, 0) + delta) & MASK64
        self.machine.counters.note("sw_inc_instrumented_stores", len(window))

    def on_free(self, core, tid, block, old_values):
        self.hash_updates += len(old_values)
        rounding = self.rounding if self.rounding.enabled else None
        total = self.kernel.fold_locations(
            self.mixer, rounding,
            [block.base + offset for offset in range(len(old_values))],
            old_values,
            [self._block_word_is_fp(block, offset)
             for offset in range(len(old_values))])
        self._thread_hash[tid] = (
            self._thread_hash.get(tid, 0) - total) & MASK64

    # -- State Hash ----------------------------------------------------------------------

    def state_hash(self) -> int:
        self._sync_stores()
        total = 0
        for th in self._thread_hash.values():
            total = (total + th) & MASK64
        return total

    def thread_hashes(self) -> dict:
        self._sync_stores()
        return dict(self._thread_hash)
