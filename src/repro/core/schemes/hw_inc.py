"""HW-InstantCheck_Inc: the hardware incremental scheme (Section 3).

One :class:`~repro.core.mhm.module.Mhm` per core observes the L1 write
path and keeps a Thread Hash in its TH register.  The machine hands the
scheme its hashed stores in windows; the scheme splits a window into
per-core columns, and each core's MHM folds its columns into TH through
one hash-kernel call.  On a context switch the OS saves the outgoing
thread's TH to its thread-control block and restores the incoming
thread's — exactly a register save/restore, which is why virtualization
and migration are "trivial".

When the State Hash is needed (a checkpoint), software modulo-adds every
resident TH register and every saved slot — the rare global operation
that in real hardware overlaps with the barrier communication.

Freed heap blocks are removed from the hash by the allocation
interceptor: for each word, ``minus_hash`` of its last value, returning
the word's contribution to zero (as if never written), matching the
paper's observation that deallocated memory "is no longer part of the
program state".
"""

from __future__ import annotations

from repro.core.hashing.mixers import DEFAULT_MIXER_NAME
from repro.core.hashing.rounding import RoundingPolicy
from repro.core.mhm import isa as mhm_isa
from repro.core.mhm.module import Mhm
from repro.core.schemes.base import BY_CORE, Scheme, window_columns
from repro.sim.values import MASK64


class HwIncScheme(Scheme):
    """On-the-fly incremental hashing with per-core MHM hardware."""

    name = "hw"

    def __init__(self, machine, allocator, mixer=DEFAULT_MIXER_NAME,
                 rounding: RoundingPolicy | None = None, n_clusters: int = 1,
                 drain_policy: str = "fifo", drain_seed: int = 0,
                 backend=None):
        super().__init__(machine, allocator, mixer, rounding,
                         backend=backend)
        self.mhms = [
            Mhm(core.core_id, mixer=self.mixer, rounding=self.rounding,
                n_clusters=n_clusters, drain_policy=drain_policy,
                drain_seed=drain_seed)
            for core in machine.cores
        ]
        #: Saved TH of threads not currently resident on any core —
        #: the OS's per-thread register save area.
        self._saved: dict[int, int] = {}

    def attach(self) -> None:
        self.machine.add_observer(self)

    # -- write-path events ------------------------------------------------------------

    def on_store_batch(self, window):
        # The machine closes a window at every context switch and ISA
        # operation, so each MHM's enabled/rounding state is constant
        # across it and each core's stores fold through one kernel call.
        self.hash_updates += len(window)
        for core, columns in window_columns(window, BY_CORE).items():
            self.mhms[core].on_store_batch(*columns, self.kernel)

    def on_free(self, core, tid, block, old_values):
        mhm = self.mhms[core]
        self.hash_updates += len(old_values)
        mhm.minus_hash_batch(
            [block.base + offset for offset in range(len(old_values))],
            old_values,
            [self._block_word_is_fp(block, offset)
             for offset in range(len(old_values))],
            self.kernel)

    # -- context switching --------------------------------------------------------------

    def on_switch_out(self, core, tid):
        self._saved[tid] = self.mhms[core].read_th()
        self.mhms[core].write_th(0)

    def on_switch_in(self, core, tid):
        self.mhms[core].write_th(self._saved.pop(tid, 0))

    # -- State Hash ------------------------------------------------------------------------

    def state_hash(self) -> int:
        """SH = ⊕ of all TH registers (resident cores + saved slots)."""
        self._sync_stores()
        total = 0
        for mhm in self.mhms:
            total = (total + mhm.read_th()) & MASK64
        for value in self._saved.values():
            total = (total + value) & MASK64
        return total

    def thread_hashes(self) -> dict:
        """Per-thread TH values (for Figure 2-style inspection)."""
        self._sync_stores()
        result = dict(self._saved)
        for core, mhm in zip(self.machine.cores, self.mhms):
            if core.current_tid is not None:
                result[core.current_tid] = mhm.read_th()
        return result

    # -- MHM ISA --------------------------------------------------------------------------

    def isa_exec(self, instruction: str, core: int, *args):
        # ISA operations read or retarget MHM state (start/stop toggles,
        # save/restore, plus/minus): the buffered window must be applied
        # under the *pre-instruction* state first.
        self._sync_stores()
        return mhm_isa.execute(instruction, self.mhms[core],
                               self.machine.memory, *args)
