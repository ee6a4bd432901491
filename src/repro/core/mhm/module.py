"""The Memory-State Hashing Module (MHM) — Figure 3.

One MHM sits in each core's L1 cache controller.  When the write buffer
pushes a new value into the L1, the MHM receives the virtual address, the
old value (already in the cache — no extra miss in write-allocate
caches), and the new value, routes them through the FP round-off unit if
the store was an FP store and rounding is enabled, and updates the TH
register: ``TH = TH ⊖ hash(V_addr, Data_old) ⊕ hash(V_addr, Data_new)``.

All operations are core-local: no inter-core communication ever happens
inside the MHM.  The module optionally *buffers* write-path entries and
drains them later in an arbitrary order through a :class:`ClusterBank`,
modeling the implementation freedom of Section 3.2; the TH value is
independent of buffering, drain order, and cluster routing.
"""

from __future__ import annotations

import functools
import random

from repro.core.hashing.mixers import DEFAULT_MIXER_NAME, Mixer, get_mixer
from repro.core.hashing.rounding import RoundingPolicy, no_rounding
from repro.core.mhm.clusters import ClusterBank, drain_order
from repro.core.mhm.register import ThRegister


class Mhm:
    """One core's Memory-State Hashing Module."""

    def __init__(self, core_id: int, mixer: Mixer | str = DEFAULT_MIXER_NAME,
                 rounding: RoundingPolicy | None = None,
                 n_clusters: int = 1, drain_policy: str = "fifo",
                 drain_seed: int = 0):
        self.core_id = core_id
        self.mixer = get_mixer(mixer) if isinstance(mixer, str) else mixer
        self.rounding = rounding if rounding is not None else no_rounding()
        self.th = ThRegister()
        #: ``start_hashing`` / ``stop_hashing`` state (Figure 4).
        self.hashing_enabled = True
        #: ``start_FP_rounding`` / ``stop_FP_rounding`` state (Figure 4).
        self.fp_rounding_enabled = self.rounding.enabled
        self.clusters = ClusterBank(n_clusters, route_seed=drain_seed ^ core_id)
        self.drain_policy = drain_policy
        self._drain_seed = drain_seed * 31 + core_id
        #: Pending write-path entries: (address, old, new, is_fp) tuples.
        self._buffer: list = []
        #: Buffer immediately applied when 1 (the Figure 3(a) design).
        self.buffer_capacity = 0 if drain_policy == "fifo" and n_clusters == 1 else 64

    @functools.cached_property
    def _drain_rng(self) -> random.Random:
        """The drain-order RNG, seeded on first use: only the buffered
        designs draw from it, and every core of every run builds an MHM."""
        return random.Random(self._drain_seed)

    # -- hash-unit datapath --------------------------------------------------------

    def _round(self, value, is_fp: bool):
        if is_fp and self.fp_rounding_enabled:
            return self.rounding.apply(value)
        return value

    def location_term(self, address: int, value, is_fp: bool = False) -> int:
        """The hash-unit output for one (address, value) pair."""
        return self.mixer.location_hash(address, self._round(value, is_fp))

    # -- write path -----------------------------------------------------------------

    def on_store(self, address: int, old_value, new_value, is_fp: bool) -> None:
        """A store retired through this core's L1 while this MHM watches."""
        if not self.hashing_enabled:
            return
        if self.buffer_capacity == 0:
            self._apply(address, old_value, new_value, is_fp)
            return
        self._buffer.append((address, old_value, new_value, is_fp))
        if len(self._buffer) >= self.buffer_capacity:
            self.flush()

    def on_store_batch(self, entries, kernel=None) -> None:
        """A window of stores retired on this core with constant MHM state.

        *entries* is a list of ``(address, old_value, new_value, is_fp)``
        tuples.  With a vectorized *kernel* and the immediate-apply
        design (no internal buffer), the whole window folds into TH
        through one ``store_delta`` call; otherwise the entries replay
        through the scalar path (preserving the buffered cluster-drain
        modeling exactly).
        """
        if not self.hashing_enabled:
            return
        if (kernel is None or not kernel.vectorized
                or self.buffer_capacity != 0):
            for entry in entries:
                self.on_store(*entry)
            return
        rounding = self.rounding if self.fp_rounding_enabled else None
        self.th.add(kernel.store_delta(
            self.mixer, rounding,
            [e[0] for e in entries], [e[1] for e in entries],
            [e[2] for e in entries], [e[3] for e in entries]))

    def _apply(self, address: int, old_value, new_value, is_fp: bool) -> None:
        self.th.sub(self.location_term(address, old_value, is_fp))
        self.th.add(self.location_term(address, new_value, is_fp))

    def flush(self) -> None:
        """Drain buffered entries through the clusters, in drain order.

        The old and new halves of each entry become independent signed
        terms routed to (possibly different) clusters — the Section 3.2
        freedom — and the merged partial sums land in the TH register.
        """
        if not self._buffer:
            return
        entries, self._buffer = self._buffer, []
        for i in drain_order(len(entries), self.drain_policy, self._drain_rng):
            address, old_value, new_value, is_fp = entries[i]
            self.clusters.route((-self.location_term(address, old_value, is_fp))
                                & 0xFFFFFFFFFFFFFFFF)
            self.clusters.route(self.location_term(address, new_value, is_fp))
        self.th.add(self.clusters.merge())

    # -- register access (used by the ISA and the scheme) -----------------------------

    def read_th(self) -> int:
        """Current TH value (flushes pending entries first)."""
        self.flush()
        return self.th.value

    def write_th(self, value: int) -> None:
        self.flush()
        self.th.restore(value)

    def minus_hash(self, address: int, current_value, is_fp: bool = False) -> None:
        """``minus_hash addr``: subtract the hash of the current value."""
        self.flush()
        self.th.sub(self.location_term(address, current_value, is_fp))

    def minus_hash_batch(self, addresses, current_values, fp_flags,
                         kernel=None) -> None:
        """Subtract many locations at once (block deallocation).

        Equivalent to ``minus_hash`` per word; with a vectorized
        *kernel* the whole block folds through one call.
        """
        self.flush()
        rounding = self.rounding if self.fp_rounding_enabled else None
        if kernel is not None:
            self.th.sub(kernel.fold_locations(
                self.mixer, rounding, addresses, current_values, fp_flags))
            return
        for address, value, is_fp in zip(addresses, current_values, fp_flags):
            self.th.sub(self.location_term(address, value, is_fp))

    def plus_hash(self, address: int, value, is_fp: bool = False) -> None:
        """``plus_hash addr val``: add the hash of *val* at *addr*."""
        self.flush()
        self.th.add(self.location_term(address, value, is_fp))
