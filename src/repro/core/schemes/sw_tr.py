"""SW-InstantCheck_Tr: non-incremental hashing by traversal (Section 4.2).

At every checkpoint this scheme sweeps the entire static data segment and
heap and hashes what it finds.  To do that it must know (1) which
addresses are dynamically allocated — it maintains a table of allocated
blocks, one entry added per malloc and removed per free — and (2) which
words hold float/double values, from per-allocation-site type
annotations, so FP rounding can be applied by *address* rather than by
store instruction.

The traversal and table-maintenance instruction costs are what make this
scheme slow; they are accounted by the Figure 6 overhead model from the
run's event counts rather than charged to the native instruction stream.
"""

from __future__ import annotations

from repro.core.hashing.mixers import DEFAULT_MIXER_NAME
from repro.core.hashing.rounding import RoundingPolicy
from repro.core.hashing.state_hash import TypeOracle, traverse_state_hash
from repro.core.schemes.base import Scheme


class SwTrScheme(Scheme):
    """Whole-state traversal hashing with an allocation-type table."""

    name = "sw_tr"

    def __init__(self, machine, allocator, mixer=DEFAULT_MIXER_NAME,
                 rounding: RoundingPolicy | None = None,
                 static_types: dict | None = None, backend=None):
        super().__init__(machine, allocator, mixer, rounding,
                         backend=backend)
        # The table of allocated blocks with type information that the
        # paper's prototype maintains is exactly the allocator's live
        # table; the *maintenance* cost still belongs to this scheme and
        # is accounted per malloc/free by the overhead model.
        self.type_oracle = TypeOracle(static_types, allocator)

    def attach(self) -> None:
        # Traversal needs no write-path observation; free() is visible
        # through the allocation table.
        pass

    def location_term(self, address: int, is_fp: bool | None = None) -> int:
        if is_fp is None:
            is_fp = self.type_oracle.is_fp(address)
        return super().location_term(address, is_fp)

    def state_hash(self) -> int:
        state_words = self.machine.memory.state_words()
        # Traversal pays one hash-unit invocation per live word per sweep.
        self.hash_updates += state_words
        self.machine.counters.note("traversals")
        self.machine.counters.note("traversal_words", state_words)
        return traverse_state_hash(self.machine.memory, mixer=self.mixer,
                                   rounding=self.rounding,
                                   type_oracle=self.type_oracle,
                                   backend=self.kernel)
