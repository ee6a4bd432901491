"""Word-addressed shared memory for the simulated machine.

The memory models the part of the address space InstantCheck hashes: the
static data segment plus the heap.  It is *word addressed*: each address
names one 64-bit word (see :mod:`repro.sim.values`).

Mapping rules
-------------
* The static segment ``[0, static_words)`` is always mapped and — like a
  real BSS — starts zero-initialized.
* Heap words become mapped when the allocator maps them and unmapped when
  the owning block is freed.  Loading or storing an unmapped address
  raises :class:`repro.errors.MemoryError_` (a wild pointer in the
  simulated program).

Uninitialized contents
----------------------
Freshly mapped heap words contain *garbage* unless something zero-fills
them.  Garbage is a deterministic function of (address, run entropy), so
two runs with different schedules see different garbage — exactly the
hash-corruption hazard Section 5 of the paper guards against by having
InstantCheck zero allocated regions.
"""

from __future__ import annotations

from repro.errors import MemoryError_
from repro.sim.values import MASK64, value_bits

_GARBAGE_MULT = 0xBF58476D1CE4E5B9


def garbage_value(address: int, entropy: int) -> int:
    """Deterministic pseudo-garbage for an uninitialized word.

    Kept small (16 bits) so workloads that accidentally read it do not
    overflow into absurd arithmetic; what matters is that it varies with
    *entropy* (the run's schedule seed) and with the address.
    """
    z = ((address ^ entropy) * _GARBAGE_MULT) & MASK64
    z ^= z >> 29
    return z & 0xFFFF


class Memory:
    """Flat word-addressed memory: static segment + heap."""

    def __init__(self, static_words: int = 0, entropy: int = 0):
        if static_words < 0:
            raise ValueError("static_words must be non-negative")
        self.static_words = static_words
        self.entropy = entropy
        # Written words only; mapped-but-unwritten words are implicit.
        self._cells: dict[int, object] = {}
        # Heap words currently mapped (static segment is implicitly mapped).
        self._heap_mapped: set[int] = set()
        # Heap words that were zero-filled at mapping time (no garbage).
        self._zeroed: set[int] = set()

    # -- mapping ---------------------------------------------------------------

    def is_mapped(self, address: int) -> bool:
        return 0 <= address < self.static_words or address in self._heap_mapped

    def map_heap(self, base: int, nwords: int, zeroed: bool) -> None:
        """Map ``nwords`` heap words at ``base``.

        ``zeroed`` records whether the words start at zero (InstantCheck's
        calloc-like interception) or contain garbage (native malloc).
        """
        for a in range(base, base + nwords):
            if self.is_mapped(a):
                raise MemoryError_(f"heap word {a:#x} already mapped")
        for a in range(base, base + nwords):
            self._heap_mapped.add(a)
            if zeroed:
                self._zeroed.add(a)

    def unmap_heap(self, base: int, nwords: int) -> None:
        """Unmap a freed block; its contents leave the hashable state."""
        for a in range(base, base + nwords):
            if a not in self._heap_mapped:
                raise MemoryError_(f"heap word {a:#x} not mapped")
        for a in range(base, base + nwords):
            self._heap_mapped.discard(a)
            self._zeroed.discard(a)
            self._cells.pop(a, None)

    # -- access ----------------------------------------------------------------

    def load(self, address: int):
        """Read one word; unmapped access raises, uninitialized reads garbage."""
        if address in self._cells:
            return self._cells[address]
        if 0 <= address < self.static_words:
            return 0
        if address in self._heap_mapped:
            if address in self._zeroed:
                return 0
            return garbage_value(address, self.entropy)
        raise MemoryError_(f"load from unmapped address {address:#x}")

    def store(self, address: int, value) -> None:
        """Write one word (validates type via value_bits)."""
        if not self.is_mapped(address):
            raise MemoryError_(f"store to unmapped address {address:#x}")
        if not isinstance(value, (int, float)):
            value_bits(value)  # raises: words are int or float only
        self._cells[address] = value

    # -- whole-state views -------------------------------------------------------

    def iter_nonzero(self):
        """Yield (address, value) for every mapped word whose bits are nonzero.

        Zero words contribute nothing to the normalized hash, so traversal
        hashing and snapshot comparison may skip them; a full sweep would
        visit :meth:`state_words` words.
        """
        for a, v in self._cells.items():
            if value_bits(v) != 0:
                yield a, v
        # Garbage-bearing words that were mapped but never written still
        # belong to the state (and to its corruption hazard).
        for a in self._heap_mapped:
            if a not in self._cells and a not in self._zeroed:
                g = garbage_value(a, self.entropy)
                if g != 0:
                    yield a, g

    def state_words(self) -> int:
        """Number of words a full state sweep visits (static + live heap)."""
        return self.static_words + len(self._heap_mapped)

    def snapshot(self) -> dict:
        """Bit-exact copy of the mapped state: {address: value}, zeros omitted."""
        return dict(self.iter_nonzero())

    def heap_mapped_words(self) -> int:
        return len(self._heap_mapped)
