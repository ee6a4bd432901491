"""Instruction accounting for the overhead model (Figure 6).

The paper measures overhead in executed instructions (Pin counts), with
the randomizing scheduler's own instructions excluded.  We mirror that:
every simulated operation is charged a small instruction cost from
:class:`CostModel`, accumulated per category in :class:`Counters`.

The Figure 6 configurations are then *derived* from these counts by
:mod:`repro.analysis.overhead`, using the paper's constants (hashing one
byte in software costs 5 instructions; the HW scheme's only overhead is
zero-filling allocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Categories that belong to the application itself (the "Native" bar).
NATIVE_CATEGORIES = (
    "load",
    "store",
    "compute",
    "sync",
    "alloc",
    "libcall",
    "output",
)

#: Categories added by InstantCheck's software control layer.
OVERHEAD_CATEGORIES = (
    "zero_fill",     # calloc-style zeroing of allocations (HW's only cost)
    "ignore_unhash", # minus/plus_hash work to delete ignored structures
)


@dataclass(frozen=True)
class CostModel:
    """Instruction cost charged per simulated operation.

    Defaults approximate a RISC-ish accounting: a memory access costs a
    few instructions of address arithmetic plus the access itself, a
    synchronization operation costs a couple of atomics, and ``compute``
    operations carry an explicit instruction count chosen by the
    workload (its "pure ALU" work between memory accesses).
    """

    load: int = 3
    store: int = 3
    sync: int = 6
    alloc: int = 40
    libcall: int = 30
    output_per_word: int = 4
    zero_fill_per_word: int = 1
    ignore_unhash_per_word: int = 4

    def cost(self, category: str, units: int = 1) -> int:
        if category == "compute":
            return units
        if category == "output":
            return self.output_per_word * units
        if category == "zero_fill":
            return self.zero_fill_per_word * units
        if category == "ignore_unhash":
            return self.ignore_unhash_per_word * units
        return getattr(self, category) * units


@dataclass
class Counters:
    """Per-run instruction counters and event statistics."""

    cost_model: CostModel = field(default_factory=CostModel)
    instructions: dict = field(default_factory=dict)
    #: Event counts used by the overhead model, independent of costs.
    events: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The cost model is frozen and every cost is linear in its
        # units: look the unit costs up once, not once per operation.
        self._unit_cost = {
            category: self.cost_model.cost(category)
            for category in NATIVE_CATEGORIES + OVERHEAD_CATEGORIES}

    def charge(self, category: str, units: int = 1) -> None:
        """Charge the instruction cost of one operation."""
        cost = self._unit_cost[category] * units
        self.instructions[category] = self.instructions.get(category, 0) + cost

    def note(self, event: str, n: int = 1) -> None:
        """Record an event count (e.g. hashed stores, checkpoint sizes)."""
        self.events[event] = self.events.get(event, 0) + n

    def native_instructions(self) -> int:
        """Instructions the unmodified application would execute."""
        return sum(self.instructions.get(c, 0) for c in NATIVE_CATEGORIES)

    def overhead_instructions(self) -> int:
        """Instructions added by InstantCheck's software control layer."""
        return sum(self.instructions.get(c, 0) for c in OVERHEAD_CATEGORIES)

    def total_instructions(self) -> int:
        return sum(self.instructions.values())

    def snapshot(self) -> dict:
        return {
            "instructions": dict(self.instructions),
            "events": dict(self.events),
        }
