"""The Figure 7 seeded bugs (Section 7.4, Table 2).

"We seed three bugs (semantic, atomicity violation, and order violation)
in the applications from Section 7.2 ...  The bugs do not cause program
crashes but create incorrect results.  To simulate rarely occurring
bugs, we insert the buggy code path in only one thread" — thread 3 — and
for radix with only *one* dynamic occurrence (the ``justOnce`` guard),
"since otherwise the program crashes".

The buggy variants are constructor flags on the host workloads; this
module names them the way Table 2 does and records the bug taxonomy used
by the benchmarks.
"""

from __future__ import annotations

from repro.core.registry import Registry
from repro.workloads.radix import Radix
from repro.workloads.storebuffer import SbDclBroken, SbVisibleLate
from repro.workloads.water import WaterNS, WaterSP

#: (application, bug type) exactly as Table 2 lists them.
SEEDED_BUGS = (
    ("waterNS", "semantic"),
    ("waterSP", "atomicity violation"),
    ("radix", "order violation"),
)

#: (application, bug type, weakest memory model that exposes it) for the
#: store-buffer bugs, which are *unreachable under SC* — they extend the
#: Table 2 taxonomy to relaxed-memory-only nondeterminism.
STOREBUFFER_BUGS = (
    ("sb-visible-late", "write visible late", "tso"),
    ("sb-dcl", "broken double-checked locking", "pso"),
)

#: Seeded-bug factories by CLI name (``repro check seeded-radix``,
#: ``repro localize seeded-radix``) — the Table 2 variants as
#: first-class checkable programs.
SEEDED = Registry("seeded-bugs", what="seeded bug")


@SEEDED.register("seeded-waterNS")
def seeded_waterNS(n_workers: int = 8, **kwargs) -> WaterNS:
    """waterNS with the Figure 7(a) semantic bug in thread 3."""
    return WaterNS(n_workers=n_workers, bug="semantic", **kwargs)


@SEEDED.register("seeded-waterSP")
def seeded_waterSP(n_workers: int = 8, **kwargs) -> WaterSP:
    """waterSP with the Figure 7(b) atomicity violation in thread 3."""
    return WaterSP(n_workers=n_workers, bug="atomicity", **kwargs)


@SEEDED.register("seeded-radix")
def seeded_radix(n_workers: int = 8, **kwargs) -> Radix:
    """radix with the Figure 7(c) order violation (one occurrence)."""
    return Radix(n_workers=n_workers, bug=True, **kwargs)


@SEEDED.register("seeded-sb-visible-late")
def seeded_sb_visible_late(n_workers: int = 2, **kwargs) -> SbVisibleLate:
    """Dekker handshake whose bug needs a store buffer (TSO or PSO)."""
    return SbVisibleLate(n_workers=n_workers, **kwargs)


@SEEDED.register("seeded-sb-dcl")
def seeded_sb_dcl(n_workers: int = 4, **kwargs) -> SbDclBroken:
    """Unfenced double-checked locking; the bug needs PSO."""
    return SbDclBroken(n_workers=n_workers, **kwargs)


def seeded_program(application: str, n_workers: int = 8, **kwargs):
    """Build the seeded variant of a Table 2 application by name."""
    name = (f"seeded-{application}" if f"seeded-{application}" in SEEDED
            else application)
    factory = SEEDED.get(name, None)
    if factory is None:
        raise ValueError(
            f"no seeded bug for {application!r}; Table 2 covers "
            f"{sorted(app for app, _ in SEEDED_BUGS)}")
    return factory(n_workers=n_workers, **kwargs)
