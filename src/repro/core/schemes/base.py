"""Common interface and configuration of the InstantCheck schemes.

A *scheme* is one way to obtain the 64-bit State Hash of the current
memory state (Section 2.2): the hardware incremental scheme, the software
incremental scheme, or the software traversal scheme.  Schemes attach to
a fresh machine at the start of each run; the runtime asks them for
``state_hash()`` at every determinism checkpoint and for
``location_term()`` when deleting ignored structures from the hash.

:class:`SchemeConfig` is the serializable description the checker stores
in its configuration; calling it with a :class:`~repro.sim.program.Runner`
builds and attaches the scheme for that run.

The incremental schemes observe the machine's write path as *window*
observers (:class:`~repro.sim.machine.WriteObserver`): each defines
``on_store_batch(window)``, buckets the window's hashed stores into
parallel columns, and folds each bucket through one call of its hash
kernel.  There is no per-store scheme entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.hashing.kernels import get_kernel
from repro.core.hashing.mixers import DEFAULT_MIXER_NAME, get_mixer
from repro.core.hashing.rounding import RoundingPolicy, no_rounding
from repro.core.registry import Registry
from repro.errors import IsaError
from repro.sim.machine import WriteObserver
from repro.sim.values import TYPE_FLOAT

#: Builders ``(config, runner) -> Scheme`` by kind name.  The scheme
#: classes themselves live in submodules that import this one, so the
#: builders import them lazily.
SCHEME_BUILDERS = Registry("scheme-kinds", what="scheme kind")


@SCHEME_BUILDERS.register("hw")
def _build_hw(config, runner):
    from repro.core.schemes.hw_inc import HwIncScheme

    return HwIncScheme(runner.machine, runner.allocator,
                       mixer=config.mixer, rounding=config.rounding,
                       n_clusters=config.n_clusters,
                       drain_policy=config.drain_policy,
                       drain_seed=config.drain_seed,
                       backend=config.backend)


@SCHEME_BUILDERS.register("sw_inc")
def _build_sw_inc(config, runner):
    from repro.core.schemes.sw_inc import SwIncScheme

    return SwIncScheme(runner.machine, runner.allocator,
                       mixer=config.mixer, rounding=config.rounding,
                       atomic=config.atomic, backend=config.backend)


@SCHEME_BUILDERS.register("sw_tr")
def _build_sw_tr(config, runner):
    from repro.core.schemes.sw_tr import SwTrScheme

    return SwTrScheme(runner.machine, runner.allocator,
                      mixer=config.mixer, rounding=config.rounding,
                      static_types=getattr(runner.program,
                                           "static_types", None),
                      backend=config.backend)


SCHEME_KINDS = SCHEME_BUILDERS.names()

#: Window-entry fields :func:`window_columns` can bucket by.
BY_CORE, BY_TID = 0, 1


def window_columns(window, by: int) -> dict:
    """Bucket a store window into parallel columns per core or thread.

    *window* holds the machine's ``(core, tid, address, old_value,
    new_value, is_fp)`` entries; *by* is :data:`BY_CORE` or
    :data:`BY_TID`.  Returns ``{key: (addresses, old_values,
    new_values, fp_flags)}``, each column in retirement order.
    """
    columns: dict = {}
    for entry in window:
        key = entry[by]
        bucket = columns.get(key)
        if bucket is None:
            bucket = columns[key] = ([], [], [], [])
        bucket[0].append(entry[2])
        bucket[1].append(entry[3])
        bucket[2].append(entry[4])
        bucket[3].append(entry[5])
    return columns


class Scheme(WriteObserver):
    """Interface every InstantCheck scheme implements."""

    name = "abstract"

    def __init__(self, machine, allocator, mixer=DEFAULT_MIXER_NAME,
                 rounding: RoundingPolicy | None = None,
                 backend=None):
        self.machine = machine
        self.allocator = allocator
        self.mixer = get_mixer(mixer) if isinstance(mixer, str) else mixer
        self.rounding = rounding if rounding is not None else no_rounding()
        #: The batch hash kernel evaluating this scheme's AdHash sums;
        #: *backend* is a kernel name, ``"auto"``, ``None`` (environment
        #: default), or a kernel instance.
        self.kernel = get_kernel(backend)
        #: Hash-unit invocations this run (per-store updates for the
        #: incremental schemes, per-word sweep work for traversal) —
        #: the per-scheme cost signal telemetry reports, mirroring the
        #: Figure 6 categories.
        self.hash_updates = 0

    def _sync_stores(self) -> None:
        """Close the machine's store window before a read.

        Every externally observable read of hash state (checkpoints,
        per-thread inspection, ISA operations) funnels through this, so
        a read always sees every store retired before it.
        """
        self.machine.flush_stores()

    def state_hash(self) -> int:
        """The 64-bit State Hash of the current memory state."""
        raise NotImplementedError

    def location_term(self, address: int, is_fp: bool = False) -> int:
        """The term the current value at *address* contributes to the hash.

        Reads memory through the same rounding datapath stores take, so
        subtracting this term deletes the location from the hash exactly
        (Section 2.2's technique for ignoring nondeterministic data).
        """
        value = self.machine.memory.load(address)
        if is_fp and self.rounding.enabled:
            value = self.rounding.apply(value)
        return self.mixer.location_hash(address, value)

    def isa_exec(self, instruction: str, core: int, *args):
        """Execute an MHM interface instruction (hardware scheme only)."""
        raise IsaError(f"scheme {self.name} has no MHM hardware interface")

    def _block_word_is_fp(self, block, offset: int) -> bool:
        return block.word_type(offset) == TYPE_FLOAT


@dataclass(frozen=True)
class SchemeConfig:
    """Factory configuration for a scheme, usable as ``scheme_factory``.

    ``kind`` selects the scheme; ``rounding`` configures the FP round-off
    unit (``no_rounding()`` means bit-by-bit comparison); ``atomic``
    selects SW-InstantCheck_Inc's instrumentation atomicity (Section 4.1);
    ``n_clusters``/``drain_policy`` pick the MHM implementation point of
    Section 3.2.

    ``backend`` selects the batch hash kernel (``"auto"``, ``"python"``,
    or ``"numpy"`` — see :mod:`repro.core.hashing.kernels`); ``"auto"``
    honours the ``REPRO_HASH_BACKEND`` environment variable and falls
    back to auto-detection.
    """

    kind: str = "hw"
    mixer: str = DEFAULT_MIXER_NAME
    rounding: RoundingPolicy = field(default_factory=no_rounding)
    atomic: bool = True
    n_clusters: int = 1
    drain_policy: str = "fifo"
    drain_seed: int = 0
    backend: str = "auto"

    def __post_init__(self):
        if self.kind not in SCHEME_BUILDERS:
            raise ValueError(
                f"unknown scheme kind {self.kind!r}; choose from {SCHEME_KINDS}")

    def __call__(self, runner) -> Scheme:
        """Build the scheme for one run and attach it to the machine."""
        scheme = SCHEME_BUILDERS.get(self.kind)(self, runner)
        scheme.attach()
        return scheme
