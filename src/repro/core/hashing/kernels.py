"""Backend-selectable batch hash kernels.

Every InstantCheck scheme ultimately evaluates sums of per-location
terms ``h(a, v)`` in the group (Z_2^64, +): the traversal scheme sweeps
the whole state, the incremental schemes fold ``h(a, v_new) - h(a,
v_old)`` per store, and frees subtract the last value of every freed
word.  Because the group is commutative and associative, any such sum
may be evaluated over *arrays* in one pass — which is exactly what a
hardware hash unit does, and what this module does in software.

Two interchangeable backends implement the same three operations:

* :class:`PythonKernel` — the pure-Python reference, defined by the
  exact same calls the scalar datapath makes (``mixer.location_hash``
  after ``rounding.apply``).  Always available.
* :class:`NumpyKernel` — vectorized mod-2^64 arithmetic on ``uint64``
  arrays (NumPy wraps unsigned overflow, which *is* the group
  operation).  Available when ``numpy`` is installed (the ``[fast]``
  optional dependency).  Building an array costs more than hashing a
  few words, so a batch shorter than :data:`_NUMPY_MIN_BATCH` takes the
  :class:`PythonKernel` path even here; the result is the same value
  either way.

The schemes make the same calls whichever backend is selected: every
store window, freed block and traversal sweep goes through the kernel,
so the backend changes how a sum is evaluated, never which sums are.

Backend selection: :func:`resolve_backend` honours an explicit name
first, then the ``REPRO_HASH_BACKEND`` environment variable, then
auto-detects (``numpy`` when installed, else ``python``).  Neither
detection nor building a kernel imports numpy: :func:`load_numpy` does,
on the first batch long enough to be vectorized, so a session whose
batches are all short never loads it.  The property-based suite in
``tests/core/test_kernels_properties.py`` proves the backends
bit-identical on adversarial inputs; the differential suite proves
whole checking sessions agree.

Rounding semantics match the scalar datapath exactly: an ``fp``-flagged
value is converted to ``float`` and rounded *before* hashing; all other
values hash their canonical 64-bit pattern (:func:`~repro.sim.values.value_bits`).
"""

from __future__ import annotations

import functools
import importlib.util
import os

from repro.core.registry import Registry
from repro.sim.values import MASK64, value_bits

#: The numpy module once :func:`load_numpy` has imported it.  Every
#: vectorized body below runs after its caller called :func:`load_numpy`.
_np = None

#: Environment variable overriding the default backend choice.
ENV_BACKEND = "REPRO_HASH_BACKEND"

#: The pseudo-backend name meaning "pick the fastest available".
AUTO_BACKEND = "auto"

#: The shortest batch :class:`NumpyKernel` vectorizes; shorter ones take
#: the :class:`PythonKernel` path.  It is the smaller of the two built-in
#: mixers' measured ``store_delta`` crossovers (``crc64`` ~8 stores,
#: ``splitmix64`` ~12-32; docs/performance.md), so no batch of either
#: mixer takes a slower path than vectorizing every batch did.
_NUMPY_MIN_BATCH = 8

#: Canonical quiet-NaN pattern, mirroring :func:`repro.sim.values.float_to_bits`.
_QNAN_BITS = 0x7FF8000000000000

#: Kernel classes by backend name.  Registration is unconditional —
#: :func:`resolve_backend` decides availability (numpy may be registered
#: yet not installed), so error messages can distinguish "no such
#: backend" from "backend not installed".
HASH_BACKENDS = Registry("hash-backends", what="hash backend")


@functools.cache
def has_numpy() -> bool:
    """Is the NumPy backend installed?  Answers without importing numpy."""
    return importlib.util.find_spec("numpy") is not None


def load_numpy():
    """The numpy module, imported on first use.

    The one place the hashing package imports numpy: the kernels, the
    mixers' batch hashes and the vectorized round-off unit all get it
    from here, so nothing loads it before a batch needs it.
    """
    global _np
    if _np is None:
        import numpy
        _np = numpy
    return _np


def _scalar(seq) -> bool:
    """Does a batch over *seq* take the scalar path?  Python sequences
    shorter than :data:`_NUMPY_MIN_BATCH` do; numpy arrays never do."""
    return len(seq) < _NUMPY_MIN_BATCH and not hasattr(seq, "dtype")


class HashKernel:
    """Interface: batch evaluation of AdHash sums for one backend.

    All methods take parallel sequences.  ``fp_flags`` marks entries
    that take the FP round-off datapath (``None`` means no entry does);
    ``rounding`` may be ``None`` or a disabled policy, both meaning the
    round-off unit is off.  Results are plain Python ints in
    ``[0, 2^64)`` — the same values the scalar datapath produces.
    """

    name = "abstract"

    def location_terms(self, mixer, rounding, addresses, values,
                       fp_flags=None) -> list:
        """Normalized per-location terms ``h(a_i, round(v_i))``."""
        raise NotImplementedError

    def fold_locations(self, mixer, rounding, addresses, values,
                       fp_flags=None) -> int:
        """``sum_i h(a_i, round(v_i))`` mod 2^64 (one traversal sweep)."""
        raise NotImplementedError

    def store_delta(self, mixer, rounding, addresses, old_values,
                    new_values, fp_flags=None) -> int:
        """``sum_i (h(a_i, new_i) - h(a_i, old_i))`` mod 2^64.

        The single number a batch of buffered stores adds to a Thread
        Hash — the vectorized form of ``AdHash.update`` folded over the
        whole batch.
        """
        raise NotImplementedError


def _rounding_on(rounding) -> bool:
    return rounding is not None and rounding.enabled


@HASH_BACKENDS.register("python")
class PythonKernel(HashKernel):
    """The scalar reference: loops over the exact scalar datapath."""

    name = "python"

    @staticmethod
    def _round(rounding, value, is_fp):
        if is_fp and _rounding_on(rounding):
            return rounding.apply(value)
        return value

    def location_terms(self, mixer, rounding, addresses, values,
                       fp_flags=None) -> list:
        if fp_flags is None:
            return [mixer.location_hash(a, v)
                    for a, v in zip(addresses, values)]
        return [mixer.location_hash(a, self._round(rounding, v, f))
                for a, v, f in zip(addresses, values, fp_flags)]

    def fold_locations(self, mixer, rounding, addresses, values,
                       fp_flags=None) -> int:
        return sum(self.location_terms(mixer, rounding, addresses, values,
                                       fp_flags)) & MASK64

    def store_delta(self, mixer, rounding, addresses, old_values,
                    new_values, fp_flags=None) -> int:
        if fp_flags is None:
            fp_flags = (False,) * len(addresses)
        total = 0
        for a, old, new, f in zip(addresses, old_values, new_values, fp_flags):
            total += (mixer.location_hash(a, self._round(rounding, new, f))
                      - mixer.location_hash(a, self._round(rounding, old, f)))
        return total & MASK64


@HASH_BACKENDS.register("numpy")
class NumpyKernel(PythonKernel):
    """Vectorized backend: uint64 wraparound is mod-2^64 arithmetic.

    Batches shorter than :data:`_NUMPY_MIN_BATCH` run the inherited
    :class:`PythonKernel` operations, which are faster at that size.
    """

    name = "numpy"

    def __init__(self):
        if not has_numpy():  # pragma: no cover - guarded by the registry
            raise RuntimeError(
                "numpy is not installed; install the [fast] extra or "
                "select the 'python' hash backend")

    # -- canonicalization ---------------------------------------------------

    @staticmethod
    def _float_bits(arr):
        """IEEE-754 bit patterns with NaNs canonicalized to quiet NaN."""
        bits = arr.view(_np.uint64).copy()
        nan = _np.isnan(arr)
        if nan.any():
            bits[nan] = _np.uint64(_QNAN_BITS)
        return bits

    def _bits(self, rounding, values, fp_flags):
        """Canonical 64-bit patterns of *values*, rounding fp entries.

        Replicates the scalar datapath per element: fp-flagged entries
        are converted to float and rounded (when the round-off unit is
        on), floats hash their IEEE bits (canonical NaN), everything
        else hashes its two's-complement pattern.
        """
        n = len(values)
        round_on = _rounding_on(rounding) and fp_flags is not None
        f_idx: list = []
        f_vals: list = []
        r_idx: list = []
        r_vals: list = []
        i_idx: list = []
        i_vals: list = []
        # Bucket by datapath.  Floats deliberately avoid the scalar
        # value_bits (its per-element struct round-trip dominates); the
        # whole float bucket converts through one float64 array view.
        if round_on:
            for i, v in enumerate(values):
                if fp_flags[i]:
                    r_idx.append(i)
                    r_vals.append(float(v))
                elif type(v) is float:
                    f_idx.append(i)
                    f_vals.append(v)
                else:
                    i_idx.append(i)
                    i_vals.append(value_bits(v))
        else:
            for i, v in enumerate(values):
                if type(v) is float:
                    f_idx.append(i)
                    f_vals.append(v)
                else:
                    i_idx.append(i)
                    i_vals.append(value_bits(v))
        if not i_idx and not r_idx:
            return self._float_bits(_np.array(f_vals, dtype=_np.float64))
        if not f_idx and not r_idx:
            return _np.array(i_vals, dtype=_np.uint64)
        bits = _np.zeros(n, dtype=_np.uint64)
        if i_idx:
            bits[i_idx] = _np.array(i_vals, dtype=_np.uint64)
        if f_idx:
            bits[f_idx] = self._float_bits(_np.array(f_vals, dtype=_np.float64))
        if r_idx:
            arr = rounding.apply_array(_np.array(r_vals, dtype=_np.float64))
            bits[r_idx] = self._float_bits(arr)
        return bits

    @staticmethod
    def _addr_array(addresses):
        if isinstance(addresses, _np.ndarray):
            return addresses
        return _np.fromiter((a & MASK64 for a in addresses),
                            dtype=_np.uint64, count=len(addresses))

    # -- kernel operations --------------------------------------------------

    def _term_array(self, mixer, rounding, addresses, values, fp_flags):
        addr = self._addr_array(addresses)
        bits = self._bits(rounding, values, fp_flags)
        return mixer.location_hash_batch(addr, bits)

    def location_terms(self, mixer, rounding, addresses, values,
                       fp_flags=None) -> list:
        if _scalar(addresses):
            return super().location_terms(mixer, rounding, addresses, values,
                                          fp_flags)
        load_numpy()
        return [int(t) for t in
                self._term_array(mixer, rounding, addresses, values, fp_flags)]

    def fold_locations(self, mixer, rounding, addresses, values,
                       fp_flags=None) -> int:
        if _scalar(addresses):
            return super().fold_locations(mixer, rounding, addresses, values,
                                          fp_flags)
        load_numpy()
        terms = self._term_array(mixer, rounding, addresses, values, fp_flags)
        return int(_np.add.reduce(terms, dtype=_np.uint64))

    def store_delta(self, mixer, rounding, addresses, old_values,
                    new_values, fp_flags=None) -> int:
        if _scalar(addresses):
            return super().store_delta(mixer, rounding, addresses, old_values,
                                       new_values, fp_flags)
        load_numpy()
        addr = self._addr_array(addresses)
        delta = mixer.store_delta_batch(
            addr,
            self._bits(rounding, old_values, fp_flags),
            self._bits(rounding, new_values, fp_flags))
        return int(_np.add.reduce(delta, dtype=_np.uint64))


_KERNELS: dict = {}


def available_backends() -> tuple:
    """Names of the backends installed right now."""
    names = [PythonKernel.name]
    if has_numpy():
        names.append(NumpyKernel.name)
    return tuple(sorted(names))


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    Order: an explicit non-auto *backend* wins, then the
    ``REPRO_HASH_BACKEND`` environment variable, then auto-detection
    (numpy when installed, else python).
    """
    requested = backend
    if requested in (None, AUTO_BACKEND):
        requested = os.environ.get(ENV_BACKEND) or AUTO_BACKEND
    if requested == AUTO_BACKEND:
        return NumpyKernel.name if has_numpy() else PythonKernel.name
    if requested == NumpyKernel.name and not has_numpy():
        raise ValueError(
            "hash backend 'numpy' requested but numpy is not installed; "
            "install the [fast] extra (pip install repro[fast]) or use "
            "backend='python'")
    if requested not in HASH_BACKENDS:
        raise ValueError(
            f"unknown hash backend {requested!r}; choose from "
            f"{(AUTO_BACKEND,) + available_backends()}")
    return requested


def get_kernel(backend=None) -> HashKernel:
    """Return the (singleton) kernel for a backend request.

    *backend* may be a name, ``"auto"``, ``None`` (both auto), or an
    existing :class:`HashKernel` (returned unchanged, so schemes can be
    handed a kernel directly).
    """
    if isinstance(backend, HashKernel):
        return backend
    name = resolve_backend(backend)
    kernel = _KERNELS.get(name)
    if kernel is None:
        kernel = _KERNELS[name] = HASH_BACKENDS.get(name)()
    return kernel
