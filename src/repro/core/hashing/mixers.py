"""Per-location hash functions ``h(address, value)``.

Section 2.2 of the paper defines the State Hash as the mod-2^64 sum of
``h(a_i, v_i)`` over all memory locations, where ``h`` is "a regular hash
function (e.g., CRC)" of the address and value of one location.

This module provides two interchangeable mixers:

* :class:`Crc64Mixer` — table-driven CRC-64/ECMA over the 16 bytes of
  (address, value-bits), the paper's suggested choice.
* :class:`SplitMix64Mixer` — a SplitMix64-style finalizer, much faster in
  Python and with excellent avalanche behaviour.

Both are *normalized* so that ``h(a, 0) == 0`` for every address ``a``
(see :mod:`repro.core.hashing.adhash` for why: it makes the incremental
delta hash and the traversal hash coincide exactly, with all-zero memory
as the common baseline).  Normalization subtracts ``raw(a, 0)`` and does
not change collision behaviour: for a fixed address it is a bijection on
the value's raw hash.
"""

from __future__ import annotations

from repro.core.hashing.kernels import load_numpy
from repro.core.registry import Registry
from repro.sim.values import MASK64, value_bits

_CRC64_POLY = 0x42F0E1EBA9EA3693  # CRC-64/ECMA-182


def _build_crc64_table(poly: int) -> tuple:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ poly) & MASK64
            else:
                crc = (crc << 1) & MASK64
        table.append(crc)
    return tuple(table)


_CRC64_TABLE = _build_crc64_table(_CRC64_POLY)


class Mixer:
    """Interface: hash one (address, value) pair into 64 bits.

    Subclasses implement :meth:`raw`; the public :meth:`location_hash`
    applies the ``h(a, 0) == 0`` normalization described above and is
    what every InstantCheck scheme uses.  :meth:`location_hash_batch` is
    the vectorized counterpart over parallel ``uint64`` arrays of
    addresses and value bit patterns; the base-class version loops the
    scalar path, and the built-in mixers override it with genuinely
    vectorized NumPy implementations (bit-identical — the property suite
    in ``tests/core/test_kernels_properties.py`` checks every pair).
    """

    name = "abstract"

    def raw(self, address: int, bits: int) -> int:
        raise NotImplementedError

    def location_hash_bits(self, address: int, bits: int) -> int:
        """Normalized hash of one location from its canonical bit pattern."""
        if bits == 0:
            return 0
        return (self.raw(address, bits) - self.raw(address, 0)) & MASK64

    def location_hash(self, address: int, value) -> int:
        """Normalized hash of one memory location: 0 for a zero word."""
        return self.location_hash_bits(address, value_bits(value))

    def location_hash_batch(self, addresses, bits):
        """Normalized hashes of many locations at once.

        *addresses* and *bits* are parallel ``numpy.uint64`` arrays;
        returns a ``numpy.uint64`` array of normalized terms.  This
        scalar-loop fallback lets any custom mixer participate in the
        batched datapath without writing array code.
        """
        np = load_numpy()
        return np.array(
            [self.location_hash_bits(int(a), int(b))
             for a, b in zip(addresses, bits)],
            dtype=np.uint64)

    def store_delta_batch(self, addresses, old_bits, new_bits):
        """Per-location update terms ``h(a, new) - h(a, old)``, batched.

        The ``h(a, 0)`` normalization terms cancel in the difference, so
        mixers can (and the built-ins do) override this to skip them and
        share the address-dependent prefix between the two halves.
        """
        return (self.location_hash_batch(addresses, new_bits)
                - self.location_hash_batch(addresses, old_bits))


class Crc64Mixer(Mixer):
    """CRC-64/ECMA over the concatenated address and value bit patterns."""

    name = "crc64"

    _table_np = None  # lazily-built numpy copy of the byte table

    def raw(self, address: int, bits: int) -> int:
        crc = 0
        table = _CRC64_TABLE
        data = (address & MASK64) | ((bits & MASK64) << 64)
        for _ in range(16):
            crc = (((crc << 8) & MASK64) ^ table[((crc >> 56) ^ data) & 0xFF])
            data >>= 8
        return crc

    def location_hash_batch(self, addresses, bits):
        # Vectorized across locations: the 16 table steps stay a Python
        # loop (CRC is inherently serial per location) but each step
        # processes the whole batch as one gather + xor.  The 8
        # address-prefix steps are shared between h(a, v) and the
        # normalizing h(a, 0), so the zero branch only pays 8 more.
        np = load_numpy()
        table = Crc64Mixer._table_np
        if table is None:
            table = Crc64Mixer._table_np = np.array(_CRC64_TABLE,
                                                    dtype=np.uint64)
        byte = np.uint64(0xFF)
        eight = np.uint64(8)
        high = np.uint64(56)
        crc = np.zeros(len(addresses), dtype=np.uint64)
        data = addresses.copy()
        for _ in range(8):
            crc = (crc << eight) ^ table[((crc >> high) ^ (data & byte))]
            data >>= eight
        zero_crc = crc.copy()
        data = bits.copy()
        for _ in range(8):
            crc = (crc << eight) ^ table[((crc >> high) ^ (data & byte))]
            data >>= eight
        for _ in range(8):
            zero_crc = (zero_crc << eight) ^ table[zero_crc >> high]
        # crc == zero_crc wherever bits == 0, so normalization lands the
        # required h(a, 0) == 0 without an explicit mask.
        return crc - zero_crc

    def store_delta_batch(self, addresses, old_bits, new_bits):
        np = load_numpy()
        table = Crc64Mixer._table_np
        if table is None:
            table = Crc64Mixer._table_np = np.array(_CRC64_TABLE,
                                                    dtype=np.uint64)
        byte = np.uint64(0xFF)
        eight = np.uint64(8)
        high = np.uint64(56)
        prefix = np.zeros(len(addresses), dtype=np.uint64)
        data = addresses.copy()
        for _ in range(8):
            prefix = ((prefix << eight)
                      ^ table[((prefix >> high) ^ (data & byte))])
            data >>= eight
        halves = []
        for bits in (new_bits, old_bits):
            crc = prefix
            data = bits.copy()
            for _ in range(8):
                crc = (crc << eight) ^ table[((crc >> high) ^ (data & byte))]
                data >>= eight
            halves.append(crc)
        return halves[0] - halves[1]


class SplitMix64Mixer(Mixer):
    """SplitMix64 finalizer over a combination of address and value."""

    name = "splitmix64"

    _GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self):
        # Per-address memoization: the address-keyed finalizer round and
        # the h(a, 0) normalization term are reused by every store to the
        # same address (a pure speed optimization; results are identical).
        self._addr_cache: dict = {}

    def _finalize(self, z: int) -> int:
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return z ^ (z >> 31)

    def raw(self, address: int, bits: int) -> int:
        # Two finalizer rounds keyed by address then value; a single round
        # over (a xor v) would make h(a, v) == h(v, a) — the paper includes
        # the address precisely so permutations of values hash differently.
        z = self._finalize((address + self._GOLDEN) & MASK64)
        return self._finalize((z + bits) & MASK64)

    def location_hash(self, address: int, value) -> int:
        return self.location_hash_bits(address, value_bits(value))

    def location_hash_bits(self, address: int, bits: int) -> int:
        if bits == 0:
            return 0
        cached = self._addr_cache.get(address)
        if cached is None:
            z = self._finalize((address + self._GOLDEN) & MASK64)
            cached = (z, self._finalize(z))
            self._addr_cache[address] = cached
        z, zero_term = cached
        return (self._finalize((z + bits) & MASK64) - zero_term) & MASK64

    @staticmethod
    def _finalize_np(z):
        # The scalar _finalize on uint64 arrays: numpy unsigned
        # arithmetic wraps mod 2^64, standing in for the `& MASK64`s.
        np = load_numpy()
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def location_hash_batch(self, addresses, bits):
        z = self._finalize_np(addresses + load_numpy().uint64(self._GOLDEN))
        zero_terms = self._finalize_np(z)
        # Wherever bits == 0 the two finalizations coincide and the
        # difference is the required normalized 0.
        return self._finalize_np(z + bits) - zero_terms

    def store_delta_batch(self, addresses, old_bits, new_bits):
        z = self._finalize_np(addresses + load_numpy().uint64(self._GOLDEN))
        return self._finalize_np(z + new_bits) - self._finalize_np(z + old_bits)


MIXERS = Registry("mixers")
MIXERS.register(Crc64Mixer.name, Crc64Mixer)
MIXERS.register(SplitMix64Mixer.name, SplitMix64Mixer)

DEFAULT_MIXER_NAME = SplitMix64Mixer.name


def get_mixer(name: str = DEFAULT_MIXER_NAME) -> Mixer:
    """Return a mixer instance by name (``"crc64"`` or ``"splitmix64"``)."""
    return MIXERS.get(name)()


def available_mixers() -> tuple:
    """Names of all registered mixers."""
    return tuple(sorted(MIXERS))
