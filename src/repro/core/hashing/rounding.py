"""FP round-off unit (Sections 3.1 and 5).

Different thread interleavings execute non-associative floating-point
additions in different orders, producing results that differ in the low
bits even when the program is semantically deterministic.  InstantCheck
optionally rounds FP values *before hashing* so that such runs hash
equally.  The paper offers two operations, selectable by expert users:

* zero out the least-significant M bits of the mantissa — discards small
  *relative* differences (``MANTISSA_ZERO``);
* take the floor to the number with only N decimal digits — discards
  small *absolute* differences (``DECIMAL_FLOOR``).

By default InstantCheck "rounds to the closest 0.001, as typically done
in systematic testing", which we model as ``DECIMAL_NEAREST`` with
``digits=3`` (:func:`default_policy`).

The unit sits in front of the hash unit: schemes call
:meth:`RoundingPolicy.apply` on every FP value (selected by the store
instruction for the incremental schemes, or by allocation-site type info
for the traversal scheme) and hash the rounded value instead.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

from repro.core.hashing.kernels import load_numpy
from repro.core.registry import Registry
from repro.sim.values import MASK64


class RoundingMode(enum.Enum):
    """Which rounding operation the FP round-off unit performs."""

    NONE = "none"
    MANTISSA_ZERO = "mantissa_zero"
    DECIMAL_FLOOR = "decimal_floor"
    DECIMAL_NEAREST = "decimal_nearest"


@dataclass(frozen=True)
class RoundingPolicy:
    """Configuration of the FP round-off unit.

    ``mantissa_bits`` is the M parameter of ``MANTISSA_ZERO`` (0..52);
    ``digits`` is the N parameter of the decimal modes.
    """

    mode: RoundingMode = RoundingMode.NONE
    mantissa_bits: int = 20
    digits: int = 3

    def __post_init__(self):
        if not 0 <= self.mantissa_bits <= 52:
            raise ValueError("mantissa_bits must be in 0..52")
        if self.digits < 0:
            raise ValueError("digits must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.mode is not RoundingMode.NONE

    def apply(self, value: float) -> float:
        """Round one FP value according to the policy.

        Non-finite values pass through unchanged: rounding exists to mask
        low-order noise, and infinities/NaNs carry none.
        """
        if self.mode is RoundingMode.NONE:
            return value
        if not isinstance(value, float):
            value = float(value)
        if not math.isfinite(value):
            return value
        if self.mode is RoundingMode.MANTISSA_ZERO:
            return zero_mantissa_bits(value, self.mantissa_bits)
        if self.mode is RoundingMode.DECIMAL_FLOOR:
            return decimal_floor(value, self.digits)
        if self.mode is RoundingMode.DECIMAL_NEAREST:
            return decimal_nearest(value, self.digits)
        raise AssertionError(f"unhandled mode {self.mode}")

    def apply_array(self, values):
        """Round a ``numpy.float64`` array; the vectorized :meth:`apply`.

        Bit-identical to mapping :meth:`apply` over the elements (the
        property suite checks this): floors of binary64 values are
        exactly representable, so ``numpy.floor`` matches ``math.floor``
        followed by the int-to-float division, and the mantissa mask is
        the same bit operation through a ``uint64`` view.  Non-finite
        entries pass through unchanged, as in the scalar path.
        """
        if self.mode is RoundingMode.NONE:
            return values
        np = load_numpy()
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values)
        if self.mode is RoundingMode.MANTISSA_ZERO:
            if self.mantissa_bits == 0:
                return values
            mask = np.uint64(MASK64 ^ ((1 << self.mantissa_bits) - 1))
            rounded = (values.view(np.uint64) & mask).view(np.float64)
        else:
            scale = 10.0**self.digits
            with np.errstate(invalid="ignore", over="ignore"):
                scaled = values * scale
                # Values whose scaled form overflows pass through, like
                # the scalar path: at that magnitude a 10^-N grid cannot
                # express any rounding anyway.
                finite &= np.isfinite(scaled)
                if self.mode is RoundingMode.DECIMAL_FLOOR:
                    rounded = np.floor(scaled) / scale
                else:  # DECIMAL_NEAREST: ties away from zero
                    rounded = np.where(scaled >= 0,
                                       np.floor(scaled + 0.5),
                                       np.ceil(scaled - 0.5)) / scale
                # math.floor/ceil return ints, so the scalar decimal
                # modes can only produce +0.0; numpy's floor/ceil keep
                # the sign of zero.  Adding +0.0 maps -0.0 to +0.0 and
                # is the identity on every other value.
                rounded = rounded + 0.0
        return np.where(finite, rounded, values)


def zero_mantissa_bits(value: float, m: int) -> float:
    """Zero the M least-significant mantissa bits of a binary64 value.

    Implementation-wise this is the paper's "logically AND-ing the
    mantissa with a mask" — the simplest hardware alternative.
    """
    if m == 0:
        return value
    bits = struct.unpack("<Q", struct.pack("<d", value))[0]
    mask = MASK64 ^ ((1 << m) - 1)
    return struct.unpack("<d", struct.pack("<Q", bits & mask))[0]


def decimal_floor(value: float, digits: int) -> float:
    """Floor toward negative infinity at N decimal digits.

    Values so large that scaling them overflows pass through unchanged
    (a 10^-N grid cannot round them); this also keeps ``math.floor``
    from seeing an infinity.
    """
    scale = 10.0**digits
    scaled = value * scale
    if not math.isfinite(scaled):
        return value
    return math.floor(scaled) / scale


def decimal_nearest(value: float, digits: int) -> float:
    """Round to the nearest multiple of 10^-N (ties away from zero).

    ``round()``'s banker's rounding would map values straddling a tie
    inconsistently with the systematic-testing convention the paper cites,
    so we round half away from zero explicitly.
    """
    scale = 10.0**digits
    scaled = value * scale
    if not math.isfinite(scaled):
        return value
    return math.floor(scaled + 0.5) / scale if scaled >= 0 else math.ceil(scaled - 0.5) / scale


#: Policy factories by CLI name (``--rounding``).
ROUNDINGS = Registry("roundings", what="rounding policy")


@ROUNDINGS.register("none")
def no_rounding() -> RoundingPolicy:
    """Bit-by-bit comparison: the round-off unit is disabled."""
    return RoundingPolicy(mode=RoundingMode.NONE)


@ROUNDINGS.register("default")
def default_policy() -> RoundingPolicy:
    """The paper's default: round to the closest 0.001."""
    return RoundingPolicy(mode=RoundingMode.DECIMAL_NEAREST, digits=3)


@ROUNDINGS.register("mantissa")
def mantissa_policy(bits: int = 20) -> RoundingPolicy:
    """Discard small relative differences: zero M mantissa bits."""
    return RoundingPolicy(mode=RoundingMode.MANTISSA_ZERO, mantissa_bits=bits)


@ROUNDINGS.register("floor")
def floor_policy(digits: int = 3) -> RoundingPolicy:
    """Discard small absolute differences: floor at N decimal digits."""
    return RoundingPolicy(mode=RoundingMode.DECIMAL_FLOOR, digits=digits)
