"""IEEE-754 binary32/binary64 format descriptions and bit-level helpers."""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FloatFormat:
    """Static parameters of a binary interchange format."""

    name: str
    width: int
    exp_bits: int
    man_bits: int

    @property
    def bias(self):
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def emax(self):
        return self.bias

    @property
    def emin(self):
        return 1 - self.bias

    @property
    def exp_mask(self):
        return (1 << self.exp_bits) - 1

    @property
    def man_mask(self):
        return (1 << self.man_bits) - 1

    @property
    def sign_bit(self):
        return 1 << (self.width - 1)

    @property
    def quiet_bit(self):
        return 1 << (self.man_bits - 1)

    @property
    def inf_bits(self):
        return self.exp_mask << self.man_bits

    @property
    def canonical_nan_bits(self):
        return self.inf_bits | self.quiet_bit


F32 = FloatFormat("binary32", 32, 8, 23)
F64 = FloatFormat("binary64", 64, 11, 52)


def split(bits_value, fmt):
    """Split a bit pattern into ``(sign, biased_exp, mantissa)``."""
    mantissa = bits_value & fmt.man_mask
    biased = (bits_value >> fmt.man_bits) & fmt.exp_mask
    sign = (bits_value >> (fmt.width - 1)) & 1
    return sign, biased, mantissa


def is_nan(bits_value, fmt):
    sign, biased, mantissa = split(bits_value, fmt)
    return biased == fmt.exp_mask and mantissa != 0


def is_snan(bits_value, fmt):
    sign, biased, mantissa = split(bits_value, fmt)
    return biased == fmt.exp_mask and mantissa != 0 and not mantissa & fmt.quiet_bit


def is_inf(bits_value, fmt):
    sign, biased, mantissa = split(bits_value, fmt)
    return biased == fmt.exp_mask and mantissa == 0


def is_zero(bits_value, fmt):
    sign, biased, mantissa = split(bits_value, fmt)
    return biased == 0 and mantissa == 0


def is_subnormal(bits_value, fmt):
    sign, biased, mantissa = split(bits_value, fmt)
    return biased == 0 and mantissa != 0


def sign_of(bits_value, fmt):
    return (bits_value >> (fmt.width - 1)) & 1


def canonical_nan(fmt):
    """RISC-V canonical quiet NaN for the format."""
    return fmt.canonical_nan_bits


def unpack(bits_value, fmt):
    """Convert a finite bit pattern to an exact :class:`Fraction`.

    Infinities and NaNs must be filtered by the caller; they have no exact
    rational value.
    """
    sign, biased, mantissa = split(bits_value, fmt)
    if biased == fmt.exp_mask:
        raise ValueError("cannot unpack non-finite value")
    if biased == 0:
        if mantissa == 0:
            return Fraction(0)
        value = Fraction(mantissa, 1 << fmt.man_bits) * Fraction(2) ** fmt.emin
    else:
        significand = Fraction((1 << fmt.man_bits) | mantissa, 1 << fmt.man_bits)
        value = significand * Fraction(2) ** (biased - fmt.bias)
    return -value if sign else value


def pack(sign, biased, mantissa, fmt):
    """Assemble a bit pattern from its fields."""
    return (
        ((sign & 1) << (fmt.width - 1))
        | ((biased & fmt.exp_mask) << fmt.man_bits)
        | (mantissa & fmt.man_mask)
    )


def zero_bits(sign, fmt):
    return pack(sign, 0, 0, fmt)


def inf_bits_signed(sign, fmt):
    return pack(sign, fmt.exp_mask, 0, fmt)


def max_finite_signed(sign, fmt):
    return pack(sign, fmt.exp_mask - 1, fmt.man_mask, fmt)


# --- NaN boxing (RISC-V F-in-D registers) ------------------------------------
_BOX_MASK = 0xFFFFFFFF_00000000


def nan_box(bits32):
    """Box a binary32 value into a 64-bit FP register value."""
    return _BOX_MASK | (bits32 & 0xFFFFFFFF)


def is_nan_boxed(bits64):
    """True when the upper 32 bits are all ones (a valid box)."""
    return bits64 & _BOX_MASK == _BOX_MASK


def nan_unbox(bits64):
    """Extract the binary32 payload; improper boxes yield the canonical NaN.

    This is the architecturally mandated behaviour that bug C3/C6 violates.
    """
    if is_nan_boxed(bits64):
        return bits64 & 0xFFFFFFFF
    return F32.canonical_nan_bits
