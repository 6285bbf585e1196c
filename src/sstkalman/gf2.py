"""GF(2) polynomial arithmetic in the delay operator D.

A polynomial is stored as a little-endian bit mask: bit j of the mask is
the coefficient of D^j.  The text form reads lowest degree first, so
"111" is 1 + D + D^2 and "01" is D.  Masks keep every product of the
code polynomials handled here inside a couple of machine words; the
degree cap rejects anything that could silently grow past that.
"""

from __future__ import annotations

MAX_DEGREE = 64


class BinaryPoly:
    """Immutable polynomial over GF(2), degree at most MAX_DEGREE."""

    __slots__ = ("mask",)

    def __init__(self, mask=0):
        if isinstance(mask, BinaryPoly):
            mask = mask.mask
        if not isinstance(mask, int):
            raise TypeError("mask must be an int or BinaryPoly")
        if mask < 0:
            raise ValueError("mask must be non-negative")
        if mask.bit_length() > MAX_DEGREE + 1:
            raise ValueError(f"degree exceeds {MAX_DEGREE}")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryPoly is immutable")

    @classmethod
    def from_string(cls, text):
        """Parse a coefficient string, lowest degree first ("111" = 1+D+D^2)."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"invalid polynomial string: {text!r}")
        mask = 0
        for j, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << j
        return cls(mask)

    def to_string(self):
        """Coefficient string, lowest degree first; the zero polynomial is "0"."""
        if self.mask == 0:
            return "0"
        return "".join("1" if self.mask >> j & 1 else "0" for j in range(self.degree + 1))

    @property
    def is_zero(self):
        return self.mask == 0

    @property
    def degree(self):
        """Degree of the polynomial.  Undefined (raises) for the zero polynomial."""
        if self.mask == 0:
            raise ValueError("degree of the zero polynomial is undefined")
        return self.mask.bit_length() - 1

    @property
    def term_count(self):
        """Number of nonzero terms."""
        return self.mask.bit_count()

    def support(self):
        """Tuple of exponents with nonzero coefficient, ascending."""
        return tuple(j for j in range(self.mask.bit_length()) if self.mask >> j & 1)

    def coeff(self, j):
        if j < 0:
            raise ValueError("negative exponent")
        return self.mask >> j & 1

    def shifted(self, k):
        """Multiply by D^k."""
        if k < 0:
            raise ValueError("negative shift")
        return BinaryPoly(self.mask << k)

    def __add__(self, other):
        return BinaryPoly(self.mask ^ BinaryPoly(other).mask)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        return poly_mul(self, other)

    def __eq__(self, other):
        if isinstance(other, BinaryPoly):
            return self.mask == other.mask
        if isinstance(other, int):
            return self.mask == other
        return NotImplemented

    def __hash__(self):
        return hash(("BinaryPoly", self.mask))

    def __bool__(self):
        return self.mask != 0

    def __repr__(self):
        return f"BinaryPoly({self.to_string()!r})"


ZERO = BinaryPoly(0)
ONE = BinaryPoly(1)
D = BinaryPoly(2)


def clmul(a, b):
    """Carry-less product of two non-negative int masks: the GF(2)[D] product."""
    if a < 0 or b < 0:
        raise ValueError("masks must be non-negative")
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def poly_mul(a, b):
    """Carry-free product of two polynomials over GF(2)."""
    return BinaryPoly(clmul(BinaryPoly(a).mask, BinaryPoly(b).mask))


def polymat_mul(a, b):
    """Matrix product over GF(2)[D]; a matrix is a tuple of row tuples of BinaryPoly."""
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    out = []
    for row in a:
        entries = []
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                acc ^= poly_mul(x, y).mask
            entries.append(BinaryPoly(acc))
        out.append(tuple(entries))
    return tuple(out)


def verify_right_inverse(g, ginv):
    """True when g ginv = 1: the column ginv is an exact right inverse of the row g, no delay."""
    return polymat_mul((tuple(g),), tuple((p,) for p in ginv)) == ((ONE,),)


def column_term_count(m, col):
    """Total number of terms in one column of a polynomial matrix."""
    if not 0 <= col < len(m[0]):
        raise ValueError(f"column {col} out of range for {len(m[0])} columns")
    return sum(row[col].term_count for row in m)
