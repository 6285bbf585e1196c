"""GF(2) polynomial arithmetic in the delay operator D, on int masks.

A polynomial is a non-negative int: bit j is the coefficient of D^j.
The text form reads lowest degree first, so "111" is 1 + D + D^2 and
"01" is D; the zero polynomial prints "0".  A polynomial matrix is a
tuple of row tuples of masks.  Python ints never overflow, so
MAX_DEGREE bounds each code polynomial, not the products formed from
them.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

MAX_DEGREE = 64


def from_string(text):
    """Mask of a coefficient string, lowest degree first ("111" = 1+D+D^2)."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"invalid polynomial string: {text!r}")
    mask = int(text[::-1], 2)
    if mask.bit_length() > MAX_DEGREE + 1:
        raise ValueError(f"degree exceeds {MAX_DEGREE}")
    return mask


def to_string(mask):
    """Coefficient string of a mask, lowest degree first; the zero polynomial is "0"."""
    return format(mask, "b")[::-1]


def support(mask):
    """Tuple of exponents with nonzero coefficient, ascending."""
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


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


def polymat_mul(a, b):
    """Matrix product over GF(2)[D]."""
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{len(b[0])}")
    return tuple(tuple(reduce(xor, map(clmul, row, col), 0) for col in zip(*b)) for row in a)


def verify_right_inverse(g, ginv):
    """True when g ginv = 1: the column ginv is an exact right inverse of the row g, no delay."""
    return polymat_mul((tuple(g),), tuple((p,) for p in ginv)) == ((1,),)


def column_term_count(m, col):
    """Total number of terms in one column of a polynomial matrix."""
    if not 0 <= col < len(m[0]):
        raise ValueError(f"column {col} out of range for {len(m[0])} columns")
    return sum(row[col].bit_count() for row in m)
