"""Rate-1/2 binary convolutional codes, including the quick-look-in family.

A code is a generator pair (g1, g2) and a polynomial right inverse with
G * Ginv = [1] exactly (no decoding delay).  G Ginv = 1 forces
gcd(g1, g2) = 1, so the parity check is (g2, g1) up to a factor and is
not stored.  Quick-look-in (QLI) codes satisfy g1 + g2 = D^L, so the
information sequence is recovered from hard decisions by adding the two
received streams.  QLI-ness is read from g alone: ConvCode.L gives the
look-in delay and raises ValueError for any other code.  The SST
pre-decoder of either arrangement is one value, `predecoder(code, mode)`;
`syndrome` and the pre-decoder's numpy form (`sstdec.predecode`) both run
through `column_filter`, and decoding runs the same taps in C
(`sstdec.stream_pass`).

Polynomials are int masks (see `gf2`): bit j is the coefficient of D^j.
Encoded streams are numpy bit arrays; polynomials only describe codes.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .gf2 import MAX_DEGREE, from_string, polymat_mul, support, to_string, verify_right_inverse


class _CodeFields(NamedTuple):
    name: str
    g: tuple
    ginv: tuple


class ConvCode(_CodeFields):
    """Rate-1/2 feedforward convolutional code: one input, two output streams.

    A NamedTuple of (name, g, ginv) whose every construction path, by
    position or keyword, `_make` or `_replace`, checks g and ginv and
    stores each as a tuple."""

    __slots__ = ()

    def __new__(cls, name, g, ginv):
        g, ginv = tuple(g), tuple(ginv)
        for key, pair in (("g", g), ("ginv", ginv)):
            if len(pair) != 2:
                raise ValueError("g and ginv must each hold two polynomials")
            if not all(isinstance(p, int) and 0 <= p < 1 << (MAX_DEGREE + 1) for p in pair):
                raise ValueError(f"{key} must hold int masks of degree at most {MAX_DEGREE}")
        if not all(g):
            raise ValueError("generator polynomials must be nonzero")
        if not verify_right_inverse(g, ginv):
            raise ValueError("ginv is not a right inverse of g")
        return tuple.__new__(cls, (name, g, ginv))

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls, builds the tuple directly
        return cls(*iterable)

    @property
    def nu(self):
        """Constraint length (memory): the largest generator degree."""
        return max(self.g).bit_length() - 1

    @property
    def L(self):
        """Look-in delay of a QLI code (g1 + g2 = D^L); ValueError for any other code."""
        s = self.g[0] ^ self.g[1]
        if s.bit_count() != 1:
            raise ValueError(f"{self.name!r} is not quick-look-in")
        return s.bit_length() - 1


def make_qli(gprime, name=None):
    """Build the QLI code with g1 = 1 + D*g', g2 = 1 + D + D*g'.

    gprime is an int mask with zero constant term; its degree fixes
    nu = deg(g') + 1.  The right inverse is (1 + g', g')^T.
    """
    if gprime <= 0:
        raise ValueError("gprime must be a nonzero mask")
    if gprime & 1:
        raise ValueError("gprime must have zero constant term")
    g1, g2 = 1 ^ (gprime << 1), 3 ^ (gprime << 1)
    if name is None:
        name = f"qli-nu{gprime.bit_length()}-{to_string(gprime)[1:]}"
    return ConvCode(name=name, g=(g1, g2), ginv=(1 ^ gprime, gprime))


C1 = ConvCode(
    name="c1",
    g=(from_string("111"), from_string("101")),
    ginv=(from_string("01"), from_string("11")),
)

C2 = make_qli(from_string("001011"), name="c2")

_BUILTIN = {"c1": C1, "c2": C2}


def get_code(name):
    try:
        return _BUILTIN[name.lower()]
    except KeyError:
        raise ValueError(f"unknown built-in code {name!r}") from None


def code_from_json(obj):
    """Code from a parsed code file; ValueError on any malformed or unknown field."""
    if not isinstance(obj, dict):
        raise ValueError("a code file must hold a JSON object")
    for key in obj:
        if key not in ("name", "g", "ginv"):
            raise ValueError(f"unknown code field {key!r}")

    def polys(key):
        value = obj.get(key)
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise ValueError(f"code field {key!r} must be a list of polynomial strings")
        return tuple(from_string(s) for s in value)

    name = obj.get("name", "custom")
    if not isinstance(name, str):
        raise ValueError("code field 'name' must be a string")
    return ConvCode(name=name, g=polys("g"), ginv=polys("ginv"))


def load_code(spec):
    """Resolve a --code argument: a built-in name ("c1", "c2") or a JSON file path."""
    if spec.lower() in _BUILTIN:
        return _BUILTIN[spec.lower()]
    with open(spec, encoding="utf-8") as f:
        # a JSONDecodeError, a UnicodeDecodeError or nesting past the
        # decoder's recursion limit becomes an error that names the file
        try:
            obj = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"cannot read code file {spec!r} as UTF-8 JSON: {exc}") from None
    return code_from_json(obj)


def _check_bits(bits):
    import numpy as np

    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise ValueError("bit sequence entries must be 0 or 1")
    return arr


def _tap_xor(bits, poly):
    # y[k] = sum_j poly[j] * bits[k - j] over GF(2), truncated to the block
    import numpy as np

    n = bits.shape[0]
    out = np.zeros(n, dtype=np.uint8)
    for j in support(poly):
        if j < n:
            out[j:] ^= bits[: n - j]
    return out


def encode(code, info):
    """Encode an information bit sequence; returns an (n, 2) array of code bits."""
    import numpy as np

    info = _check_bits(info)
    out = np.empty((info.shape[0], 2), dtype=np.uint8)
    for l in (0, 1):
        out[:, l] = _tap_xor(info, code.g[l])
    return out


def column_filter(z_hard, taps):
    """GF(2) stream z_hard[:, 0] taps[0] + z_hard[:, 1] taps[1] of an (n, 2) block."""
    import numpy as np

    z_hard = np.asarray(z_hard, dtype=np.uint8)
    if z_hard.ndim != 2 or z_hard.shape[1] != 2:
        raise ValueError("z_hard must have shape (n, 2)")
    return _tap_xor(z_hard[:, 0], taps[0]) ^ _tap_xor(z_hard[:, 1], taps[1])


def syndrome(code, z_hard):
    """Parity-check stream of a hard-decision block through (g2, g1); zero on
    error-free codewords."""
    return column_filter(z_hard, code.g[::-1])


def predecoder(code, mode):
    """The SST pre-decoder as (taps, delay).

    The pre-decoder stream z_hard[:, 0] taps[0] + z_hard[:, 1] taps[1]
    estimates i delayed by `delay`.  general: the right inverse Ginv, no
    delay.  qli: the two streams added, which needs g1 + g2 = D^L and
    delays i by L.
    """
    if mode == "general":
        return code.ginv, 0
    if mode == "qli":
        return (1, 1), code.L
    raise ValueError(f"unknown mode {mode!r}")


def main_encoded_block_map(code, mode="general"):
    """Error-to-main-encoded-block map as a 2x2 polynomial matrix (row tuples).

    This is taps @ G, with taps the pre-decoder column: the main encoder
    input stream, advanced by the pre-decoder delay, is v = e (taps G),
    where e is the hard-decision error pair.  In general mode that is
    Ginv G; in qli mode both rows are (g1, g2).
    """
    taps, _ = predecoder(code, mode)
    return polymat_mul(tuple((t,) for t in taps), (code.g,))
