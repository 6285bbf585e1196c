"""BPSK over the memoryless AWGN channel, with hard decisions.

Code bit 0 maps to +1 and bit 1 to -1; the receiver sees z = c*x + w
with w ~ N(0, 1) and c = sqrt(rho), rho = 2 Es/N0.  For a rate-R code,
rho = 2 R * 10^(Eb/N0[dB]/10).  The hard decision is 0 when z >= 0, and
the crossover probability is eps = Q(c).

Noise is drawn from a counter-based Philox generator through the inverse
normal CDF, so a (seed, length) pair fixes the stream exactly, with no
rejection steps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

DB_GRID = tuple(range(-10, 11))

# rho and 1/rho stay normal doubles: rho in [2^-1022, 2^1022], or
# 10 log10 rho within about +-3076.5 dB
RHO_RANGE = (sys.float_info.min, 1.0 / sys.float_info.min)
_RHO_DB_RANGE = tuple(10.0 * math.log10(r) for r in RHO_RANGE)


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class SnrPoint:
    """One operating point: Eb/N0 in dB plus the derived rho, c and eps."""

    ebn0_db: float
    rate: float
    rho: float
    c: float
    epsilon: float


def snr_point(ebn0_db, rate=0.5):
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    rate_db = 10.0 * math.log10(2.0 * rate)
    lo, hi = _RHO_DB_RANGE[0] - rate_db, _RHO_DB_RANGE[1] - rate_db
    if not lo <= ebn0_db <= hi:
        raise ValueError(f"Eb/N0 must be finite and within about [{lo:.6g}, {hi:.6g}] dB, "
                         f"where rho and 1/rho are normal doubles; got {ebn0_db!r}")
    rho = 2.0 * rate * 10.0 ** (ebn0_db / 10.0)
    c = math.sqrt(rho)
    return SnrPoint(ebn0_db=float(ebn0_db), rate=float(rate), rho=rho, c=c,
                    epsilon=q_function(c))


def grid_points(db_values=DB_GRID, rate=0.5):
    return [snr_point(db, rate) for db in db_values]


def bpsk_map(bits):
    """Antipodal map: bit 0 -> +1.0, bit 1 -> -1.0."""
    bits = np.asarray(bits)
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return 1.0 - 2.0 * bits.astype(np.float64)


def make_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def standard_normals(gen, size):
    """Standard normals via the inverse CDF of mid-interval uniforms."""
    u = (gen.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) / float(1 << 53)
    return ndtri(u)


class ReceivedSequence:
    """Received soft values z (n, 2) and their hard decisions z_hard (n, 2)."""

    __slots__ = ("z", "z_hard")

    def __init__(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != 2:
            raise ValueError("z must have shape (n, 2)")
        self.z = z
        self.z_hard = (z < 0.0).astype(np.uint8)

    def __len__(self):
        return self.z.shape[0]


def transmit(code_bits, point, seed):
    """Send code bits through the channel at one SNR point; returns a ReceivedSequence."""
    code_bits = np.asarray(code_bits, dtype=np.uint8)
    if code_bits.ndim != 2 or code_bits.shape[1] != 2:
        raise ValueError("code_bits must have shape (n, 2)")
    x = bpsk_map(code_bits)
    w = standard_normals(make_rng(seed), x.shape)
    return ReceivedSequence(point.c * x + w)
