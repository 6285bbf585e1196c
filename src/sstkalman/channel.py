"""BPSK over the memoryless AWGN channel, with hard decisions.

Code bit 0 maps to +1 and bit 1 to -1; the receiver sees z = c*x + w
with w ~ N(0, 1) and c = sqrt(rho), rho = 2 Es/N0.  Every code here is
rate 1/2, so rho = Eb/N0 = 10^(Eb/N0[dB]/10).  The hard decision is 0
when z >= 0, and the crossover probability is eps = Q(c).

Noise is drawn from a counter-based Philox generator through the inverse
normal CDF, so a (seed, length) pair fixes the stream exactly, with no
rejection steps.  `simulate` draws the same Philox streams in C
(`sstdec._draw_block`), word for word as `make_rng` and `standard_normals`
draw them here, and keeps scipy's inverse CDF.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from typing import NamedTuple

DB_GRID = tuple(range(-10, 11))

# rho and 1/rho stay normal doubles: rho in [2^-1022, 2^1022], or
# 10 log10 rho within about +-3076.5 dB
RHO_RANGE = (sys.float_info.min, 1.0 / sys.float_info.min)
_RHO_DB_RANGE = tuple(10.0 * math.log10(r) for r in RHO_RANGE)


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class SnrPoint(NamedTuple):
    """One operating point: Eb/N0 in dB plus the derived rho, c and eps."""

    ebn0_db: float
    rho: float
    c: float
    epsilon: float


def snr_point(ebn0_db):
    lo, hi = _RHO_DB_RANGE
    if not lo <= ebn0_db <= hi:
        raise ValueError(f"Eb/N0 must be finite and within about [{lo:.6g}, {hi:.6g}] dB, "
                         f"where rho and 1/rho are normal doubles; got {ebn0_db!r}")
    rho = 10.0 ** (ebn0_db / 10.0)
    c = math.sqrt(rho)
    # + 0.0 folds -0.0 to 0.0, which prints as 0, never -0
    return SnrPoint(ebn0_db=float(ebn0_db) + 0.0, rho=rho, c=c, epsilon=q_function(c))


@cache
def grid_points():
    """The SnrPoints of DB_GRID, as one tuple built on the first call."""
    return tuple(snr_point(db) for db in DB_GRID)


def bpsk_map(bits):
    """Antipodal map: bit 0 -> +1.0, bit 1 -> -1.0."""
    import numpy as np

    bits = np.asarray(bits)
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0 or 1")
    return 1.0 - 2.0 * bits.astype(np.float64)


def make_rng(seed):
    """A Philox generator keyed by an int seed or a tuple of words.

    A tuple is keyed as uint64 words: numpy would read (s, j) with s past
    int64 as float64, so that nearby s shared one stream."""
    import numpy as np

    if isinstance(seed, tuple):
        seed = np.array(seed, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed))


def standard_normals(gen, size):
    """Standard normals via the inverse CDF of mid-interval uniforms
    (k + 0.5) / 2^53, at most 1 - 2^-53: the + 0.5 of k = 2^53 - 1 rounds
    up to 2^53, whose 1.0 ndtri would map to +inf."""
    # scipy.special is the package's only scipy module; it loads here, on
    # the first noise draw, so no other command loads scipy
    import numpy as np
    from scipy.special import ndtri

    u = (gen.integers(0, 1 << 53, size=size, dtype=np.uint64) + 0.5) / float(1 << 53)
    return ndtri(np.minimum(u, 1.0 - 2.0**-53))


class ReceivedSequence:
    """Received soft values z (n, 2) and their hard decisions z_hard (n, 2)."""

    __slots__ = ("z", "z_hard")

    def __init__(self, z):
        import numpy as np

        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != 2:
            raise ValueError("z must have shape (n, 2)")
        self.z = z
        self.z_hard = (z < 0.0).astype(np.uint8)

    def __len__(self):
        return self.z.shape[0]


def transmit(code_bits, point, seed):
    """Send code bits through the channel at one SNR point: the receiver's view
    z = c x + w of their BPSK symbols x under unit noise w, as a ReceivedSequence."""
    import numpy as np

    code_bits = np.asarray(code_bits, dtype=np.uint8)
    if code_bits.ndim != 2 or code_bits.shape[1] != 2:
        raise ValueError("code_bits must have shape (n, 2)")
    x = bpsk_map(code_bits)
    return ReceivedSequence(point.c * x + standard_normals(make_rng(seed), x.shape))
