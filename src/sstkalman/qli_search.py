"""Exhaustive search over the QLI family: when does the QLI arrangement lose?

For g' = c_1 D + ... + c_{nu-2} D^{nu-2} + D^{nu-1} the family code has
m_l^alpha terms in column l of Ginv G (general SST) and m_l^beta = twice
the terms of g_l (QLI SST).  Since a parity over more i.i.d. variables
is strictly more random, tr(Sigma_x) and tr(Sigma_x') order by the term
counts: if some pairing puts every m^alpha at or below its m^beta
partner (one strictly), the general arrangement strictly wins at every
finite SNR, which contradicts the usual reading that QLI pre-decoding is
the safer choice.  Rows where neither pairing works are flagged
indeterminate and deserve the trace comparison.

The counts are popcounts of carry-less products of integer masks
(`gf2.clmul`); the family is enumerated without building a `ConvCode`
or a polynomial matrix per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import channel
from .gf2 import clmul


@dataclass(frozen=True)
class QliSearchRow:
    c_bits: tuple
    m1_alpha: int
    m2_alpha: int
    m1_beta: int
    m2_beta: int
    heuristic_counterexample: bool
    indeterminate: bool
    gprime: int

    @property
    def counts(self):
        """(m1_alpha, m2_alpha, m1_beta, m2_beta), as trace_compare takes them."""
        return self.m1_alpha, self.m2_alpha, self.m1_beta, self.m2_beta


def _pairing_le(small, big, strict):
    for perm in ((0, 1), (1, 0)):
        ok = all(small[i] <= big[perm[i]] for i in (0, 1))
        if ok and (not strict or any(small[i] < big[perm[i]] for i in (0, 1))):
            return True
    return False


def classify_counts(m_alpha, m_beta):
    """(counterexample, indeterminate) from the two term-count pairs."""
    counterexample = _pairing_le(m_alpha, m_beta, strict=True)
    expected = _pairing_le(m_beta, m_alpha, strict=False)
    return counterexample, (not counterexample and not expected)


def _term_counts(g1, g2, i1, i2):
    """(m1_alpha, m2_alpha, m1_beta, m2_beta) from the masks of g and ginv.

    Column l of Ginv G is (i1 g_l, i2 g_l), so m_l^alpha = |i1 g_l| + |i2 g_l|;
    the QLI pre-decoder adds both streams, so m_l^beta = 2 |g_l|.  ValueError
    unless g ginv = 1."""
    if clmul(g1, i1) ^ clmul(g2, i2) != 1:
        raise ValueError("ginv is not a right inverse of g")
    return (clmul(i1, g1).bit_count() + clmul(i2, g1).bit_count(),
            clmul(i1, g2).bit_count() + clmul(i2, g2).bit_count(),
            2 * g1.bit_count(), 2 * g2.bit_count())


def family_counts(code):
    """Term counts (m1_alpha, m2_alpha, m1_beta, m2_beta) for one code."""
    code.L  # the beta counts hold only for QLI codes
    return _term_counts(*code.g, *code.ginv)


def enumerate_qli(nu):
    """All 2^(nu-2) family codes of memory nu, in ascending c_1..c_{nu-2} order.

    Each member is g1 = 1 + D g', g2 = 1 + D + D g' with right inverse
    (1 + g', g'), as `convcode.make_qli` builds it, but held as int masks:
    the one check run per member is g ginv = 1."""
    if not 3 <= nu <= 12:
        raise ValueError("nu must lie in [3, 12]")
    rows = []
    for bits in product((0, 1), repeat=nu - 2):
        gp = 1 << (nu - 1)
        for pos, c in enumerate(bits, start=1):
            if c:
                gp |= 1 << pos
        counts = _term_counts(1 ^ (gp << 1), 3 ^ (gp << 1), 1 ^ gp, gp)
        counter, indet = classify_counts(counts[:2], counts[2:])
        rows.append(QliSearchRow(bits, *counts, heuristic_counterexample=counter,
                                 indeterminate=indet, gprime=gp))
    return rows


@dataclass(frozen=True)
class TracePoint:
    ebn0_db: float
    epsilon: float
    half_tr_sigma_x: float
    half_tr_sigma_x_prime: float
    reversed_order: bool


def _half_trace(q, n1, n2):
    """(1/2) tr of the 2x2 covariance of two parities over n1 and n2 variables."""
    a1 = 0.5 * (1.0 - q ** n1)
    a2 = 0.5 * (1.0 - q ** n2)
    return 2.0 * (a1 * (1.0 - a1) + a2 * (1.0 - a2))


def trace_compare(counts, points):
    """(1/2) tr Sigma_x versus (1/2) tr Sigma_x' at each SnrPoint, in float64.

    counts (family_counts) are the four support sizes, which fix both
    traces.  reversed_order marks points where the general arrangement is
    strictly better (tr Sigma_x < tr Sigma_x').  Both half traces are
    float64 values near 1 at low SNR, so the order is wrong within about
    2^-48 of a tie (ROADMAP item 1)."""
    m1a, m2a, m1b, m2b = counts
    out = []
    for point in points:
        eps = point.epsilon
        q = 1.0 - 2.0 * eps
        tx = _half_trace(q, m1a, m2a)
        txp = _half_trace(q, m1b, m2b)
        out.append(TracePoint(ebn0_db=point.ebn0_db, epsilon=eps,
                              half_tr_sigma_x=tx, half_tr_sigma_x_prime=txp,
                              reversed_order=bool(tx < txp)))
    return out


def exact_counterexample_snrs(code):
    """Grid points (dB) where the float64 half traces put tr Sigma_x below
    tr Sigma_x'; wrong within about 2^-48 of a tie, as trace_compare."""
    return [p.ebn0_db for p in trace_compare(family_counts(code), channel.grid_points())
            if p.reversed_order]
