"""Exhaustive search over the QLI family: when does the QLI arrangement lose?

For g' = c_1 D + ... + c_{nu-2} D^{nu-2} + D^{nu-1} the family code has
m_l^alpha terms in column l of Ginv G (general SST) and m_l^beta = twice
the terms of g_l (QLI SST).  Since a parity over more i.i.d. variables
is strictly more random, tr(Sigma_x) and tr(Sigma_x') order by the term
counts: if some pairing puts every m^alpha at or below its m^beta
partner (one strictly), the general arrangement strictly wins at every
finite SNR, which contradicts the usual reading that QLI pre-decoding is
the safer choice.  Rows where neither pairing works are flagged
indeterminate: their order may change with the SNR, and `reversal_flags`
settles it at each point in exact integer arithmetic.  The family at
nu = 3..12 has no indeterminate row.

The counts are the sizes of the code's error supports.  For one code
(`family_counts`) they are read from `parity_prob.code_supports` in both
arrangements, at any degree.  `enumerate_qli` forms the whole family at
once: its masks are numpy uint64 arrays, member i's g' built by bit
arithmetic on `np.arange` (its c bits are the binary digits of i, c_1
first), the four carry-less products and the g ginv = 1 check run by
shift-and-XOR over every member together, the counts are their
popcounts, and `classify_counts` runs once per distinct count tuple.  No
member builds a `ConvCode` or a polynomial matrix.  The rows it hands
out, made by `tuple.__new__` on the class from per-field columns (what
`QliSearchRow._make` does, less its length check), hold plain Python
ints, bools and tuples.
"""

from __future__ import annotations

from itertools import product, repeat
from typing import NamedTuple

import numpy as np

from . import channel, covar_mi, parity_prob


class QliSearchRow(NamedTuple):
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
        """(m1_alpha, m2_alpha, m1_beta, m2_beta), as reversal_flags takes them."""
        return self.m1_alpha, self.m2_alpha, self.m1_beta, self.m2_beta


def classify_counts(m_alpha, m_beta):
    """(counterexample, indeterminate) from the two term-count pairs.

    A counterexample pairs each m^alpha with an m^beta at or above it, one
    strictly above; an expected class pairs each m^beta with an m^alpha at
    or above it; a class that is neither is indeterminate.  Such a pairing
    exists exactly when the ascending one is such, and it has a strict
    step exactly when the two pairs differ as multisets."""
    (a1, a2), (b1, b2) = sorted(m_alpha), sorted(m_beta)
    counterexample = a1 <= b1 and a2 <= b2 and (a1, a2) != (b1, b2)
    expected = b1 <= a1 and b2 <= a2
    return counterexample, not (counterexample or expected)


def family_counts(code):
    """Term counts (m1_alpha, m2_alpha, m1_beta, m2_beta) for one code: the
    sizes of its general and QLI error supports.  ValueError unless the code
    is QLI."""
    return tuple(len(s) for mode in ("general", "qli")
                 for s in parity_prob.code_supports(code, mode))


def _family_term_counts(g1, g2, i1, i2):
    """family_counts for every member at once: uint64 arrays of the masks of
    g and ginv in, four uint8 arrays of counts out.

    Column l of Ginv G is (i1 g_l, i2 g_l), so m_l^alpha = |i1 g_l| + |i2 g_l|;
    the QLI pre-decoder adds both streams, so m_l^beta = 2 |g_l|.  The
    products are formed by shift-and-XOR over the bits of i1 and i2, so each
    must fit in 64 bits; at nu <= 12 they have degree at most 23.  ValueError
    unless g ginv = 1 for every member."""
    p11 = p12 = p21 = p22 = np.zeros_like(g1)
    for k in range(int(i1.max() | i2.max()).bit_length()):
        b1, b2 = (i1 >> k) & 1, (i2 >> k) & 1
        s1, s2 = g1 << k, g2 << k
        p11, p12 = p11 ^ s1 * b1, p12 ^ s1 * b2
        p21, p22 = p21 ^ s2 * b1, p22 ^ s2 * b2
    if np.any(p11 ^ p22 != 1):
        raise ValueError("ginv is not a right inverse of g")
    count = np.bitwise_count
    return (count(p11) + count(p12), count(p21) + count(p22),
            2 * count(g1), 2 * count(g2))


def enumerate_qli(nu):
    """All 2^(nu-2) family codes of memory nu, in ascending c_1..c_{nu-2} order.

    Each member is g1 = 1 + D g', g2 = 1 + D + D g' with right inverse
    (1 + g', g'), as `convcode.make_qli` builds it, but held as uint64
    masks, one array element per member: the one check run is g ginv = 1."""
    if not 3 <= nu <= 12:
        raise ValueError("nu must lie in [3, 12]")
    # member i's c_1..c_{nu-2} are the binary digits of i, c_1 first, and
    # c_j is bit j of g'; the leading term D^(nu-1) is always present
    index = np.arange(1 << (nu - 2), dtype=np.uint64)
    gp = np.full_like(index, 1 << (nu - 1))
    for j in range(1, nu - 1):
        gp |= (index >> (nu - 2 - j) & 1) << j
    columns = [c.tolist() for c in
               _family_term_counts(1 ^ (gp << 1), 3 ^ (gp << 1), 1 ^ gp, gp)]
    counts = list(zip(*columns))
    flags = {c: classify_counts(c[:2], c[2:]) for c in dict.fromkeys(counts)}
    # tuple.__new__ bound to the class: _make without its length check
    return list(map(tuple.__new__, repeat(QliSearchRow),
                    zip(product((0, 1), repeat=nu - 2), *columns,
                        *zip(*map(flags.__getitem__, counts)), gp.tolist())))


class TracePoint(NamedTuple):
    ebn0_db: float
    epsilon: float
    half_tr_sigma_x: float
    half_tr_sigma_x_prime: float
    reversed_order: bool


def reversal_flags(counts, points):
    """Whether tr Sigma_x < tr Sigma_x' at each SnrPoint, exactly.

    (1/2) tr Sigma_x = 1 - (q^(2 m1a) + q^(2 m2a))/2 with q = 1 - 2 eps, and
    tr Sigma_x' likewise from m1b, m2b, so a reversal is a strictly greater
    power sum on the alpha side.  q^(2m) strictly decreases in m on (0, 1),
    so a determinate class (`classify_counts`) holds one order at every
    finite SNR: a counterexample is reversed everywhere, an expected class
    nowhere.  An indeterminate class compares the two sums on the exact
    value of the float q, as integers over a common denominator; a tie is
    not a reversal."""
    m1a, m2a, m1b, m2b = counts
    counterexample, indeterminate = classify_counts((m1a, m2a), (m1b, m2b))
    if not indeterminate:
        return [counterexample] * len(points)
    top = 2 * max(counts)
    flags = []
    for point in points:
        num, den = (1.0 - 2.0 * point.epsilon).as_integer_ratio()
        # each side's power sum times den^top, an integer
        alpha, beta = (sum(num ** (2 * m) * den ** (top - 2 * m) for m in pair)
                       for pair in ((m1a, m2a), (m1b, m2b)))
        flags.append(alpha > beta)
    return flags


def trace_compare(counts, points):
    """(1/2) tr Sigma_x versus (1/2) tr Sigma_x' at each SnrPoint.

    counts (family_counts) are the four support sizes, which fix both
    traces.  The half traces are float64, by the sweep's own operations
    (`parity_prob.sized_branch_stats`, `covar_mi.sigma_x_entries`) on
    each arrangement's pair of sizes; reversed_order, which marks
    points where the general arrangement is strictly better
    (tr Sigma_x < tr Sigma_x'), is `reversal_flags`, exact.  Near a tie the
    two floats may round to the same value or the wrong way round, so
    reversed_order does not follow from them."""
    # the pair's joint size enters alpha11 and theta alone, not the trace
    sizes = (*counts[:2], 0), (*counts[2:], 0)
    out = []
    for point, flag in zip(points, reversal_flags(counts, points)):
        half_traces = []
        for pair in sizes:
            a1, a2, _, th = parity_prob.sized_branch_stats(pair, point.epsilon)
            s1, s2, _ = covar_mi.sigma_x_entries(a1, a2, th)
            half_traces.append(0.5 * (s1 + s2))
        out.append(TracePoint(point.ebn0_db, point.epsilon, *half_traces, flag))
    return out


def exact_counterexample_snrs(code):
    """Grid points (dB) where tr Sigma_x < tr Sigma_x' exactly (`reversal_flags`)."""
    points = channel.grid_points()
    return [p.ebn0_db for p, flag in zip(points, reversal_flags(family_counts(code), points))
            if flag]
