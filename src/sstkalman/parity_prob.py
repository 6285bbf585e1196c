"""Exact parity probabilities for linear images of i.i.d. channel errors.

The hard-decision error pair e is i.i.d. Bernoulli(eps) per component.
A main-encoded bit is a parity v = sum of e over a support set of
(component, delay) variables, so with q = 1 - 2 eps:

    P(v = 1)          = (1 - q^n) / 2                       (n support vars)
    P(v1 = 1, v2 = 1) = (1 + q^(a+b) - q^(a+c) - q^(b+c)) / 4
    theta = P(v1 = 1, v2 = 1) - P(v1 = 1) P(v2 = 1)
                      = (q^(a+b) - q^(a+b+2c)) / 4

where a and b count variables exclusive to each support and c counts the
shared ones.  Everything here is a polynomial in eps with integer
coefficients; the polynomial forms are exposed exactly.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, sqrt
from typing import NamedTuple

from . import channel, convcode
from .gf2 import support


class ErrorSupport(frozenset):
    """A frozenset of (component, delay) error variables; components are 1-based."""

    def __new__(cls, pairs=()):
        pairs = frozenset((int(c), int(d)) for c, d in pairs)
        if any(c < 1 or d < 0 for c, d in pairs):
            raise ValueError("variables are (component >= 1, delay >= 0) pairs")
        return super().__new__(cls, pairs)

    @property
    def max_delay(self):
        return max((d for _, d in self), default=0)


def support_of(m, col):
    """Error support of one column of a main-encoded block map (row tuples)."""
    if not 0 <= col < len(m[0]):
        raise ValueError(f"column {col} out of range for {len(m[0])} columns")
    return ErrorSupport((i + 1, j) for i, row in enumerate(m)
                        for j in support(row[col]))


@cache
def code_supports(code, mode="general"):
    """Error supports of the two main-encoded components.

    Built once per (code, mode): a ConvCode is a hashable NamedTuple and an
    ErrorSupport is a frozenset, so every caller can share the pair."""
    m = convcode.main_encoded_block_map(code, mode)
    return support_of(m, 0), support_of(m, 1)


def _check_eps(eps):
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    return eps


def _size(s):
    return len(s) if isinstance(s, ErrorSupport) else int(s)


def parity_one_prob(n, eps):
    """P(parity of n i.i.d. Bernoulli(eps) variables is 1); n may be an ErrorSupport."""
    n = _size(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    eps = _check_eps(eps)
    return 0.5 * (1.0 - (1.0 - 2.0 * eps) ** n)


def joint_parity_prob(s1, s2, eps):
    """P(both parities are 1) for two supports over the same error field:
    (1 + q^(a+b) - q^(a+c) - q^(b+c)) / 4."""
    return branch_stats(s1, s2, eps)[2]


def joint_value_prob(supports, values, eps):
    """P(v_j = values[j] for all j), by inclusion-exclusion over subsets.

    Exponential in len(supports); meant for the handful of parities a code
    analysis needs, not for large systems.
    """
    eps = _check_eps(eps)
    supports = list(supports)
    values = list(values)
    if len(supports) != len(values):
        raise ValueError("supports and values must have equal length")
    if any(v not in (0, 1) for v in values):
        raise ValueError("values must be 0/1")
    m = len(supports)
    q = 1.0 - 2.0 * eps
    total = 0.0
    for r in range(m + 1):
        for subset in combinations(range(m), r):
            sym = frozenset()
            for j in subset:
                sym = sym ^ supports[j]
            sign = -1.0 if sum(values[j] for j in subset) % 2 else 1.0
            total += sign * q ** len(sym)
    return total / 2.0 ** m


def brute_force_joint(s1, s2, eps):
    """Literal enumeration oracle for joint_parity_prob; |union| <= 24."""
    import numpy as np

    eps = _check_eps(eps)
    union = sorted(s1 | s2)
    nu = len(union)
    if nu > 24:
        raise ValueError("union larger than 24 variables; enumeration refused")
    index = {v: i for i, v in enumerate(union)}
    m1 = sum(1 << index[v] for v in s1)
    m2 = sum(1 << index[v] for v in s2)
    weight_counts = np.zeros(nu + 1, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, 1 << nu, chunk):
        k = np.arange(start, min(start + chunk, 1 << nu), dtype=np.uint64)
        both = (np.bitwise_count(k & np.uint64(m1)) & 1) & (np.bitwise_count(k & np.uint64(m2)) & 1)
        if both.any():
            w = np.bitwise_count(k[both.astype(bool)])
            weight_counts += np.bincount(w, minlength=nu + 1).astype(np.int64)
    weights = np.arange(nu + 1, dtype=np.float64)
    return float(np.sum(weight_counts * eps ** weights * (1.0 - eps) ** (nu - weights)))


class EpsPolynomial(NamedTuple):
    """Polynomial in eps with integer coefficients, ascending order."""

    coefficients: tuple

    def __call__(self, eps):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * eps + c
        return acc


def _q_expansion(terms, denominator):
    """(sum of weight * q^n over (weight, n) terms) / denominator, expanded
    exactly in eps with q = 1 - 2 eps, trailing zeros dropped."""
    coeffs = [0] * (max(n for _, n in terms) + 1)
    for weight, n in terms:
        for k in range(n + 1):
            coeffs[k] += weight * comb(n, k) * (-2) ** k
    if any(c % denominator for c in coeffs):
        raise AssertionError("expansion must have integer coefficients")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return EpsPolynomial(tuple(c // denominator for c in coeffs))


def marginal_polynomial(n):
    """parity_one_prob(n, eps) = (1 - q^n) / 2, expanded exactly in eps."""
    n = _size(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    return _q_expansion(((1, 0), (-1, n)), 2)


def joint_polynomial(s1, s2):
    """joint_parity_prob = (1 + q^(a+b) - q^(a+c) - q^(b+c)) / 4, expanded
    exactly in eps, on the `support_sizes` (n1, n2, n12) = (a+c, b+c, a+b)."""
    n1, n2, n12 = support_sizes(s1, s2)
    return _q_expansion(((1, 0), (1, n12), (-1, n1), (-1, n2)), 4)


def theta_polynomial(s1, s2):
    """theta = (q^(a+b) - q^(a+b+2c)) / 4, expanded exactly in eps, on the
    `support_sizes` as in joint_polynomial; (0,) when c = 0."""
    n1, n2, n12 = support_sizes(s1, s2)
    return _q_expansion(((1, n12), (-1, n1 + n2)), 4)


def support_sizes(s1, s2):
    """(|S1|, |S2|, |S1 ^ S2|): the exponents of q = 1 - 2 eps in the
    branch statistics of two supports, a + c, b + c and a + b."""
    return len(s1), len(s2), len(s1 ^ s2)


def sized_branch_stats(sizes, eps):
    """(alpha1, alpha2, alpha11, theta) from `support_sizes` and an eps in
    [0, 1], by the same float operations as parity_one_prob and
    joint_parity_prob."""
    n1, n2, n12 = sizes
    q = 1.0 - 2.0 * eps
    q1, q2 = q ** n1, q ** n2
    a1 = 0.5 * (1.0 - q1)
    a2 = 0.5 * (1.0 - q2)
    a11 = 0.25 * (1.0 + q ** n12 - q1 - q2)
    return a1, a2, a11, a11 - a1 * a2


def branch_stats(s1, s2, eps):
    """(alpha1, alpha2, alpha11, theta) of one main-encoded pair.

    Every branch covariance of the analysis is built from these four.
    """
    return sized_branch_stats(support_sizes(s1, s2), _check_eps(eps))


def theta(s1, s2, eps):
    """Covariance-style term: P(v1=1, v2=1) - P(v1=1) P(v2=1)."""
    return branch_stats(s1, s2, eps)[3]


def theta_four_ways(s1, s2, eps):
    """The four equivalent expressions for theta, from the 2x2 value table."""
    p1 = parity_one_prob(s1, eps)
    p2 = parity_one_prob(s2, eps)
    p00 = joint_value_prob([s1, s2], [0, 0], eps)
    p01 = joint_value_prob([s1, s2], [0, 1], eps)
    p10 = joint_value_prob([s1, s2], [1, 0], eps)
    p11 = joint_value_prob([s1, s2], [1, 1], eps)
    return (
        p00 - (1.0 - p1) * (1.0 - p2),
        (1.0 - p1) * p2 - p01,
        p1 * (1.0 - p2) - p10,
        p11 - p1 * p2,
    )


class MonteCarloProbs(NamedTuple):
    alpha1: float
    alpha2: float
    alpha11: float
    se_alpha1: float
    se_alpha2: float
    se_alpha11: float


def error_window_parities(s1, s2, eps, trials, gen):
    """(trials, 2) uint8 parities of both supports, one fresh error window per trial."""
    import numpy as np

    depth = max(s1.max_delay, s2.max_delay) + 1
    errors = (gen.random((trials, depth, 2)) < eps).astype(np.uint8)
    v = np.zeros((trials, 2), dtype=np.uint8)
    for col, support in enumerate((s1, s2)):
        for comp, delay in support:
            v[:, col] ^= errors[:, delay, comp - 1]
    return v


def count_frequencies(counts, n):
    """Frequencies k / n of the counts (k1, k2, k11) of n rows of parities,
    of column 0, column 1 and both, and their binomial standard errors
    sqrt(p (1 - p) / n); returns (estimates, ses), each three floats."""
    # a float sum of 0/1 values is exact, so the mean is the count over n
    est = [k / n for k in counts]
    return est, [sqrt(p * (1.0 - p) / n) for p in est]


def parity_frequencies(v):
    """`count_frequencies` of an (n, 2) parity array: alpha1, alpha2 and
    alpha11 are the frequencies of its columns and of their AND."""
    import numpy as np

    return count_frequencies([np.count_nonzero(x) for x in (v[:, 0], v[:, 1], v[:, 0] & v[:, 1])],
                             len(v))


def monte_carlo_probs(code, eps, trials, seed, mode="general"):
    """Estimate alpha1, alpha2, alpha11 by pushing i.i.d. errors through the block map.

    Each trial draws a fresh error window, so the estimators are i.i.d.
    and the reported standard errors are exact binomial ones.
    """
    eps = _check_eps(eps)
    if trials < 1:
        raise ValueError("trials must be positive")
    s1, s2 = code_supports(code, mode)
    v = error_window_parities(s1, s2, eps, trials, channel.make_rng(seed))
    est, ses = parity_frequencies(v)
    return MonteCarloProbs(alpha1=est[0], alpha2=est[1], alpha11=est[2],
                           se_alpha1=ses[0], se_alpha2=ses[1], se_alpha11=ses[2])
