"""Exact parity probabilities against enumeration oracles and each other."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from sstkalman import channel, covar_mi
from sstkalman.convcode import get_code, main_encoded_block_map, make_qli
from sstkalman.parity_prob import (
    ErrorSupport,
    branch_stats,
    brute_force_joint,
    code_supports,
    joint_parity_prob,
    joint_polynomial,
    joint_value_prob,
    marginal_polynomial,
    monte_carlo_probs,
    parity_frequencies,
    parity_one_prob,
    sized_branch_stats,
    support_of,
    support_sizes,
    theta,
    theta_four_ways,
    theta_polynomial,
)
from sstkalman.qli_search import enumerate_qli

from oracles import per_support_branch_stats

supports = st.frozensets(
    st.tuples(st.integers(1, 2), st.integers(0, 5)), max_size=6
).map(ErrorSupport)
eps_values = st.floats(min_value=1e-6, max_value=0.499999)


def test_parity_one_prob_basics():
    assert parity_one_prob(0, 0.2) == 0.0
    assert_allclose(parity_one_prob(1, 0.2), 0.2)
    for n in range(8):
        q = 1 - 2 * 0.11
        assert_allclose(parity_one_prob(n, 0.11), (1 - q ** n) / 2, atol=1e-15)


def test_parity_one_prob_monotone_saturates():
    probs = [parity_one_prob(n, 0.3) for n in range(30)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert_allclose(probs[-1], 0.5, atol=1e-10)


def test_parity_one_prob_accepts_support():
    s = ErrorSupport(frozenset({(1, 0), (2, 1), (1, 2)}))
    assert_allclose(parity_one_prob(s, 0.17), parity_one_prob(3, 0.17))


@pytest.mark.parametrize("pair", [(0, 1), (1, -1)])
def test_error_support_refuses_bad_pairs(pair):
    with pytest.raises(ValueError, match="component >= 1, delay >= 0"):
        ErrorSupport({(1, 0), pair})


def test_error_support_is_the_frozenset_of_its_pairs():
    s = ErrorSupport([(np.int64(2), np.uint8(3)), (1, 0)])
    assert all(type(x) is int for pair in s for x in pair)
    assert s == frozenset({(2, 3), (1, 0)}) and hash(s) == hash(frozenset(s))
    assert s.max_delay == 3
    assert ErrorSupport().max_delay == 0


@pytest.mark.parametrize("name", ["c1", "c2"])
@pytest.mark.parametrize("mode", ["general", "qli"])
def test_code_supports_are_error_supports(name, mode):
    assert all(isinstance(s, ErrorSupport) for s in code_supports(get_code(name), mode))


def test_eps_validation():
    with pytest.raises(ValueError):
        parity_one_prob(3, -0.01)
    with pytest.raises(ValueError):
        parity_one_prob(3, 1.01)


@given(supports, supports, eps_values)
@settings(max_examples=150)
def test_joint_matches_enumeration(s1, s2, eps):
    assert_allclose(joint_parity_prob(s1, s2, eps),
                    brute_force_joint(s1, s2, eps), atol=1e-12)


@given(supports, supports, eps_values)
def test_joint_value_table_is_a_distribution(s1, s2, eps):
    cells = [joint_value_prob([s1, s2], v, eps)
             for v in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert all(c >= -1e-15 for c in cells)
    assert_allclose(sum(cells), 1.0, atol=1e-12)
    # the (1,1) cell is the joint parity probability
    assert_allclose(cells[3], joint_parity_prob(s1, s2, eps), atol=1e-12)


@given(st.integers(0, 16), eps_values)
def test_marginal_polynomial_evaluates_to_parity_prob(n, eps):
    assert_allclose(marginal_polynomial(n)(eps), parity_one_prob(n, eps), atol=1e-12)


@given(supports, supports, eps_values)
def test_joint_polynomial_evaluates_to_joint_prob(s1, s2, eps):
    poly = joint_polynomial(s1, s2)
    assert all(isinstance(c, int) for c in poly.coefficients)
    assert_allclose(poly(eps), joint_parity_prob(s1, s2, eps), atol=1e-10)


@given(supports, supports, eps_values)
def test_theta_four_expressions_agree(s1, s2, eps):
    ways = theta_four_ways(s1, s2, eps)
    assert max(ways) - min(ways) < 1e-12
    assert_allclose(theta(s1, s2, eps), ways[3], atol=1e-12)


def test_theta_sign_for_overlapping_supports():
    # shared error variables induce positive correlation between the parities
    s1 = ErrorSupport(frozenset({(1, 0), (1, 1), (2, 0)}))
    s2 = ErrorSupport(frozenset({(1, 0), (2, 1)}))
    assert theta(s1, s2, 0.1) > 0


def test_theta_zero_for_disjoint_supports():
    s1 = ErrorSupport(frozenset({(1, 0), (1, 1)}))
    s2 = ErrorSupport(frozenset({(2, 2), (2, 3)}))
    assert_allclose(theta(s1, s2, 0.23), 0.0, atol=1e-15)


def _closed_forms(s1, s2, eps):
    """Marginals, joint and theta as Fractions, straight from the supports."""
    q = 1 - 2 * eps
    a, b, c = len(s1 - s2), len(s2 - s1), len(s1 & s2)
    p1, p2 = (1 - q ** (a + c)) / 2, (1 - q ** (b + c)) / 2
    p11 = (1 + q ** (a + b) - q ** (a + c) - q ** (b + c)) / 4
    return p1, p2, p11, p11 - p1 * p2


@given(supports, supports, st.booleans())
@settings(max_examples=150)
def test_polynomials_equal_closed_forms_exactly(s1, s2, disjoint):
    if disjoint:
        s2 = ErrorSupport(s2 - s1)
    polys = (marginal_polynomial(s1), marginal_polynomial(s2),
             joint_polynomial(s1, s2), theta_polynomial(s1, s2))
    # every closed form has degree at most |s1| + |s2| in eps
    deg = len(s1) + len(s2)
    assert all(len(p.coefficients) <= deg + 1 for p in polys)
    for j in range(deg + 1):
        eps = Fraction(j, deg + 1)
        assert tuple(p(eps) for p in polys) == _closed_forms(s1, s2, eps)
    if not s1 & s2:
        assert theta_polynomial(s1, s2).coefficients == (0,)


def _joint_minus_product(p11, p1, p2):
    """Coefficients of p11 - p1 * p2 by integer convolution, trailing zeros dropped."""
    out = [0] * max(len(p11), len(p1) + len(p2) - 1)
    for k, c in enumerate(p11):
        out[k] += c
    for i, x in enumerate(p1):
        for j, y in enumerate(p2):
            out[i + j] -= x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_theta_polynomial_is_joint_minus_product_of_marginals():
    codes = [get_code("c1"), get_code("c2")]
    codes += [make_qli(row.gprime) for nu in range(3, 9) for row in enumerate_qli(nu)]
    for code in codes:
        for mode in ("general", "qli"):
            s1, s2 = code_supports(code, mode)
            want = _joint_minus_product(joint_polynomial(s1, s2).coefficients,
                                        marginal_polynomial(s1).coefficients,
                                        marginal_polynomial(s2).coefficients)
            assert theta_polynomial(s1, s2).coefficients == want, (code.name, mode)


def test_code_support_sizes():
    m1 = main_encoded_block_map(get_code("c1"))
    s1, s2 = support_of(m1, 0), support_of(m1, 1)
    assert (len(s1), len(s2)) == (5, 6)
    m2 = main_encoded_block_map(get_code("c2"))
    t1, t2 = support_of(m2, 0), support_of(m2, 1)
    assert (len(t1), len(t2)) == (12, 13)
    assert len(t1 & t2) == 9


def test_monte_carlo_probs_consistency():
    code = get_code("c1")
    eps = 0.104028637  # 2 dB operating point
    mc = monte_carlo_probs(code, eps, trials=400_000, seed=2024)
    m = main_encoded_block_map(code)
    a1 = parity_one_prob(support_of(m, 0), eps)
    a2 = parity_one_prob(support_of(m, 1), eps)
    a11 = joint_parity_prob(support_of(m, 0), support_of(m, 1), eps)
    assert abs(mc.alpha1 - a1) < 4 * mc.se_alpha1
    assert abs(mc.alpha2 - a2) < 4 * mc.se_alpha2
    assert abs(mc.alpha11 - a11) < 4 * mc.se_alpha11
    assert_allclose(a1, 0.3442, atol=1e-4)


# a column rate of 0 or 1 draws an all-zero or all-one column
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5000), rates=st.tuples(*[st.sampled_from([0.0, 0.003, 0.5, 1.0])] * 2),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, rates=(1.0, 0.0), seed=0)
@example(n=2, rates=(1.0, 1.0), seed=0)
def test_parity_frequencies_are_the_float_means_bit_for_bit(n, rates, seed):
    v = (np.random.default_rng(seed).random((n, 2)) < rates).astype(np.uint8)
    means = [float(np.mean(x)) for x in (v[:, 0], v[:, 1], v[:, 0] & v[:, 1])]
    est, ses = parity_frequencies(v)
    assert np.array(est).tobytes() == np.array(means).tobytes()
    assert ses == [float(np.sqrt(p * (1.0 - p) / n)) for p in means]


def test_branch_stats_on_support_sizes_are_the_per_support_ones():
    # every family member at nu = 3..12 and both built-in codes, in both
    # arrangements, on the grid and at both ends of RHO_RANGE: the statistics
    # on the support sizes, as `sweep` takes them once per call, are bit for
    # bit those of each statistic's own set algebra
    points = [*channel.grid_points(),
              *(channel.snr_point(10.0 * np.log10(rho)) for rho in channel.RHO_RANGE)]
    codes = [get_code("c1"), get_code("c2"),
             *(make_qli(row.gprime) for nu in range(3, 13) for row in enumerate_qli(nu))]
    assert len(codes) == 2 + 2046
    for code in codes:
        for mode in ("general", "qli"):
            s1, s2 = code_supports(code, mode)
            sizes = support_sizes(s1, s2)
            want = [per_support_branch_stats(s1, s2, pt.epsilon) for pt in points]
            assert [sized_branch_stats(sizes, pt.epsilon) for pt in points] == want
            assert [branch_stats(s1, s2, pt.epsilon) for pt in points] == want
            assert [row[3:7] for row in covar_mi.sweep(code, points, mode)] == want
