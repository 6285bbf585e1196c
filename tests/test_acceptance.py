"""Acceptance suite: reproduction of the published tables and identities.

Each test pins one acceptance criterion.  Comparisons against published
numbers use the stated absolute tolerances; columns that the original
tables derived from their own rounded entries (the rho-scaled eigenvalue
columns and the rho-scaled trace column) are checked through the same
product of published inputs, since the rounding there amplifies by rho.
The suite holds no test that is expected to fail.  For the nu = 2 code the
published figure's crossover window (1 dB to 2 dB) disagrees with the
paper's own bound table; criterion 7 checks the window that the table
gives (see test_criterion7_crossover_c1_published_window).
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from sstkalman import channel, covar_mi, kalman, parity_prob, qli_search
from sstkalman.convcode import get_code
from sstkalman.parity_prob import (
    ErrorSupport,
    joint_polynomial,
    marginal_polynomial,
    theta_four_ways,
)

from reference_tables import (
    BOUND_ROWS_C1,
    BOUND_ROWS_C2,
    EIGEN_ROWS_C1,
    EIGEN_ROWS_C2,
    POLY_ALPHA1_C1,
    POLY_ALPHA1_C2,
    POLY_ALPHA11_C1,
    POLY_ALPHA11_C2,
    POLY_ALPHA2_C1,
    POLY_ALPHA2_C2,
    QLI_SIGMA_ROWS_C1,
    QLI_SIGMA_ROWS_C2,
    SEARCH_ROWS_NU5,
    SEARCH_ROWS_NU6,
    SIGMA_ROWS_C1,
    SIGMA_ROWS_C2,
)

TABLE_ATOL = 1e-3


# ---------------------------------------------------------------- criterion 1

def test_criterion1_polynomials_exact():
    start = time.perf_counter()
    s1_c1, s2_c1 = covar_mi.code_supports(get_code("c1"), "general")
    s1_c2, s2_c2 = covar_mi.code_supports(get_code("c2"), "general")
    got = {
        "a1_c1": marginal_polynomial(len(s1_c1)).coefficients,
        "a2_c1": marginal_polynomial(len(s2_c1)).coefficients,
        "a11_c1": joint_polynomial(s1_c1, s2_c1).coefficients,
        "a1_c2": marginal_polynomial(len(s1_c2)).coefficients,
        "a2_c2": marginal_polynomial(len(s2_c2)).coefficients,
        "a11_c2": joint_polynomial(s1_c2, s2_c2).coefficients,
    }
    elapsed = time.perf_counter() - start
    assert list(got["a1_c1"]) == list(POLY_ALPHA1_C1)
    assert list(got["a2_c1"]) == list(POLY_ALPHA2_C1)
    assert list(got["a11_c1"]) == list(POLY_ALPHA11_C1)
    assert list(got["a1_c2"]) == list(POLY_ALPHA1_C2)
    assert list(got["a2_c2"]) == list(POLY_ALPHA2_C2)
    assert list(got["a11_c2"]) == list(POLY_ALPHA11_C2)
    for coeffs in got.values():
        assert all(float(c) == int(c) for c in coeffs)
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2

@pytest.mark.parametrize("name,table", [("c1", SIGMA_ROWS_C1),
                                        ("c2", SIGMA_ROWS_C2)])
def test_criterion2_error_statistics_tables(name, table):
    rows = covar_mi.sweep(get_code(name))
    assert len(rows) == len(table) == 21
    for row, ref in zip(rows, table):
        assert row.ebn0_db == ref[0]
        got = (row.alpha1, row.sigma1_sq, row.alpha2, row.sigma2_sq,
               row.theta12, row.half_tr_sigma_x)
        assert_allclose(got, ref[1:], atol=TABLE_ATOL)


def test_criterion2_anchor():
    row = covar_mi.sweep_row(get_code("c1"), channel.snr_point(0.0))
    assert round(row.alpha1, 4) == 0.4259


# ---------------------------------------------------------------- criterion 3

@pytest.mark.parametrize("name,table", [("c1", EIGEN_ROWS_C1),
                                        ("c2", EIGEN_ROWS_C2)])
def test_criterion3_eigenvalue_tables(name, table):
    code = get_code(name)
    for ref in table:
        db, rho_print, lt1, lt2, rlt1, rlt_max = ref
        pt = channel.snr_point(db)
        sx = covar_mi.code_sigma_x(code, pt.epsilon)
        mat, _, _ = covar_mi.sigma_c_closed_2x2(sx, pt.rho)
        lam = np.sort(np.linalg.eigvalsh(mat))
        # the eigenvalues themselves reproduce the printed columns
        assert_allclose(pt.rho, rho_print, atol=TABLE_ATOL)
        assert_allclose(lam[0], lt1, atol=TABLE_ATOL)
        assert_allclose(lam[1], lt2, atol=TABLE_ATOL)
        # the printed rho-scaled columns are the product of the printed
        # inputs; checked through that product because rho (up to 10)
        # amplifies the last printed digit of lambda beyond 1e-3
        assert_allclose(rho_print * lt1, rlt1, atol=TABLE_ATOL)
        assert_allclose(rho_print * lt2, rlt_max, atol=TABLE_ATOL)
        assert_allclose(pt.rho * lam[0], rlt1, atol=2e-3)
        assert_allclose(pt.rho * lam[1], rlt_max, atol=2e-3)
        # stability margin holds in exact arithmetic at every row
        assert pt.rho * lam[1] < 1.0


def test_criterion3_anchor():
    pt = channel.snr_point(10.0)
    sx = covar_mi.code_sigma_x(get_code("c2"), pt.epsilon)
    lam_max = np.linalg.eigvalsh(covar_mi.sigma_c_closed_2x2(sx, pt.rho)[0])[-1]
    assert_allclose(pt.rho * lam_max, 0.3970, atol=TABLE_ATOL)


# ---------------------------------------------------------------- criterion 4

@pytest.mark.parametrize("name,table", [("c1", BOUND_ROWS_C1),
                                        ("c2", BOUND_ROWS_C2)])
def test_criterion4_bound_tables(name, table):
    code = get_code(name)
    for ref in table:
        db = ref[0]
        pt = channel.snr_point(db)
        ch = covar_mi.bound_chain(covar_mi.code_sigma_x(code, pt.epsilon),
                                  pt.rho)
        got = (ch.half_tr_sigma_c, ch.inv_one_plus_rho, ch.gauss_per_rho,
               ch.log1p_rho_over_rho, ch.half_tr_sigma_x)
        assert_allclose(got, ref[2:], atol=TABLE_ATOL)
        # first column is rho/2 tr(Sigma_c); the printed value is the
        # product of the printed rho and the printed tr column
        rho_print = round(pt.rho, 4)
        assert_allclose(rho_print * ref[2], ref[1], atol=TABLE_ATOL)
        assert_allclose(pt.rho * ch.half_tr_sigma_c, ref[1], atol=1.25e-3)


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_criterion4_strict_chain_on_grid(name):
    code = get_code(name)
    for pt in channel.grid_points():
        ch = covar_mi.bound_chain(covar_mi.code_sigma_x(code, pt.epsilon),
                                  pt.rho)
        assert ch.half_tr_sigma_c < ch.gauss_per_rho < ch.half_tr_sigma_x
        assert ch.half_tr_sigma_c <= ch.inv_one_plus_rho + 1e-12
        assert ch.gauss_per_rho <= ch.log1p_rho_over_rho + 1e-12


def test_criterion4_anchor_row():
    pt = channel.snr_point(0.0)
    ch = covar_mi.bound_chain(covar_mi.code_sigma_x(get_code("c1"),
                                                    pt.epsilon), pt.rho)
    got = (ch.half_tr_sigma_c, ch.inv_one_plus_rho, ch.gauss_per_rho,
           ch.log1p_rho_over_rho, ch.half_tr_sigma_x)
    assert_allclose(got, (0.4839, 0.5000, 0.6732, 0.6931, 0.9839),
                    atol=TABLE_ATOL)
    assert ch.inv_one_plus_rho == 0.5


# ---------------------------------------------------------------- criterion 5

@pytest.mark.parametrize("name,table", [("c1", QLI_SIGMA_ROWS_C1),
                                        ("c2", QLI_SIGMA_ROWS_C2)])
def test_criterion5_qli_tables(name, table):
    rows = covar_mi.sweep(get_code(name), mode="qli")
    assert len(rows) == len(table) == 21
    for row, ref in zip(rows, table):
        got = (row.alpha1, row.sigma1_sq, row.alpha2,
               row.sigma2_sq, row.half_tr_sigma_x)
        assert_allclose(got, ref[1:], atol=TABLE_ATOL)


@pytest.mark.parametrize("name", ["c1", "c2"])
def test_criterion5_qli_trace_never_larger(name):
    code = get_code(name)
    for pt in channel.grid_points():
        tr_general = np.trace(covar_mi.code_sigma_x(code, pt.epsilon))
        tr_qli = np.trace(covar_mi.sigma_x_prime(code, pt.epsilon))
        assert tr_qli <= tr_general + 1e-12


# ---------------------------------------------------------------- criterion 6

def test_criterion6_search_tables_exact():
    for nu, table in ((5, SEARCH_ROWS_NU5), (6, SEARCH_ROWS_NU6)):
        rows = qli_search.enumerate_qli(nu)
        assert len(rows) == len(table)
        for row, ref in zip(rows, table):
            bits = "".join(str(b) for b in row.c_bits)
            assert (bits, row.m1_alpha, row.m2_alpha, row.m1_beta,
                    row.m2_beta, row.heuristic_counterexample) == ref


def test_criterion6_counterexample_rows_flagged():
    flagged = [(nu, "".join(str(b) for b in row.c_bits))
               for nu in (5, 6)
               for row in qli_search.enumerate_qli(nu)
               if row.heuristic_counterexample]
    assert flagged == [(5, "111"), (6, "1100"), (6, "1110")]


# ---------------------------------------------------------------- criterion 7

def binary_curve(rho):
    return 2.0 * covar_mi.binary_input_mi(rho) / rho


def gauss_minus_binary(code, db):
    pt = channel.snr_point(db)
    sx = covar_mi.code_sigma_x(code, pt.epsilon)
    return covar_mi.mi_gauss_bound_per_rho(sx, pt.rho) - binary_curve(pt.rho)


def test_criterion7_crossover_c2():
    code = get_code("c2")
    assert gauss_minus_binary(code, 5.0) > 0
    assert gauss_minus_binary(code, 6.0) < 0


# The published figure places the c1 crossover between 1 dB and 2 dB.  The
# paper's own c1 bound table contradicts that reading: its gauss_bound
# column minus 2 I(rho)/rho is already negative at 0 dB.
C1_FIGURE_WINDOW_DB = (1.0, 2.0)
# gauss_bound is printed to four decimals
TABLE_ROUND_HALF = 5e-5


def test_criterion7_crossover_c1_published_window():
    table_gap = {ref[0]: ref[4] - binary_curve(channel.snr_point(ref[0]).rho)
                 for ref in BOUND_ROWS_C1}
    # the signs from -1 dB through the figure's window are settled beyond
    # the table's rounding, so that window holds no sign change
    assert table_gap[-1] > TABLE_ROUND_HALF
    for db in (0, *C1_FIGURE_WINDOW_DB):
        assert table_gap[db] < -TABLE_ROUND_HALF
    # the tabulated gap changes sign once on the 21-row grid, from -1 to 0 dB
    dbs = [ref[0] for ref in BOUND_ROWS_C1]
    assert len(dbs) == 21
    changes = [(lo, hi) for lo, hi in zip(dbs, dbs[1:])
               if (table_gap[lo] > 0) != (table_gap[hi] > 0)]
    assert changes == [(-1, 0)]
    # the exact curves cross inside the bracket that the table gives
    lo, hi = changes[0]
    code = get_code("c1")
    root = brentq(lambda db: gauss_minus_binary(code, db), lo, hi)
    assert lo < root < hi


def test_criterion7_crossover_c1_exact_location():
    code = get_code("c1")
    assert gauss_minus_binary(code, -1.0) > 0
    assert gauss_minus_binary(code, 0.0) < 0
    # like the paper's table, the exact curves hold no sign change in the
    # figure's window
    assert gauss_minus_binary(code, 1.0) < 0
    assert gauss_minus_binary(code, 2.0) < 0


# ---------------------------------------------------------------- criterion 8

def test_criterion8_monte_carlo_consistency():
    code = get_code("c1")
    start = time.perf_counter()
    for db in (0.0, 4.0):
        pt = channel.snr_point(db)
        s1, s2 = covar_mi.code_supports(code, "general")
        mc = parity_prob.monte_carlo_probs(code, pt.epsilon,
                                           trials=1_000_000, seed=42)
        a1 = parity_prob.parity_one_prob(s1, pt.epsilon)
        a2 = parity_prob.parity_one_prob(s2, pt.epsilon)
        a11 = parity_prob.joint_parity_prob(s1, s2, pt.epsilon)
        assert abs(mc.alpha1 - a1) <= 3 * mc.se_alpha1
        assert abs(mc.alpha2 - a2) <= 3 * mc.se_alpha2
        assert abs(mc.alpha11 - a11) <= 3 * mc.se_alpha11
        sigma_hat, se = covar_mi.monte_carlo_sigma_r(code, pt,
                                                     trials=1_000_000, seed=7)
        sigma_ref = covar_mi.sigma_r(covar_mi.code_sigma_x(code, pt.epsilon),
                                     pt.rho)
        assert np.all(np.abs(sigma_hat - sigma_ref) <= 3 * se)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------- criterion 9

def test_criterion9_kalman_identity_suite():
    for seed in range(20):
        n = 1 + seed % 4
        steps = 3 + seed % 8
        model = kalman.random_model(seed, n)
        obs = kalman.simulate_observations(model, steps, seed=seed + 100)
        trace = kalman.run_filter(model, obs)
        for k in range(steps):
            proj = kalman.projection_smoothed_estimate(model, obs, k, k)
            assert np.max(np.abs(trace[k].xhat_filt - proj)) < 1e-9
        k_last = steps - 1
        mi = kalman.gaussian_mi(model, k_last)
        joint = kalman.joint_observation_covariance(model, k_last)
        noise = sum(np.linalg.slogdet(np.atleast_2d(model.W_k(j)))[1]
                    for j in range(steps))
        assert abs(mi - 0.5 * (np.linalg.slogdet(joint)[1] - noise)) < 1e-9

        k_mid = steps // 2
        prev = trace[k_mid].M_k
        assert np.linalg.eigvalsh(prev - trace[k_mid].P_k).min() >= -1e-9
        prev = trace[k_mid].P_k
        for b in range(k_mid, steps):
            cov = kalman.smoother_cov(model, trace, k_mid, b)
            proj_cov = kalman.projection_smoother_cov(model, k_mid, b)
            assert np.max(np.abs(cov - proj_cov)) < 1e-9
            assert np.linalg.eigvalsh(prev - cov).min() >= -1e-9
            prev = cov


# --------------------------------------------------------------- criterion 10

N_INSTANCES = 1000
IDENT_TOL = 1e-10


def random_psd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T) / n + 1e-3 * np.eye(n)


def random_support(rng):
    size = rng.integers(1, 7)
    vars_ = {(int(rng.integers(1, 3)), int(rng.integers(0, 6)))
             for _ in range(size)}
    return ErrorSupport(frozenset(vars_))


def test_criterion10_log_det_trace_inequality():
    rng = np.random.default_rng(101)
    for _ in range(N_INSTANCES):
        m = random_psd(rng, int(rng.integers(1, 5)))
        rho = float(rng.uniform(1e-3, 10.0))
        logdet = np.linalg.slogdet(np.eye(m.shape[0]) + rho * m)[1]
        assert logdet <= rho * np.trace(m) + IDENT_TOL


def test_criterion10_filtering_factorization():
    rng = np.random.default_rng(102)
    for _ in range(N_INSTANCES):
        sx = random_psd(rng, int(rng.integers(1, 5)))
        rho = float(rng.uniform(1e-3, 10.0))
        sc = covar_mi.sigma_c_general(sx, rho)
        sr = covar_mi.sigma_r(sx, rho)
        assert np.max(np.abs(sc @ sr - sx)) < IDENT_TOL
        assert np.max(np.abs(sr @ sc - sx)) < IDENT_TOL


def test_criterion10_information_form_identity():
    rng = np.random.default_rng(103)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = random_psd(rng, n) + np.eye(n)
        b = random_psd(rng, m) + np.eye(m)
        c = rng.normal(size=(m, n))
        lhs = kalman.information_form_inverse(a, b, c)
        rhs = np.linalg.inv(np.linalg.inv(a) + c.T @ np.linalg.inv(b) @ c)
        assert np.max(np.abs(lhs - rhs)) < IDENT_TOL


def test_criterion10_determinant_ratio():
    rng = np.random.default_rng(104)
    for _ in range(N_INSTANCES):
        sx = random_psd(rng, 2)
        rho = float(rng.uniform(1e-3, 10.0))
        mat, delta_x, delta_r = covar_mi.sigma_c_closed_2x2(sx, rho)
        assert abs(np.linalg.det(mat) - delta_x / delta_r) < IDENT_TOL


def test_criterion10_theta_four_ways():
    rng = np.random.default_rng(105)
    for _ in range(N_INSTANCES):
        ways = theta_four_ways(random_support(rng), random_support(rng),
                               float(rng.uniform(1e-6, 0.499999)))
        assert max(ways) - min(ways) < IDENT_TOL
