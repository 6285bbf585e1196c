"""Covariance pipeline: Sigma_x -> Sigma_r -> Sigma_c, eigenvalues, MI bounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sstkalman import channel
from sstkalman.convcode import get_code
from sstkalman.covar_mi import (
    binary_input_mi,
    bound_chain,
    code_sigma_x,
    coupled_provider,
    cov_pair,
    eigen_track,
    fixed_eps_provider,
    mi_gauss_bound,
    mi_gauss_bound_per_rho,
    mi_per_branch_bound,
    monte_carlo_sigma_r,
    sigma_c_closed_2x2,
    sigma_c_general,
    sigma_r,
    sigma_x_from_probs,
    sigma_x_from_sigma_r,
    sigma_x_prime,
    sweep,
    sweep_row,
)


def random_psd(rng, n, jitter=1e-3):
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)


psd_2x2 = st.builds(
    lambda seed: random_psd(np.random.default_rng(seed), 2),
    st.integers(0, 10_000),
)
rhos = st.floats(min_value=1e-3, max_value=50.0)


def test_sigma_x_anchor_c1_0db():
    eps = channel.snr_point(0.0).epsilon
    sx = code_sigma_x(get_code("c1"), eps)
    assert_allclose(sx[0, 0], 0.9780, atol=1e-4)
    assert_allclose(sx[1, 1], 0.9898, atol=1e-4)
    assert_allclose(sx[0, 1], 4 * 0.0758, atol=4e-4)
    assert np.all(np.linalg.eigvalsh(sx) >= 0)


def test_sigma_x_from_probs_structure():
    sx = sigma_x_from_probs(0.3, 0.4, 0.05)
    assert_allclose(sx, [[4 * 0.3 * 0.7, 0.2], [0.2, 4 * 0.4 * 0.6]])


def test_sigma_r_is_identity_plus_rho_sigma_x():
    rng = np.random.default_rng(5)
    sx = random_psd(rng, 2)
    sr = sigma_r(sx, 3.0)
    assert_allclose(sr, np.eye(2) + 3.0 * sx, atol=1e-14)
    assert_allclose(sigma_x_from_sigma_r(sr, 3.0), sx, atol=1e-12)
    # observation covariance never dips below the noise floor
    assert np.linalg.eigvalsh(sr).min() >= 1.0 - 1e-12


@given(psd_2x2, rhos)
def test_filtering_factorization(sx, rho):
    sc = sigma_c_general(sx, rho)
    sr = sigma_r(sx, rho)
    scale = max(1.0, np.abs(sx).max())
    assert np.abs(sc @ sr - sx).max() < 1e-10 * scale
    assert np.abs(sr @ sc - sx).max() < 1e-10 * scale


@given(psd_2x2, rhos)
def test_closed_form_matches_general_solve(sx, rho):
    mat, delta_x, delta_r = sigma_c_closed_2x2(sx, rho)
    assert_allclose(mat, sigma_c_general(sx, rho), atol=1e-11)
    assert_allclose(np.linalg.det(mat), delta_x / delta_r, atol=1e-11)
    assert_allclose(delta_x, np.linalg.det(sx), atol=1e-11)
    assert_allclose(delta_r, np.linalg.det(sigma_r(sx, rho)), atol=1e-9)


def test_sigma_c_general_higher_dimensions():
    rng = np.random.default_rng(11)
    for n in (1, 3, 5):
        sx = random_psd(rng, n)
        sc = sigma_c_general(sx, 2.5)
        assert_allclose(sc @ sigma_r(sx, 2.5), sx, atol=1e-12)


def test_cov_pair_bundles_the_pipeline():
    eps = 0.08
    sx = code_sigma_x(get_code("c2"), eps)
    pair = cov_pair(sx, 4.0)
    assert_allclose(pair.sigma_x, sx)
    assert_allclose(pair.sigma_r, sigma_r(sx, 4.0))
    assert_allclose(pair.sigma_c, sigma_c_general(sx, 4.0), atol=1e-12)
    assert_allclose(pair.delta_x, np.linalg.det(sx))
    assert pair.rho == 4.0


def test_eigen_track_trace_identity():
    prov = fixed_eps_provider(get_code("c1"), 0.1)
    et = eigen_track(prov, 2.0)
    sc = sigma_c_general(prov(2.0), 2.0)
    assert_allclose(sum(et.lambdas), np.trace(sc), atol=1e-12)
    assert_allclose(et.lambda_tilde_1 + et.lambda_tilde_2, np.trace(sc), atol=1e-12)
    assert et.lambdas[0] <= et.lambdas[1]


def test_eigen_track_fixed_eps_derivative_positive():
    # with the error statistics frozen, rho*lambda grows with rho
    for name in ("c1", "c2"):
        prov = fixed_eps_provider(get_code(name), 0.12)
        for rho in (0.2, 1.0, 5.0):
            et = eigen_track(prov, rho)
            assert all(d > 0 for d in et.d_rho_lambda)


def test_eigen_track_coupled_derivative_sign_flip():
    # along the operating curve the high-SNR branch turns both slopes negative
    flips = {"c1": (2, 5), "c2": (3, 6)}
    for name, (last_pos, first_neg) in flips.items():
        prov = coupled_provider(get_code(name))
        et_pos = eigen_track(prov, channel.snr_point(last_pos).rho)
        assert all(d > 0 for d in et_pos.d_rho_lambda)
        et_neg = eigen_track(prov, channel.snr_point(first_neg).rho)
        assert all(d < 0 for d in et_neg.d_rho_lambda)


def test_mi_gauss_bound_forms():
    rng = np.random.default_rng(3)
    sx = random_psd(rng, 2)
    rho = 1.7
    direct = 0.5 * np.linalg.slogdet(np.eye(2) + rho * sx)[1]
    assert_allclose(mi_gauss_bound(sx, rho), direct, atol=1e-13)
    assert_allclose(mi_gauss_bound_per_rho(sx, rho), direct / rho, atol=1e-13)


def test_mi_gauss_bound_keeps_precision_at_tiny_rho():
    # (1/2) log det(I + rho Sigma_x) = (rho/2) tr Sigma_x + O(rho^2)
    sx = random_psd(np.random.default_rng(4), 2)
    rho = 1e-30
    assert_allclose(mi_gauss_bound(sx, rho) / rho, 0.5 * np.trace(sx), rtol=1e-14)


def test_mi_gauss_bound_rejects_non_2x2():
    with pytest.raises(ValueError):
        mi_gauss_bound(np.eye(3), 1.0)


def test_bound_chain_zero_matrix():
    chain = bound_chain(np.zeros((2, 2)), 2.0)
    assert_allclose(chain.half_tr_sigma_c, 0.0)
    assert_allclose(chain.gauss_per_rho, 0.0)
    assert_allclose(chain.half_tr_sigma_x, 0.0)
    assert_allclose(chain.inv_one_plus_rho, 1 / 3)
    assert_allclose(chain.log1p_rho_over_rho, np.log(3) / 2)


def test_bound_chain_strict_on_grid():
    for name in ("c1", "c2"):
        code = get_code(name)
        for pt in channel.grid_points():
            sx = code_sigma_x(code, pt.epsilon)
            ch = bound_chain(sx, pt.rho)
            assert ch.half_tr_sigma_c < ch.gauss_per_rho < ch.half_tr_sigma_x
            assert ch.half_tr_sigma_c <= ch.inv_one_plus_rho + 1e-12
            assert ch.gauss_per_rho <= ch.log1p_rho_over_rho + 1e-12


def test_bound_chain_tightness_at_low_snr():
    # at -10 dB the code bounds collapse onto the channel bounds
    for name in ("c1", "c2"):
        pt = channel.snr_point(-10.0)
        ch = bound_chain(code_sigma_x(get_code(name), pt.epsilon), pt.rho)
        assert ch.inv_one_plus_rho - ch.half_tr_sigma_c < 1e-3
        assert ch.log1p_rho_over_rho - ch.gauss_per_rho < 1e-3


def test_binary_input_mi_limits():
    assert binary_input_mi(0.0) == 0.0
    values = [binary_input_mi(r) for r in (0.01, 0.1, 0.5, 1, 2, 5, 20, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < np.log(2) + 1e-12
    for rho, v in zip((0.01, 0.1, 0.5), values):
        assert v <= rho / 2


def test_binary_input_mi_against_quadrature():
    for rho in (0.02, 0.3, 1.0, 2.5118864315095797, 10.0):
        f = lambda y: (np.exp(-y * y / 2) / np.sqrt(2 * np.pi)
                       * (np.logaddexp(rho - np.sqrt(rho) * y,
                                       -(rho - np.sqrt(rho) * y)) - np.log(2)))
        exact = rho - quad(f, -40, 40, limit=400)[0]
        assert_allclose(binary_input_mi(rho), exact, atol=1e-9)


def test_binary_input_mi_small_rho_expansion():
    # second order coefficient is -1/4, same as the Gaussian-input curve
    rho = 0.02
    assert_allclose(binary_input_mi(rho), rho / 2 - rho ** 2 / 4, atol=2e-6)


@pytest.mark.parametrize("rho", [1e-6, 1e-10, 1e-12, 1e-30])
def test_binary_input_mi_keeps_precision_at_tiny_rho(rho):
    # 2 I(rho) / rho = 1 - rho/2 + O(rho^2) must not round away with rho
    assert abs(2.0 * binary_input_mi(rho) / rho - (1.0 - rho / 2.0)) <= 1e-9


@pytest.mark.parametrize("db", [20.0, 60.0, 100.0, 160.0, 300.0])
def test_binary_input_mi_at_high_snr(db):
    # I = log 2 - E[log1p(exp(-2 X))], X = rho + sqrt(rho) Y: the loss term
    # vanishes past 20 dB, so 2 I / rho is 2 log 2 / rho to double precision
    rho = channel.snr_point(db).rho
    f = lambda y: (np.exp(-y * y / 2) / np.sqrt(2 * np.pi)
                   * np.logaddexp(0.0, -2.0 * (rho + np.sqrt(rho) * y)))
    exact = 2.0 * (np.log(2.0) - quad(f, -np.inf, np.inf)[0]) / rho
    assert exact == pytest.approx(2.0 * np.log(2.0) / rho, rel=1e-12, abs=0.0)
    assert 2.0 * binary_input_mi(rho) / rho == pytest.approx(exact, rel=1e-9, abs=0.0)


def test_binary_input_mi_never_exceeds_the_bpsk_ceiling():
    for db in range(-60, 401):
        assert binary_input_mi(channel.snr_point(db).rho) <= np.log(2.0)


def test_mi_per_branch_bound_picks_the_min():
    code = get_code("c1")
    pt = channel.snr_point(10.0)
    pair = cov_pair(code_sigma_x(code, pt.epsilon), pt.rho)
    bound = mi_per_branch_bound(pair.sigma_x, pt.rho)
    gauss = mi_gauss_bound_per_rho(pair.sigma_x, pt.rho)
    binary = 2 * binary_input_mi(pt.rho) / pt.rho
    assert_allclose(bound, min(gauss, binary), atol=1e-13)
    assert bound == pytest.approx(gauss)  # Gaussian side is active at 10 dB
    assert_allclose(gauss, 0.0152, atol=1e-3)


def test_sigma_x_prime_trace_never_exceeds_general():
    for name in ("c1", "c2"):
        code = get_code(name)
        for pt in channel.grid_points():
            tr_g = np.trace(code_sigma_x(code, pt.epsilon))
            tr_q = np.trace(sigma_x_prime(code, pt.epsilon))
            assert tr_q <= tr_g + 1e-12


def test_sigma_x_prime_anchor():
    eps = channel.snr_point(0.0).epsilon
    assert_allclose(0.5 * np.trace(sigma_x_prime(get_code("c1"), eps)),
                    0.9713, atol=1e-3)


def test_sweep_row_consistency():
    row = sweep_row(get_code("c1"), channel.snr_point(0.0))
    assert_allclose(row.rho, 1.0)
    assert_allclose(row.alpha1, 0.4259, atol=1e-3)
    assert_allclose(row.half_tr_sigma_x,
                    0.5 * (row.sigma1_sq + row.sigma2_sq), atol=1e-12)
    assert_allclose(row.rho_lambda_max, row.rho * row.lambda_t2, atol=1e-12)
    assert row.lambda_t1 <= row.lambda_t2
    assert_allclose(row.two_I_over_rho, 2 * binary_input_mi(row.rho) / row.rho,
                    atol=1e-12)


def test_sweep_grid_shape():
    rows = sweep(get_code("c2"))
    assert len(rows) == 21
    assert [r.ebn0_db for r in rows] == list(channel.DB_GRID)
    code = get_code("c2")
    for r in sweep(code, mode="qli"):
        assert r.half_tr_sigma_x == 0.5 * np.trace(sigma_x_prime(code, r.epsilon))


def test_monte_carlo_sigma_r_agrees_with_analytic():
    code = get_code("c1")
    pt = channel.snr_point(4.0)
    hat, se = monte_carlo_sigma_r(code, pt, trials=150_000, seed=99)
    ref = sigma_r(code_sigma_x(code, pt.epsilon), pt.rho)
    assert np.all(np.abs(hat - ref) <= 4 * se + 1e-9)
