"""Covariance pipeline: Sigma_x -> Sigma_r -> Sigma_c, eigenvalues, MI bounds."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from sstkalman import channel, cli, kalman, parity_prob
from sstkalman.convcode import get_code
from sstkalman.covar_mi import (
    _lambda_tilde,
    binary_input_mi,
    bound_chain,
    code_sigma_x,
    cov_pair,
    eigen_track,
    mi_gauss_bound,
    mi_gauss_bound_per_rho,
    mi_per_branch_bound,
    monte_carlo_sigma_r,
    sigma_c_closed_2x2,
    sigma_c_general,
    sigma_r,
    sigma_x_from_probs,
    sigma_x_prime,
    sweep,
    sweep_row,
)
from sstkalman.sstdec import sample_sigma_r, sigma_r_given_parities


RHO_ENDS_DB = tuple(10.0 * np.log10(channel.RHO_RANGE))


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


def fixed_eps_provider(code, eps, mode="general"):
    """Provider that holds the crossover probability fixed as rho varies."""
    const = code_sigma_x(code, eps, mode)
    return lambda rho: const


def coupled_provider(code, mode="general"):
    """Provider that couples eps = Q(sqrt(rho)) to rho, as on the Eb/N0 grid."""
    def prov(rho):
        return code_sigma_x(code, channel.q_function(math.sqrt(rho)), mode)
    return prov


def test_eigen_track_trace_identity():
    prov = fixed_eps_provider(get_code("c1"), 0.1)
    et = eigen_track(prov, 2.0)
    sc = sigma_c_general(prov(2.0), 2.0)
    assert_allclose(sum(et.lambdas), np.trace(sc), atol=1e-12)
    assert_allclose(et.lambda_tilde_1 + et.lambda_tilde_2, np.trace(sc), atol=1e-12)
    assert et.lambdas[0] <= et.lambdas[1]


def test_eigen_track_reads_the_closed_form():
    for name in ("c1", "c2"):
        for mode in ("general", "qli"):
            prov = fixed_eps_provider(get_code(name), 0.1, mode)
            et = eigen_track(prov, 2.0)
            lam = np.linalg.eigvalsh(sigma_c_closed_2x2(prov(2.0), 2.0)[0])
            assert et.lambdas == tuple(float(v) for v in lam)


def test_eigen_track_refuses_a_non_2x2_provider():
    with pytest.raises(ValueError, match="Sigma_x must be 2x2"):
        eigen_track(lambda rho: np.eye(3), 1.0)


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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("entry", [sigma_c_closed_2x2, mi_gauss_bound, bound_chain],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("sigma_x, rho, message", [
    (np.eye(2), -0.7, "rho must be finite and non-negative"),
    (np.eye(2), NAN, "rho must be finite and non-negative"),
    (np.eye(2), INF, "rho must be finite and non-negative"),
    ([[NAN, 0.0], [0.0, 1.0]], 2.0, "Sigma_x must be finite"),
    ([[1.0, INF], [INF, 1.0]], 2.0, "Sigma_x must be finite"),
    ([[1.0, 0.5], [-3.0, 1.0]], 2.0, "Sigma_x must be symmetric"),
    ([[-0.1, 0.0], [0.0, 1.0]], 2.0, "Sigma_x must have a non-negative diagonal"),
    ([[1.0, 0.0], [0.0, -1e-300]], 2.0, "Sigma_x must have a non-negative diagonal"),
    ([[0.0, 1.0], [1.0, 0.0]], 1.0, "I \\+ rho Sigma_x must be positive definite"),
])
def test_closed_form_entry_points_refuse_bad_arguments(entry, sigma_x, rho, message):
    with pytest.raises(ValueError, match=message):
        entry(sigma_x, rho)


def test_closed_form_takes_rho_zero_and_a_rounded_singular_sigma_x():
    sx = random_psd(np.random.default_rng(6), 2)
    mat, _, delta_r = sigma_c_closed_2x2(sx, 0.0)
    np.testing.assert_array_equal(mat, sx)
    assert delta_r == 1.0 and mi_gauss_bound(sx, 0.0) == 0.0
    # the rank-one v v^T, v = (0.7, 0.9), whose determinant rounds below 0
    v = np.array([0.7, 0.9])
    rank_one = np.outer(v, v)
    assert rank_one[0, 0] * rank_one[1, 1] - rank_one[0, 1] ** 2 < 0.0
    ch = bound_chain(rank_one, 2.0)
    assert ch.half_tr_sigma_c < ch.gauss_per_rho < ch.half_tr_sigma_x


def test_bound_chains_compare_and_hash_by_their_five_bounds():
    sx = code_sigma_x(get_code("c1"), 0.1)
    chain, again = bound_chain(sx, 2.0), bound_chain(sx.copy(), 2.0)
    assert chain.sigma_c is not again.sigma_c
    assert chain == again and not chain != again
    assert hash(chain) == hash(again) == hash(tuple(chain)[:5])
    other = bound_chain(sx, 3.0)
    assert chain != other and not chain == other
    assert chain != tuple(chain)[:5]
    assert repr(chain).startswith("BoundChain(half_tr_sigma_c=")


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


@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_bound_chain_reads_the_closed_form_bit_for_bit(name, mode):
    code = get_code(name)
    for db in [*range(-10, 11), -300.0, 300.0]:
        pt = channel.snr_point(db)
        sx = code_sigma_x(code, pt.epsilon, mode)
        ch = bound_chain(sx, pt.rho)
        sigma_c = sigma_c_closed_2x2(sx, pt.rho)[0]
        assert ch.half_tr_sigma_c == 0.5 * float(np.trace(sigma_c))
        assert ch.gauss_per_rho == mi_gauss_bound_per_rho(sx, pt.rho)
        np.testing.assert_array_equal(ch.sigma_c, sigma_c)


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


def test_sweep_row_consistency(capsys):
    row = sweep_row(get_code("c1"), channel.snr_point(0.0))
    assert_allclose(row.rho, 1.0)
    assert_allclose(row.alpha1, 0.4259, atol=1e-3)
    assert_allclose(row.half_tr_sigma_x,
                    0.5 * (row.sigma1_sq + row.sigma2_sq), atol=1e-12)
    assert_allclose(row.rho_lambda_max, row.rho * row.lambda_t2, atol=1e-12)
    assert row.lambda_t1 <= row.lambda_t2
    # 2 I(rho) / rho depends on rho alone: curves adds it to the row it prints
    assert cli.main(["curves", "--code", "c1", "--ebn0-db=0", "--format", "json"]) == 0
    [printed] = json.loads(capsys.readouterr().out)["rows"]
    assert printed["rho"] == row.rho
    assert_allclose(printed["two_I_over_rho"], 2 * binary_input_mi(row.rho) / row.rho,
                    atol=1e-12)


def test_sweep_grid_shape():
    rows = sweep(get_code("c2"))
    assert len(rows) == 21
    assert [r.ebn0_db for r in rows] == list(channel.DB_GRID)
    code = get_code("c2")
    for r in sweep(code, mode="qli"):
        assert r.half_tr_sigma_x == 0.5 * np.trace(sigma_x_prime(code, r.epsilon))


def test_sweep_at_negative_zero_db_prints_0():
    [row] = sweep(get_code("c1"), [channel.snr_point(-0.0)])
    assert math.copysign(1.0, row.ebn0_db) == 1.0
    assert cli.format_cell(row.ebn0_db) == "0"
    assert row == sweep(get_code("c1"), [channel.snr_point(0.0)])[0]


def test_monte_carlo_sigma_r_agrees_with_analytic():
    code = get_code("c1")
    pt = channel.snr_point(4.0)
    hat, se = monte_carlo_sigma_r(code, pt, trials=150_000, seed=99)
    ref = sigma_r(code_sigma_x(code, pt.epsilon), pt.rho)
    assert np.all(np.abs(hat - ref) <= 4 * se + 1e-9)


@pytest.mark.parametrize("db", [-4.0, 4.0, 9.0])
def test_sample_sigma_r_se_matches_the_replicate_spread(db):
    # 3000 replicate samples of 400 rows: the spread of their Sigma_r_hat
    # is known to about 1.3%, and at 9 dB a sample holds ~10 parity events
    code, pt, n, reps = get_code("c2"), channel.snr_point(db), 400, 3000
    supports = parity_prob.code_supports(code, "general")
    gen = channel.make_rng(2024)
    v = parity_prob.error_window_parities(*supports, pt.epsilon, reps * n, gen)
    w = channel.standard_normals(gen, (reps * n, 2))
    probs = parity_prob.branch_stats(*supports, pt.epsilon)[:3]
    hats = [sample_sigma_r(v[k:k + n], w[k:k + n], pt, probs)[0]
            for k in range(0, reps * n, n)]
    se = sample_sigma_r(v[:n], w[:n], pt, probs)[1]
    assert_allclose(se, np.std(hats, axis=0, ddof=1), rtol=0.05)


@pytest.mark.parametrize("db", [-4.0, 4.0, 9.0])
def test_sigma_r_given_parities_matches_the_spread_over_w(db):
    # one sample of 400 rows of v, and 3000 replicate draws of its w
    code, pt, n, reps = get_code("c2"), channel.snr_point(db), 400, 3000
    supports = parity_prob.code_supports(code, "general")
    gen = channel.make_rng(2025)
    v = parity_prob.error_window_parities(*supports, pt.epsilon, n, gen)
    w = channel.standard_normals(gen, (reps * n, 2))
    probs = parity_prob.branch_stats(*supports, pt.epsilon)[:3]
    hats = [sample_sigma_r(v, w[k:k + n], pt, probs)[0] for k in range(0, reps * n, n)]
    a1, a2 = v.mean(axis=0)
    mean, se = map(np.array, sigma_r_given_parities(a1, a2, (v[:, 0] & v[:, 1]).mean(), n,
                                                    pt.rho))
    assert np.all(np.abs(np.mean(hats, axis=0) - mean) < 4 * se / np.sqrt(reps))
    assert_allclose(se, np.std(hats, axis=0, ddof=1), rtol=0.05)


def numpy_sigma_r_given_parities(a1, a2, a11, n, rho):
    """Oracle of `sigma_r_given_parities`: its array form, before its
    arithmetic moved to Python floats."""
    s = n / (n - 1) * sigma_x_from_probs(a1, a2, a11 - a1 * a2)
    d = np.diag(s)
    # near the top rho, rho S may pass the largest double: inf, as in floats
    with np.errstate(over="ignore"):
        var = (1.0 + np.eye(2)) * (rho * (d[:, None] + d) + 1.0) / (n - 1)
        return sigma_r(s, rho), np.sqrt(var)


# frequencies k / n of counts from none to all rows, at both ends of rho
@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 100_000), counts=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       db=st.one_of(st.sampled_from([*RHO_ENDS_DB, -10.0, 0.0, 13.0, 300.0]),
                    st.floats(-40.0, 40.0)))
@example(n=2, counts=(0.0, 1.0, 0.0), db=0.0)
@example(n=83, counts=(1.0, 1.0, 1.0), db=RHO_ENDS_DB[1])
@example(n=2, counts=(0.5, 0.5, 1.0), db=RHO_ENDS_DB[1])
def test_sigma_r_given_parities_equals_its_array_form_bit_for_bit(n, counts, db):
    k1, k2 = (round(f * n) for f in counts[:2])
    a1, a2, a11 = k1 / n, k2 / n, round(counts[2] * min(k1, k2)) / n
    # a Python float, as simulate's rows hold it: float arithmetic overflows to inf silently
    rho = channel.snr_point(float(db)).rho
    got = sigma_r_given_parities(a1, a2, a11, n, rho)
    want = numpy_sigma_r_given_parities(a1, a2, a11, n, rho)
    assert [np.array(a).tobytes() for a in got] == [a.tobytes() for a in want]


# a column rate of 0 or 1 draws an all-zero or all-one column; 300 dB puts
# c at ~3e7, where centring c (1 - 2v) and w apart matters
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5000), rates=st.tuples(*[st.sampled_from([0.0, 0.003, 0.5, 1.0])] * 2),
       db=st.sampled_from([-10.0, 0.0, 7.0, 300.0]), seed=st.integers(0, 2**32 - 1))
@example(n=2, rates=(0.0, 1.0), db=7.0, seed=0)
@example(n=2, rates=(0.5, 0.5), db=300.0, seed=3)
def test_sample_sigma_r_equals_the_broadcast_centring_bit_for_bit(n, rates, db, seed):
    gen = np.random.default_rng(seed)
    v = (gen.random((n, 2)) < rates).astype(np.uint8)
    w = gen.standard_normal((n, 2))
    pt = channel.snr_point(db)
    xt = 1.0 - 2.0 * v.astype(np.float64)
    centered = pt.c * (xt - xt.mean(axis=0)) + (w - w.mean(axis=0))
    probs = parity_prob.branch_stats(*parity_prob.code_supports(get_code("c1")), pt.epsilon)
    hat = sample_sigma_r(v, w, pt, probs[:3])[0]
    assert hat.tobytes() == ((centered.T @ centered) / (n - 1)).tobytes()


def numpy_sample_sigma_r(v, w, point, probs):
    """Oracle of `sample_sigma_r`: its numpy form before the C row pass,
    which centres one strided column at a time."""
    n = len(v)
    w_mean = w.mean(axis=0)
    centered = np.empty((n, 2))
    for j in range(2):
        m = (n - 2 * np.count_nonzero(v[:, j])) / n
        centered[:, j] = (np.where(v[:, j], point.c * (-1.0 - m), point.c * (1.0 - m))
                          + (w[:, j] - w_mean[j]))
    sigma_hat = (centered.T @ centered) / (n - 1)
    a1, a2, a11 = probs
    p = np.array([1.0 - a1 - a2 + a11, a2 - a11, a1 - a11, a11])
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])[p > 0.0]
    p = p[p > 0.0]
    u = point.c * (x - p @ x)
    cov, fourth = (u.T * p) @ u, ((u * u).T * p) @ (u * u)
    m2 = np.diag(cov)
    var = fourth - cov * cov + (1.0 + np.eye(2)) * (m2[:, None] + m2 + 1.0)
    return sigma_hat, np.sqrt(var / n)


# simulate's rows are v[stride::stride] of a C-ordered (m, 2) uint8 block
@pytest.mark.parametrize("stride", range(1, 13))
def test_sample_sigma_r_equals_the_numpy_centring_bit_for_bit(stride):
    gen = np.random.default_rng(stride)
    for n, rate, db in itertools.product([2, 3, 40, 1249, 4999, 25_000],
                                         [0.0, 0.003, 0.2, 0.5, 1.0],
                                         [*RHO_ENDS_DB, -10.0, 4.0, 300.0]):
        # at the top end eps is 0, so v is constant; c (1 - 2v) of any other
        # v would square past the largest double in both forms
        if db > 1000.0 and rate not in (0.0, 1.0):
            continue
        block = (gen.random((n * stride + stride, 2)) < rate).astype(np.uint8)
        v = block[stride::stride]
        w = channel.standard_normals(gen, (n, 2))
        pt = channel.snr_point(db)
        probs = parity_prob.branch_stats(*parity_prob.code_supports(get_code("c2")),
                                         pt.epsilon)[:3]
        got, want = sample_sigma_r(v, w, pt, probs), numpy_sample_sigma_r(v, w, pt, probs)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (n, rate, db)


def assert_row_is_the_closed_form(code, mode, row):
    """Every chain field of a SweepRow equals (==) the array entry points on
    code_sigma_x at the row's point."""
    pt = channel.snr_point(row.ebn0_db)
    sx = code_sigma_x(code, pt.epsilon, mode)
    ch = bound_chain(sx, pt.rho)
    sigma_c = sigma_c_closed_2x2(sx, pt.rho)[0]
    lt1, lt2 = _lambda_tilde(sigma_c[0, 0], sigma_c[1, 1], sigma_c[0, 1])
    assert (row.sigma1_sq, row.sigma2_sq, 4.0 * row.theta12) == (sx[0, 0], sx[1, 1], sx[0, 1])
    assert row.half_tr_sigma_x == ch.half_tr_sigma_x
    assert row.half_tr_sigma_c == ch.half_tr_sigma_c == 0.5 * float(np.trace(sigma_c))
    assert row.half_rho_tr_sigma_c == pt.rho * ch.half_tr_sigma_c
    assert row.gauss_bound == ch.gauss_per_rho == mi_gauss_bound_per_rho(sx, pt.rho)
    assert row.inv_1p_rho == ch.inv_one_plus_rho
    assert row.log1p_rho_over_rho == ch.log1p_rho_over_rho
    assert (row.lambda_t1, row.lambda_t2) == (lt1, lt2)
    assert (row.rho_lambda_t1, row.rho_lambda_max) == (pt.rho * lt1, pt.rho * lt2)


@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_sweep_rows_are_the_closed_form_bit_for_bit(name, mode):
    code = get_code(name)
    rows = sweep(code, [channel.snr_point(db)
                        for db in (*channel.DB_GRID, -300.0, 300.0, -3076.5, 3076.5)], mode)
    for row in rows:
        assert_row_is_the_closed_form(code, mode, row)


@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_sweep_row_is_the_sweeps_row_at_its_point(name, mode):
    code = get_code(name)
    for db in (*channel.DB_GRID, -3076.5, 3076.5):
        point = channel.snr_point(db)
        assert sweep_row(code, point, mode) == sweep(code, [point], mode)[0]


@settings(max_examples=200, deadline=None)
@given(db=st.floats(*channel._RHO_DB_RANGE), name=st.sampled_from(["c1", "c2"]),
       mode=st.sampled_from(["general", "qli"]))
def test_sweep_rows_are_the_closed_form_across_the_db_range(db, name, mode):
    code = get_code(name)
    assert_row_is_the_closed_form(code, mode, sweep(code, [channel.snr_point(db)], mode)[0])


@pytest.mark.parametrize("mode", ["general", "qli"])
@pytest.mark.parametrize("name", ["c1", "c2"])
def test_one_kalman_step_reproduces_the_sweep_rows(name, mode):
    """The sweep's chain is one measurement update of the Kalman filter:
    prior Sigma_x, observation c xt + w.  R_0 is Sigma_r, (1/2) tr P_0 the
    half trace of Sigma_c and I(x_0; z_0) / rho the Gaussian bound."""
    for row in sweep(get_code(name), channel.grid_points(), mode):
        pt = channel.snr_point(row.ebn0_db)
        sx = sigma_x_from_probs(row.alpha1, row.alpha2, row.theta12)
        zero = np.zeros((2, 2))
        model = kalman.state_space_model(F=zero, H=pt.c * np.eye(2), U=zero, W=np.eye(2),
                                         X0=sx)
        step = kalman.covariance_recursion(model, 1)[0]
        assert_allclose(step.R_k, sigma_r(sx, pt.rho), rtol=1e-14, atol=0)
        assert_allclose(0.5 * np.trace(step.P_k), row.half_tr_sigma_c, rtol=1e-14, atol=0)
        assert_allclose(kalman.gaussian_mi(model, 0) / pt.rho, row.gauss_bound, rtol=1e-14,
                        atol=0)
