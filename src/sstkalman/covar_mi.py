"""Innovation covariances and per-branch mutual information bounds.

The main-decoder input is modeled per branch as r = c*xt + w with
xt = 1 - 2v, Cov(xt) = Sigma_x built from the parity probabilities
(diagonal 4 a_l (1 - a_l), off-diagonal 4 theta), and white w.  Then

    Sigma_r = I + rho Sigma_x          (innovation covariance, rho = c^2)
    Sigma_c = Sigma_x - rho Sigma_x (I + rho Sigma_x)^-1 Sigma_x

Sigma_c is the one-step filtering covariance of xt and (1/2) tr(Sigma_c)
lower-bounds the per-branch Gaussian mutual information
(1/(2 rho)) log det(I + rho Sigma_x), which in turn is below
(1/2) tr(Sigma_x).  Channel-side outer bounds log(1+rho)/rho and
1/(1+rho) plus the binary-input AWGN curve complete the chain.  All
information quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from . import channel, parity_prob
from .parity_prob import code_supports


# ---------------------------------------------------------------- covariances

def sigma_x_from_probs(alpha1, alpha2, theta12):
    """Covariance of xt = 1 - 2v from the two marginals and theta."""
    return np.array([
        [4.0 * alpha1 * (1.0 - alpha1), 4.0 * theta12],
        [4.0 * theta12, 4.0 * alpha2 * (1.0 - alpha2)],
    ])


def code_sigma_x(code, eps, mode="general"):
    a1, a2, _, th = parity_prob.branch_stats(*code_supports(code, mode), eps)
    return sigma_x_from_probs(a1, a2, th)


def sigma_x_prime(code, eps):
    """QLI pre-decoder input covariance (both error streams through (g1, g2))."""
    return code_sigma_x(code, eps, mode="qli")


def _check_square(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def sigma_r(sigma_x, rho):
    """Innovation covariance I + rho Sigma_x."""
    sigma_x = _check_square(sigma_x)
    return np.eye(sigma_x.shape[0]) + rho * sigma_x


def sigma_x_from_sigma_r(sig_r, rho):
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    sig_r = _check_square(sig_r)
    return (sig_r - np.eye(sig_r.shape[0])) / rho


def sigma_c_general(sigma_x, rho):
    """Filtering covariance Sigma_x - rho Sigma_x (I + rho Sigma_x)^-1 Sigma_x."""
    sigma_x = _check_square(sigma_x)
    n = sigma_x.shape[0]
    core = np.linalg.solve(np.eye(n) + rho * sigma_x, sigma_x)
    out = sigma_x - rho * sigma_x @ core
    return 0.5 * (out + out.T)


def sigma_c_closed_2x2(sigma_x, rho):
    """Closed 2x2 form; returns (Sigma_c, delta_x, delta_r).

    delta_x = det Sigma_x and delta_r = det(I + rho Sigma_x)
            = 1 + rho (s1 + s2 + rho delta_x).
    """
    sigma_x = _check_square(sigma_x)
    if sigma_x.shape != (2, 2):
        raise ValueError("closed form is for 2x2 matrices")
    s1, s2 = sigma_x[0, 0], sigma_x[1, 1]
    s12 = sigma_x[0, 1]
    delta_x = s1 * s2 - s12 * s12
    delta_r = 1.0 + rho * (s1 + s2 + rho * delta_x)
    mat = np.array([
        [s1 + rho * delta_x, s12],
        [s12, s2 + rho * delta_x],
    ]) / delta_r
    return mat, delta_x, delta_r


@dataclass(frozen=True)
class CovPair:
    rho: float
    sigma_x: np.ndarray
    sigma_r: np.ndarray
    sigma_c: np.ndarray
    delta_x: float
    delta_r: float


def cov_pair(sigma_x, rho):
    """Sigma_r, Sigma_c and both determinants of a 2x2 Sigma_x, in closed form."""
    sigma_x = _check_square(sigma_x)
    sig_c, dx, dr = sigma_c_closed_2x2(sigma_x, rho)
    return CovPair(rho=float(rho), sigma_x=sigma_x, sigma_r=sigma_r(sigma_x, rho),
                   sigma_c=sig_c, delta_x=float(dx), delta_r=float(dr))


# ------------------------------------------------------------- eigen tracking

@dataclass(frozen=True)
class EigenTrack:
    """Sigma_c eigenvalues at one rho, their trace-form approximations, and
    the derivative of rho*lambda_l along rho (central difference)."""

    rho: float
    lambdas: tuple
    lambda_tilde_1: float
    lambda_tilde_2: float
    d_rho_lambda: tuple


def _lambda_tilde(sigma_c):
    """Trace-form eigenvalue approximations of a 2x2 Sigma_c: half trace -/+ off-diagonal."""
    half_tr = 0.5 * (sigma_c[0, 0] + sigma_c[1, 1])
    return float(half_tr - sigma_c[0, 1]), float(half_tr + sigma_c[0, 1])


def _as_provider(provider):
    if callable(provider):
        return provider
    const = _check_square(provider)
    return lambda rho: const


def eigen_track(provider, rho, h=1e-4):
    """Track Sigma_c eigenvalues for Sigma_x = provider(rho).

    provider is a callable rho -> Sigma_x (a constant matrix is accepted
    and wrapped); h is the relative step of the central difference on
    rho * lambda_l(rho).
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not 0.0 < h < 0.5:
        raise ValueError("h must be a small positive relative step")
    prov = _as_provider(provider)

    def rho_lambdas(r):
        lam = np.linalg.eigvalsh(sigma_c_general(prov(r), r))
        return r * lam

    sig_x = prov(rho)
    lam = tuple(float(v) for v in np.linalg.eigvalsh(sigma_c_general(sig_x, rho)))
    if sig_x.shape == (2, 2):
        lt1, lt2 = _lambda_tilde(sigma_c_closed_2x2(sig_x, rho)[0])
    else:
        lt1 = lt2 = float("nan")
    delta = h * rho
    d = (rho_lambdas(rho + delta) - rho_lambdas(rho - delta)) / (2.0 * delta)
    return EigenTrack(rho=float(rho), lambdas=lam,
                      lambda_tilde_1=float(lt1), lambda_tilde_2=float(lt2),
                      d_rho_lambda=tuple(float(v) for v in d))


def fixed_eps_provider(code, eps, mode="general"):
    """Provider that holds the crossover probability fixed as rho varies."""
    const = code_sigma_x(code, eps, mode)
    return lambda rho: const


def coupled_provider(code, mode="general"):
    """Provider that couples eps = Q(sqrt(rho)) to rho, as on the Eb/N0 grid."""
    def prov(rho):
        return code_sigma_x(code, channel.q_function(math.sqrt(rho)), mode)
    return prov


# ------------------------------------------------------------------ MI bounds

def mi_gauss_bound(sigma_x, rho):
    """(1/2) log det(I + rho Sigma_x), nats per branch (Gaussian input).

    For 2x2 Sigma_x, det(I + rho Sigma_x) = 1 + rho (s1 + s2 + rho det Sigma_x);
    taking log1p of the part past 1 keeps full precision at tiny rho, where
    a log-determinant rounds to 0.
    """
    sigma_x = _check_square(sigma_x)
    if sigma_x.shape != (2, 2):
        raise ValueError("Sigma_x must be 2x2")
    delta_x = sigma_x[0, 0] * sigma_x[1, 1] - sigma_x[0, 1] * sigma_x[1, 0]
    excess = rho * (sigma_x[0, 0] + sigma_x[1, 1] + rho * delta_x)
    if excess <= -1.0:
        raise ValueError("I + rho Sigma_x must be positive definite")
    return 0.5 * math.log1p(excess)


def mi_gauss_bound_per_rho(sigma_x, rho):
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return mi_gauss_bound(sigma_x, rho) / rho


@dataclass(frozen=True)
class BoundChain:
    """Ordered per-branch bound chain (all in nats per unit rho):

    half_tr_sigma_c <= gauss_per_rho <= half_tr_sigma_x, with the
    channel-side ceilings inv_one_plus_rho (on half_tr_sigma_c) and
    log1p_rho_over_rho (on gauss_per_rho).  sigma_c is the filtering
    covariance whose half trace opens the chain.
    """

    half_tr_sigma_c: float
    gauss_per_rho: float
    half_tr_sigma_x: float
    inv_one_plus_rho: float
    log1p_rho_over_rho: float
    sigma_c: np.ndarray = field(compare=False)


def bound_chain(sigma_x, rho):
    pair = cov_pair(sigma_x, rho)
    return BoundChain(
        half_tr_sigma_c=0.5 * float(np.trace(pair.sigma_c)),
        gauss_per_rho=mi_gauss_bound_per_rho(sigma_x, rho),
        half_tr_sigma_x=0.5 * float(np.trace(pair.sigma_x)),
        inv_one_plus_rho=1.0 / (1.0 + rho),
        log1p_rho_over_rho=math.log1p(rho) / rho,
        sigma_c=pair.sigma_c,
    )


@lru_cache(maxsize=8)
def _gh_nodes(nodes):
    t, w = hermgauss(nodes)
    return t, w


def _log_cosh(x):
    # |x| + log1p(e^-2|x|) - log 2 cancels to x^2/2 with an absolute error
    # near 1e-16, so below |x| = 1e-3 (relative error past 1e-10) use the
    # exact identity cosh x = 1 + 2 sinh^2(x/2) instead
    ax = np.abs(x)
    out = ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)
    small = ax < 1e-3
    out[small] = np.log1p(2.0 * np.sinh(0.5 * ax[small]) ** 2)
    return out


def binary_input_mi(rho, nodes=128):
    """Mutual information of BPSK over AWGN at rho = c^2, in nats.

    With X = rho - sqrt(rho) Y, Y standard normal,

        I(rho) = rho - E[log cosh X] = log 2 - E[log1p(e^(-2X))],

    evaluated by Gauss-Hermite quadrature (nodes >= 96 keeps the absolute
    error well under 1e-6 across the grid).  The first form carries an
    absolute error near ulp(rho) and the second one near ulp(log 2), so
    rho <= 1 takes the first and larger rho the second, which also keeps
    I <= log 2 at any rho.
    """
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if nodes < 96:
        raise ValueError("use at least 96 quadrature nodes")
    if rho == 0.0:
        return 0.0
    t, w = _gh_nodes(nodes)
    x = rho - math.sqrt(rho) * math.sqrt(2.0) * t
    if rho <= 1.0:
        expect = float(np.dot(w, _log_cosh(x))) / math.sqrt(math.pi)
        return max(rho - expect, 0.0)
    loss = float(np.dot(w, np.logaddexp(0.0, -2.0 * x))) / math.sqrt(math.pi)
    return math.log(2.0) - loss


def mi_per_branch_bound(sigma_x, rho):
    """min of the Gaussian-input bound and the binary-input ceiling, per unit rho."""
    return min(mi_gauss_bound_per_rho(sigma_x, rho),
               2.0 * binary_input_mi(rho) / rho)


# ------------------------------------------------------------------ MC oracle

def monte_carlo_sigma_r(code, point, trials, seed, mode="general"):
    """Empirical Sigma_r from the branch model r = c(1-2v) + w.

    Draws an independent error window per trial, so entries come with
    honest empirical standard errors; returns (Sigma_r_hat, se)."""
    if trials < 2:
        raise ValueError("need at least two trials")
    gen = channel.make_rng(seed)
    v = parity_prob.error_window_parities(*code_supports(code, mode), point.epsilon,
                                          trials, gen)
    xt = 1.0 - 2.0 * v.astype(np.float64)
    w = channel.standard_normals(gen, xt.shape)
    # centred apart: at large c the spacing of c*xt + w would swallow w
    xt -= xt.mean(axis=0)
    w -= w.mean(axis=0)
    centered = point.c * xt + w
    sigma_hat = (centered.T @ centered) / (trials - 1)
    se = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            prod = centered[:, i] * centered[:, j]
            se[i, j] = prod.std(ddof=1) / math.sqrt(trials)
    return sigma_hat, se


# ---------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class SweepRow:
    """Everything the tables and curves need at one SNR point, for one
    arrangement: the general SST map (Sigma_x) or the QLI one (Sigma_x').

    Field names are the CSV column names.  In qli mode the statistics
    alpha1 ... half_tr_sigma_x are those of Sigma_x' (the paper's beta1,
    theta12', ...)."""

    ebn0_db: float
    rho: float
    epsilon: float
    alpha1: float
    alpha2: float
    alpha11: float
    theta12: float
    sigma1_sq: float
    sigma2_sq: float
    half_tr_sigma_x: float
    half_tr_sigma_c: float
    half_rho_tr_sigma_c: float
    gauss_bound: float
    inv_1p_rho: float
    log1p_rho_over_rho: float
    two_I_over_rho: float
    lambda_t1: float
    lambda_t2: float
    rho_lambda_t1: float
    rho_lambda_max: float


def _sweep_row(point, supports):
    """One SweepRow from the error supports of one arrangement."""
    rho = point.rho
    a1, a2, a11, th = parity_prob.branch_stats(*supports, point.epsilon)
    sig_x = sigma_x_from_probs(a1, a2, th)
    chain = bound_chain(sig_x, rho)
    lt1, lt2 = _lambda_tilde(chain.sigma_c)
    return SweepRow(
        ebn0_db=point.ebn0_db,
        rho=rho,
        epsilon=point.epsilon,
        alpha1=a1,
        alpha2=a2,
        alpha11=a11,
        theta12=th,
        sigma1_sq=sig_x[0, 0],
        sigma2_sq=sig_x[1, 1],
        half_tr_sigma_x=chain.half_tr_sigma_x,
        half_tr_sigma_c=chain.half_tr_sigma_c,
        half_rho_tr_sigma_c=rho * chain.half_tr_sigma_c,
        gauss_bound=chain.gauss_per_rho,
        inv_1p_rho=chain.inv_one_plus_rho,
        log1p_rho_over_rho=chain.log1p_rho_over_rho,
        two_I_over_rho=2.0 * binary_input_mi(rho) / rho,
        lambda_t1=lt1,
        lambda_t2=lt2,
        rho_lambda_t1=rho * lt1,
        rho_lambda_max=rho * lt2,
    )


def sweep(code, db_values=channel.DB_GRID, rate=0.5, mode="general"):
    """SweepRows of one arrangement over an Eb/N0 grid; the supports are built once."""
    supports = code_supports(code, mode)
    return [_sweep_row(channel.snr_point(db, rate), supports) for db in db_values]


def sweep_row(code, point, mode="general"):
    return sweep(code, (point.ebn0_db,), point.rate, mode)[0]
