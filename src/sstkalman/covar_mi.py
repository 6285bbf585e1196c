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

Everything here is exact but one test oracle: `monte_carlo_sigma_r`
draws fresh error windows and measures them with `sstdec.sample_sigma_r`,
the Sigma_r sample that `simulate` reports.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from . import channel, parity_prob
from .parity_prob import code_supports


# ---------------------------------------------------------------- covariances

def sigma_x_entries(alpha1, alpha2, theta12):
    """(s1, s2, s12) of Sigma_x: the variances 4 a (1 - a) of xt and 4 theta."""
    return 4.0 * alpha1 * (1.0 - alpha1), 4.0 * alpha2 * (1.0 - alpha2), 4.0 * theta12


def sigma_x_from_probs(alpha1, alpha2, theta12):
    """Covariance of xt = 1 - 2v from the two marginals and theta."""
    import numpy as np

    s1, s2, s12 = sigma_x_entries(alpha1, alpha2, theta12)
    return np.array([[s1, s12], [s12, s2]])


def code_sigma_x(code, eps, mode="general"):
    a1, a2, _, th = parity_prob.branch_stats(*code_supports(code, mode), eps)
    return sigma_x_from_probs(a1, a2, th)


def sigma_x_prime(code, eps):
    """QLI pre-decoder input covariance (both error streams through (g1, g2))."""
    return code_sigma_x(code, eps, mode="qli")


def _check_square(m):
    import numpy as np

    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def sigma_r_entries(s1, s2, s12, rho):
    """I + rho Sigma_x of Sigma_x = [[s1, s12], [s12, s2]] in floats, as
    nested tuples, each entry rounded as `sigma_r`'s array sum rounds it."""
    # 0.0 + keeps I's +0.0 off the diagonal, as the array sum does
    off = 0.0 + rho * s12
    return (1.0 + rho * s1, off), (off, 1.0 + rho * s2)


def sigma_r(sigma_x, rho):
    """Innovation covariance I + rho Sigma_x."""
    import numpy as np

    sigma_x = _check_square(sigma_x)
    return np.eye(sigma_x.shape[0]) + rho * sigma_x


def sigma_c_general(sigma_x, rho):
    """Filtering covariance Sigma_x - rho Sigma_x (I + rho Sigma_x)^-1 Sigma_x
    for any n: the Kalman filter's information-form update of prior Sigma_x
    by the observation sqrt(rho) I plus white noise, the reference form of
    `sigma_c_closed_2x2`."""
    import numpy as np

    from . import kalman

    sigma_x = _check_square(sigma_x)
    eye = np.eye(sigma_x.shape[0])
    out = kalman.information_form_inverse(sigma_x, eye, math.sqrt(rho) * eye)
    return 0.5 * (out + out.T)


def _closed_2x2(s1, s2, s12, rho):
    """The closed form at rho of Sigma_x = [[s1, s12], [s12, s2]], in floats:
    (c11, c22, c12, delta_x, delta_r, half_log_det), where c = Sigma_c,
    delta_x = det Sigma_x, delta_r = det(I + rho Sigma_x) and half_log_det
    = (1/2) log delta_r.

    delta_r = 1 + excess with excess = rho (s1 + s2 + rho delta_x); taking
    log1p of the excess keeps full precision at tiny rho, where a
    log-determinant rounds to 0.
    """
    delta_x = s1 * s2 - s12 * s12
    excess = rho * (s1 + s2 + rho * delta_x)
    if excess <= -1.0:
        raise ValueError("I + rho Sigma_x must be positive definite")
    delta_r = 1.0 + excess
    return ((s1 + rho * delta_x) / delta_r, (s2 + rho * delta_x) / delta_r,
            s12 / delta_r, delta_x, delta_r, 0.5 * math.log1p(excess))


def _checked_entries(sigma_x, rho):
    """(s1, s2, s12) of a 2x2 Sigma_x as floats, once it and rho are checked:
    Sigma_x finite and symmetric with a non-negative diagonal, rho finite
    and non-negative."""
    import numpy as np

    sigma_x = np.asarray(sigma_x, dtype=np.float64)
    if sigma_x.shape != (2, 2):
        raise ValueError("Sigma_x must be 2x2")
    if not np.isfinite(sigma_x).all():
        raise ValueError("Sigma_x must be finite")
    (s1, s12), (s21, s2) = sigma_x.tolist()
    if s12 != s21:
        raise ValueError("Sigma_x must be symmetric")
    if s1 < 0.0 or s2 < 0.0:
        raise ValueError("Sigma_x must have a non-negative diagonal")
    if not (math.isfinite(rho) and rho >= 0.0):
        raise ValueError("rho must be finite and non-negative")
    return s1, s2, s12


def sigma_c_closed_2x2(sigma_x, rho):
    """Closed 2x2 form; returns (Sigma_c, delta_x, delta_r).

    delta_x = det Sigma_x and delta_r = det(I + rho Sigma_x)
            = 1 + rho (s1 + s2 + rho delta_x).
    """
    import numpy as np

    c11, c22, c12, delta_x, delta_r, _ = _closed_2x2(*_checked_entries(sigma_x, rho), rho)
    return np.array([[c11, c12], [c12, c22]]), delta_x, delta_r


class CovPair(NamedTuple):
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

class EigenTrack(NamedTuple):
    """Sigma_c eigenvalues at one rho, their trace-form approximations, and
    the derivative of rho*lambda_l along rho (central difference)."""

    rho: float
    lambdas: tuple
    lambda_tilde_1: float
    lambda_tilde_2: float
    d_rho_lambda: tuple


def _lambda_tilde(c11, c22, c12):
    """Trace-form eigenvalue approximations of Sigma_c = [[c11, c12], [c12, c22]]:
    half trace -/+ off-diagonal."""
    half_tr = 0.5 * (c11 + c22)
    return float(half_tr - c12), float(half_tr + c12)


def eigen_track(provider, rho):
    """Track Sigma_c eigenvalues for Sigma_x = provider(rho).

    provider is a callable rho -> 2x2 Sigma_x, and Sigma_c is its closed
    form; the derivative of rho * lambda_l(rho) is a central difference
    with relative step 1e-4.
    """
    import numpy as np

    if rho <= 0.0:
        raise ValueError("rho must be positive")

    def rho_lambdas(r):
        return r * np.linalg.eigvalsh(sigma_c_closed_2x2(provider(r), r)[0])

    sig_c = sigma_c_closed_2x2(provider(rho), rho)[0]
    lam = tuple(float(v) for v in np.linalg.eigvalsh(sig_c))
    lt1, lt2 = _lambda_tilde(sig_c[0, 0], sig_c[1, 1], sig_c[0, 1])
    delta = 1e-4 * rho
    d = (rho_lambdas(rho + delta) - rho_lambdas(rho - delta)) / (2.0 * delta)
    return EigenTrack(rho=float(rho), lambdas=lam,
                      lambda_tilde_1=lt1, lambda_tilde_2=lt2,
                      d_rho_lambda=tuple(float(v) for v in d))


# ------------------------------------------------------------------ MI bounds

def mi_gauss_bound(sigma_x, rho):
    """(1/2) log det(I + rho Sigma_x), nats per branch (Gaussian input), by
    the closed form's log1p, which keeps full precision at tiny rho."""
    return _closed_2x2(*_checked_entries(sigma_x, rho), rho)[5]


def mi_gauss_bound_per_rho(sigma_x, rho):
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return mi_gauss_bound(sigma_x, rho) / rho


class BoundChain(NamedTuple):
    """Ordered per-branch bound chain (all in nats per unit rho):

    half_tr_sigma_c <= gauss_per_rho <= half_tr_sigma_x, with the
    channel-side ceilings inv_one_plus_rho (on half_tr_sigma_c) and
    log1p_rho_over_rho (on gauss_per_rho)."""

    half_tr_sigma_c: float
    gauss_per_rho: float
    half_tr_sigma_x: float
    inv_one_plus_rho: float
    log1p_rho_over_rho: float


def _chain(s1, s2, s12, rho):
    """The BoundChain of [[s1, s12], [s12, s2]] at rho > 0 in floats: its
    five bounds, then Sigma_c's (c11, c22, c12)."""
    c11, c22, c12, _, _, half_log_det = _closed_2x2(s1, s2, s12, rho)
    return ((0.5 * (c11 + c22), half_log_det / rho, 0.5 * (s1 + s2),
             1.0 / (1.0 + rho), math.log1p(rho) / rho), (c11, c22, c12))


def bound_chain(sigma_x, rho):
    s1, s2, s12 = _checked_entries(sigma_x, rho)
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    return BoundChain(*_chain(s1, s2, s12, rho)[0])


@cache
def _gh_nodes():
    # imported here, on curves' first quadrature, so no other command pays for it
    from numpy.polynomial.hermite import hermgauss

    return hermgauss(128)


def _log_cosh(x):
    # |x| + log1p(e^-2|x|) - log 2 cancels to x^2/2 with an absolute error
    # near 1e-16, so below |x| = 1e-3 (relative error past 1e-10) use the
    # exact identity cosh x = 1 + 2 sinh^2(x/2) instead
    import numpy as np

    ax = np.abs(x)
    out = ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)
    small = ax < 1e-3
    out[small] = np.log1p(2.0 * np.sinh(0.5 * ax[small]) ** 2)
    return out


def binary_input_mi(rho):
    """Mutual information of BPSK over AWGN at rho = c^2, in nats.

    With X = rho - sqrt(rho) Y, Y standard normal,

        I(rho) = rho - E[log cosh X] = log 2 - E[log1p(e^(-2X))],

    evaluated by 128-node Gauss-Hermite quadrature (absolute error well
    under 1e-6 across the grid).  The first form carries an
    absolute error near ulp(rho) and the second one near ulp(log 2), so
    rho <= 1 takes the first and larger rho the second, which also keeps
    I <= log 2 at any rho.
    """
    import numpy as np

    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    if rho == 0.0:
        return 0.0
    t, w = _gh_nodes()
    x = rho - math.sqrt(rho) * math.sqrt(2.0) * t
    # numpy's own sum of the weighted terms, not a BLAS dot, whose order of
    # additions, and so the last digits, depend on the host's kernel
    if rho <= 1.0:
        expect = float((w * _log_cosh(x)).sum()) / math.sqrt(math.pi)
        return max(rho - expect, 0.0)
    loss = float((w * np.logaddexp(0.0, -2.0 * x)).sum()) / math.sqrt(math.pi)
    return math.log(2.0) - loss


def mi_per_branch_bound(sigma_x, rho):
    """min of the Gaussian-input bound and the binary-input ceiling, per unit rho."""
    return min(mi_gauss_bound_per_rho(sigma_x, rho),
               2.0 * binary_input_mi(rho) / rho)


# ------------------------------------------------------------------ MC oracle

def monte_carlo_sigma_r(code, point, trials, seed, mode="general"):
    """Sigma_r of the branch model r = c(1-2v) + w, one fresh error window
    per trial; returns `sstdec.sample_sigma_r`'s (Sigma_r_hat, se)."""
    # imported here: sstdec imports this module, and only this oracle reads
    # a sample from the decoder's C library
    from .sstdec import sample_sigma_r

    supports = code_supports(code, mode)
    gen = channel.make_rng(seed)
    v = parity_prob.error_window_parities(*supports, point.epsilon, trials, gen)
    probs = parity_prob.branch_stats(*supports, point.epsilon)[:3]
    return sample_sigma_r(v, channel.standard_normals(gen, v.shape), point, probs)


# ---------------------------------------------------------------------- sweep

class SweepRow(NamedTuple):
    """Everything the tables, curves and alpha need at one SNR point, for
    one arrangement: the general SST map (Sigma_x) or the QLI one
    (Sigma_x').  The binary-input curve depends on rho alone and is not a
    field: `curves` adds it to the rows it prints.

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
    lambda_t1: float
    lambda_t2: float
    rho_lambda_t1: float
    rho_lambda_max: float


def _sweep_row(point, sizes):
    """One SweepRow from the `parity_prob.support_sizes` of one arrangement,
    in floats; the point's eps is snr_point's, in [0, 1/2]."""
    rho = point.rho
    a1, a2, a11, th = parity_prob.sized_branch_stats(sizes, point.epsilon)
    s1, s2, s12 = sigma_x_entries(a1, a2, th)
    bounds, sigma_c = _chain(s1, s2, s12, rho)
    half_tr_c, gauss, half_tr_x, inv_1p_rho, log1p_over_rho = bounds
    lt1, lt2 = _lambda_tilde(*sigma_c)
    # in field order: positional arguments build a NamedTuple fastest
    return SweepRow(point.ebn0_db, rho, point.epsilon, a1, a2, a11, th, s1, s2,
                    half_tr_x, half_tr_c, rho * half_tr_c, gauss, inv_1p_rho,
                    log1p_over_rho, lt1, lt2, rho * lt1, rho * lt2)


def sweep(code, points=None, mode="general"):
    """The SweepRows of one arrangement at a sequence of `channel.SnrPoint`s
    (by default `channel.grid_points()`), each the point's own `sweep_row`;
    the support sizes are taken once."""
    if points is None:
        points = channel.grid_points()
    sizes = parity_prob.support_sizes(*code_supports(code, mode))
    return [_sweep_row(point, sizes) for point in points]


def sweep_row(code, point, mode="general"):
    """The SweepRow of one arrangement at one `channel.SnrPoint`."""
    return _sweep_row(point, parity_prob.support_sizes(*code_supports(code, mode)))
