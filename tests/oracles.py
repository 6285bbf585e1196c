"""Helpers that only the tests use, kept out of the package."""

import numpy as np

from sstkalman import kalman
from sstkalman.gf2 import to_string


def code_to_json(code):
    """A code as the JSON object of a code file, which `convcode.code_from_json`
    reads back: its name, g and ginv as polynomial strings."""
    return {
        "name": code.name,
        "g": [to_string(p) for p in code.g],
        "ginv": [to_string(p) for p in code.ginv],
    }


# ------------------------------------------- kalman: the per-step identities

def _per_step_mi(model, k, trace):
    """gaussian_mi with one slogdet per matrix, summed step by step."""
    return 0.5 * sum(kalman._logdet(trace[j].R_k) - kalman._logdet(model.W(j))
                     for j in range(k + 1))


def _per_step_mi_prediction_form(model, k, trace):
    return 0.5 * sum(kalman._logdet(trace[j].M_k) - kalman._logdet(trace[j].P_k)
                     for j in range(k + 1))


def per_step_observations(model, steps, seed):
    """kalman.simulate_observations drawn step by step: one normal draw and
    one Cholesky factor per vector."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 999))))
    x = np.linalg.cholesky(model.X0 + 1e-12 * np.eye(model.n)) @ gen.standard_normal(model.n)
    zs = []
    for k in range(steps):
        w = np.linalg.cholesky(model.W(k)) @ gen.standard_normal(model.m)
        zs.append(model.H(k) @ x + w)
        if k < steps - 1:
            u_cov = model.U(k)
            u = np.linalg.cholesky(u_cov + 1e-12 * np.eye(model.n)) @ gen.standard_normal(model.n)
            x = model.F(k) @ x + u
    return zs


def per_step_identity_report(seed, states, steps):
    """kalman.identity_report with each identity taken step by step, one
    small numpy call per matrix, and the same recursions, backward pass and
    projection oracle; the stacked report equals it bit for bit."""
    model = kalman.random_model(seed, states)
    zs = per_step_observations(model, steps, seed)
    fs = kalman.run_filter(model, zs)
    trace = kalman.covariance_recursion(model, steps)
    b = steps - 1
    tol = 1e-7
    checks = []

    def add(name, dev, tolerance=tol):
        checks.append({"check": name, "max_dev": float(dev), "tol": tolerance,
                       "passed": bool(dev <= tolerance)})

    dev = max(np.abs(s.K_k - s.P_k @ model.H(s.k).T @ np.linalg.inv(model.W(s.k))).max()
              for s in fs)
    add("gain-forms-agree", dev)

    dev = 0.0
    for s_prev, s_next in zip(fs, fs[1:]):
        f = model.F(s_prev.k)
        combined = f @ (s_prev.M_k - s_prev.K_k @ s_prev.R_k @ s_prev.K_k.T) @ f.T + model.U(s_prev.k)
        dev = max(dev, np.abs(s_next.M_k - combined).max())
    add("combined-prediction-recursion", dev)

    dev = max(np.abs(fs[j].M_k - trace[j].M_k).max() for j in range(steps))
    add("data-free-covariances-match-filter", dev)

    mi_innov = _per_step_mi(model, b, trace)
    add("mi-forms-agree", abs(mi_innov - _per_step_mi_prediction_form(model, b, trace)))

    z_cov = kalman.joint_observation_covariance(model, b)
    stacked = 0.5 * (kalman._logdet(z_cov)
                     - sum(kalman._logdet(model.W(j)) for j in range(steps)))
    add("mi-matches-stacked-determinant", abs(mi_innov - stacked))

    dev = 0.0
    for s in fs:
        h = model.H(s.k)
        lhs = kalman.information_form_inverse(s.M_k, model.W(s.k), h)
        dev = max(dev, np.abs(lhs - s.P_k).max())
    add("information-form-matches-filtering", dev)

    add("filtering-below-prediction", max(kalman._neg_eig(s.M_k - s.P_k) for s in fs))

    smoothed = {k: (xhat, sigma) for k, xhat, sigma in kalman._backward_pass(model, fs, b)}
    add("smoother-matches-projection",
        max(np.abs(smoothed[k][1] - kalman.projection_smoother_cov(model, k, b)).max()
            for k in (0, steps // 2, b)))
    add("smoothed-estimate-matches-projection",
        max(np.abs(smoothed[k][0] - kalman.projection_smoothed_estimate(model, zs, k, b)).max()
            for k in (0, steps // 2, b)))
    add("smoothing-never-hurts",
        max(kalman._neg_eig(fs[k].P_k - sigma) for k, (_, sigma) in smoothed.items()))

    k_mid = min(steps // 2, steps - 3)
    lag1 = kalman.smoother_cov(model, trace, k_mid, k_mid + 1)
    lag2 = kalman.smoother_cov(model, trace, k_mid, k_mid + 2)
    add("more-data-never-hurts", kalman._neg_eig(lag1 - lag2))

    return checks


# -------------------------------------- parity_prob: per-support statistics

def per_support_branch_stats(s1, s2, eps):
    """parity_prob.branch_stats taken statistic by statistic from the two
    supports' own set algebra: each marginal from its support's size, the
    joint from the sizes a, b, c of S1 - S2, S2 - S1 and S1 & S2."""
    q = 1.0 - 2.0 * eps
    a, b, c = len(s1 - s2), len(s2 - s1), len(s1 & s2)
    a1 = 0.5 * (1.0 - q ** len(s1))
    a2 = 0.5 * (1.0 - q ** len(s2))
    a11 = 0.25 * (1.0 + q ** (a + b) - q ** (a + c) - q ** (b + c))
    return a1, a2, a11, a11 - a1 * a2
