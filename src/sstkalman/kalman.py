"""Reference Kalman filter, fixed-interval smoother, and identity checks.

Model: x_{k+1} = F_k x_k + u_k,  z_k = H_k x_k + w_k, with u_k ~ N(0, U_k),
w_k ~ N(0, W_k), x_0 ~ N(0, X0), all independent.  Conventions:

    M_k  prediction covariance  Cov(x_k | z^{k-1})
    P_k  filtering covariance   Cov(x_k | z^k)
    R_k  innovation covariance  W_k + H_k M_k H_k^T
    K_k  gain                   M_k H_k^T R_k^{-1}  (= P_k H_k^T W_k^{-1})

No covariance reads an observation, so the data-free covariance recursion
is the filter run on zero observations.  The Gaussian mutual information
between the state path and z^k is (1/2) sum_j log(det R_j / det W_j), which
only needs that recursion, never data.  The smoother is one backward pass
from b, the Bryson-Frazier adjoint recursion (Bierman's modified form):
with Phi_k = I - K_k H_k, nu_k the innovation and lambda_b = 0, Lambda_b = 0,

    Lambda_{k-1} = F_{k-1}^T (H_k^T R_k^-1 H_k + Phi_k^T Lambda_k Phi_k) F_{k-1}
    lambda_{k-1} = F_{k-1}^T (H_k^T R_k^-1 nu_k + Phi_k^T lambda_k)

gives xhat_{k|b} = xhat_k + P_k lambda_k and Cov(x_k | z^b) = P_k - P_k
Lambda_k P_k for every k <= b at once.  Unlike the Rauch-Tung-Striebel form
it never inverts M_{k+1}, which is singular for an encoder's shift register.
Everything here is checked against direct joint-Gaussian conditioning of the
stacked states and observations (the projection forms below), which reads
only the model.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _as_vector(v, n, name):
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}")
    return v


def _not_pd(stack):
    """Per matrix, whether Cholesky refuses it: one call over the stack, and
    one per matrix only when that call fails."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return np.array([_not_pd(mat[None])[0] for mat in stack] if len(stack) > 1 else [True])
    return np.zeros(len(stack), dtype=bool)


# per-matrix tests over a stack, in order: finite, symmetric (np.allclose(A,
# A^T, atol=1e-10) written out), PSD, then PD as Cholesky sees 0.5 (A + A^T)
_RULES = ((lambda s: ~np.isfinite(s).all(axis=(-2, -1)), "finite"),
          (lambda s: ~(np.abs(s - s.mT) <= 1e-10 + 1e-5 * np.abs(s.mT)).all(axis=(-2, -1)),
           "symmetric"),
          (lambda s: np.linalg.eigvalsh(s).min(axis=-1) < -1e-10, "positive semidefinite"),
          (lambda s: _not_pd(0.5 * (s + s.mT)), "positive definite"))
_FINITE, _PSD, _PD = 1, 3, 4


def _check_stack(mats, labels, rows, cols, rules=_FINITE):
    """The float64 matrices `mats` as one (count, rows, cols) stack.  Each rule
    (the shape, then the first `rules` of _RULES) runs once, on the matrices
    before the first failure so far, so the ValueError names the first failing
    matrix and the first rule it breaks.  PSD and PD stacks come back as 0.5 (A + A^T)."""
    bad = next((i for i, mat in enumerate(mats) if mat.shape != (rows, cols)), len(mats))
    rule = f"{rows}x{cols}"
    stack = np.array(mats[:bad]).reshape(bad, rows, cols)
    for fails, text in _RULES[:rules]:
        failed = fails(stack[:bad])
        if failed.any():
            bad, rule = int(failed.argmax()), text
    if bad < len(mats):
        raise ValueError(f"{labels[bad]} must be {rule}")
    return 0.5 * (stack + stack.mT) if rules > _FINITE else stack


def _wrap(value):
    if callable(value):
        return value
    const = np.asarray(value, dtype=np.float64)
    return lambda k: const


def _frozen(mat):
    mat.setflags(write=False)
    return mat


def _step_reader(name):
    """The model method k -> name_k: row k of name's stack, grown to step k."""
    def read(model, k):
        if k < 0:
            raise ValueError(f"{name}_k needs k >= 0, got {k}")
        return model.stack(name, k + 1)[k]
    return read


class StateSpaceModel:
    """Time-varying linear-Gaussian state-space model; F/H/U/W are k -> array.

    Each name keeps one read-only (count, rows, cols) stack of steps 0..count-1,
    grown in step order by a read past its end: the new steps are read and
    checked together and kept only if all pass, so a failed read raises again
    and the callables must be pure functions of k; a step k < 0 is a ValueError.
    F and U must be n x n, H m x n and W m x m, all finite, U PSD and W PD; F
    may be singular, as an encoder's shift register is.
    """

    __slots__ = ("n", "m", "F_k", "H_k", "U_k", "W_k", "X0", "_stacks", "_joints")
    _rules = {"F": _FINITE, "H": _FINITE, "U": _PSD, "W": _PD}

    def __init__(self, n, m, F_k, H_k, U_k, W_k, X0):
        self.n, self.m, self.X0 = n, m, X0
        self.F_k, self.H_k, self.U_k, self.W_k = F_k, H_k, U_k, W_k
        self._stacks = {name: _frozen(np.empty((0, rows, cols))) for name, rows, cols
                        in (("F", n, n), ("H", m, n), ("U", n, n), ("W", m, m))}
        self._joints = {}  # horizon b -> _stacked_joint(self, b)

    def stack(self, name, count):
        """name_0 .. name_{count-1} (name one of F, H, U, W), a read-only stack."""
        if count < 0:
            raise ValueError("count must be non-negative")
        stack = self._stacks[name]
        if count > len(stack):
            new = range(len(stack), count)
            mats = [np.asarray(getattr(self, f"{name}_k")(k), dtype=np.float64) for k in new]
            fresh = _check_stack(mats, [f"{name}_{k}" for k in new], *stack.shape[1:],
                                 self._rules[name])
            stack = self._stacks[name] = _frozen(np.concatenate((stack, fresh)))
        return stack[:count]

    F, H, U, W = map(_step_reader, "FHUW")


def state_space_model(F, H, U, W, X0):
    """Build a model from constants or k -> matrix callables; X0 is n x n PSD."""
    h0 = np.asarray(_wrap(H)(0), dtype=np.float64)
    if h0.ndim != 2:
        raise ValueError("H must be a matrix (or a callable returning one)")
    m, n = h0.shape
    model = StateSpaceModel(
        n=n, m=m,
        F_k=_wrap(F), H_k=_wrap(H), U_k=_wrap(U), W_k=_wrap(W),
        X0=_check_stack([np.asarray(X0, dtype=np.float64)], ["X0"], n, n, _PSD)[0],
    )
    # the shape probe is H_0's one read; its shape check holds by construction
    model._stacks["H"] = _frozen(_check_stack([h0], ["H_0"], m, n))
    return model


class FilterState(NamedTuple):
    k: int
    xhat_filt: np.ndarray
    M_k: np.ndarray
    P_k: np.ndarray
    R_k: np.ndarray
    K_k: np.ndarray
    innovation: np.ndarray


def kf_step(state, model, z_k):
    """The time update from `state`, then the measurement update of z_k;
    pass state=None to start at k = 0."""
    if state is None:
        k = 0
        x_pred = np.zeros(model.n)
        m_cov = model.X0.copy()
    else:
        k = state.k + 1
        f_prev = model.F(state.k)
        x_pred = f_prev @ state.xhat_filt
        m_cov = f_prev @ state.P_k @ f_prev.T + model.U(state.k)
        m_cov = 0.5 * (m_cov + m_cov.T)
    h = model.H(k)
    w = model.W(k)
    z_k = _as_vector(z_k, model.m, "z_k")
    r_cov = w + h @ m_cov @ h.T
    gain = np.linalg.solve(r_cov, h @ m_cov).T
    innovation = z_k - h @ x_pred
    x_filt = x_pred + gain @ innovation
    p_cov = m_cov - gain @ r_cov @ gain.T
    p_cov = 0.5 * (p_cov + p_cov.T)
    return FilterState(k=k, xhat_filt=x_filt,
                       M_k=m_cov, P_k=p_cov, R_k=r_cov, K_k=gain,
                       innovation=innovation)


def run_filter(model, observations):
    states = []
    for z in observations:
        states.append(kf_step(states[-1] if states else None, model, z))
    return states


def covariance_recursion(model, steps):
    """Data-free covariance trace for k = 0 .. steps-1: the filter run on zero
    observations, whose M_k, P_k, R_k and K_k are those of a run on any data,
    since no covariance reads an observation."""
    if steps < 1:
        raise ValueError("steps must be positive")
    return run_filter(model, np.zeros((steps, model.m)))


def _logdet(mat):
    """log det of one matrix (a float) or of each of a stack (a list)."""
    sign, val = np.linalg.slogdet(mat)
    if (sign <= 0).any():
        raise ValueError("matrix must be positive definite")
    return val.tolist()


def _stacks(steps, *names):
    """The named fields of filter steps, each as one stack over the steps."""
    return [np.array([getattr(s, name) for s in steps]) for name in names]


def _mi_trace(model, k, trace, *names):
    """`_stacks` of steps 0..k of the covariance trace that the MI forms sum over."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if trace is None:
        trace = covariance_recursion(model, k + 1)
    if len(trace) <= k:
        raise ValueError("trace too short")
    return _stacks(trace[:k + 1], *names)


def _half_log_ratio(num, den):
    """(1/2) sum_j log(det num_j / det den_j), term by term over two stacks."""
    return 0.5 * sum(a - b for a, b in zip(_logdet(num), _logdet(den)))


def gaussian_mi(model, k, trace=None):
    """I(x^k; z^k) in nats: (1/2) sum_{j<=k} log(det R_j / det W_j)."""
    return _half_log_ratio(*_mi_trace(model, k, trace, "R_k"), model.stack("W", k + 1))


def gaussian_mi_prediction_form(model, k, trace=None):
    """Same quantity as (1/2) sum log(det M_j / det P_j); needs M_j nonsingular."""
    return _half_log_ratio(*_mi_trace(model, k, trace, "M_k", "P_k"))


def information_form_inverse(a, b, c):
    """(A^-1 + C^T B^-1 C)^-1 evaluated as A - A C^T (C A C^T + B)^-1 C A,
    for one (A, B, C) or stacks of them."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    inner = c @ a @ c.mT + b
    return a - a @ c.mT @ np.linalg.solve(inner, c @ a)


# ----------------------------------------------------------------- smoothing

def _backward_pass(model, steps, b):
    """(k, xhat_{k|b}, Cov(x_k | z^b)) for k = b down to 0, from filter steps
    covering 0..b, by the adjoint recursion (one solve per step)."""
    if len(steps) <= b:
        raise ValueError("filter steps must cover 0..b")
    lam = np.zeros(model.n)
    lam_cov = np.zeros((model.n, model.n))
    for k in range(b, -1, -1):
        step = steps[k]
        sigma = step.P_k - step.P_k @ lam_cov @ step.P_k
        yield k, step.xhat_filt + step.P_k @ lam, 0.5 * (sigma + sigma.T)
        if k == 0:
            return
        h, f = model.H(k), model.F(k - 1)
        phi = np.eye(model.n) - step.K_k @ h
        # R_k^-1 [H_k | nu_k] in one solve
        rinv = np.linalg.solve(step.R_k, np.column_stack((h, step.innovation)))
        lam_cov = f.T @ (h.T @ rinv[:, :-1] + phi.T @ lam_cov @ phi) @ f
        lam = f.T @ (h.T @ rinv[:, -1] + phi.T @ lam)


def _smoothed(model, steps, k, b):
    """(xhat_{k|b}, Cov(x_k | z^b)): the backward pass from b, stopped at k."""
    if k < 0 or b < k:
        raise ValueError("need 0 <= k <= b")
    for j, xhat, sigma in _backward_pass(model, steps, b):
        if j == k:
            return xhat, sigma


def smoother_cov(model, trace, k, b):
    """Fixed-interval smoothing covariance Cov(x_k | z^b), k <= b."""
    return _smoothed(model, trace, k, b)[1]


def smoothed_estimate(model, states, k, b):
    """Fixed-interval smoothed mean xhat_{k|b} from stored filter states."""
    return _smoothed(model, states, k, b)[0]


# ----------------------------------------------- direct joint-Gaussian oracle

def _block_diag(*blocks):
    """The 2-D blocks, rectangular ones included, on the diagonal of a zero matrix."""
    out = np.zeros((sum(blk.shape[0] for blk in blocks),
                    sum(blk.shape[1] for blk in blocks)))
    i = j = 0
    for blk in blocks:
        r, c = blk.shape
        out[i:i + r, j:j + c] = blk
        i, j = i + r, j + c
    return out


def _stacked_joint(model, b):
    """Covariances of x = (x_0..x_b) and z = (z_0..z_b), read-only.

    x = A (x_0, u_0..u_{b-1}) with A block lower-triangular, block (i, j)
    = F_{i-1} .. F_j, and z = H x + w with H = blockdiag(H_0..H_b), so
    Cov(x) = A blockdiag(X0, U_0..U_{b-1}) A^T, Cov(x, z) = Cov(x) H^T and
    Cov(z) = H Cov(x) H^T + blockdiag(W_0..W_b).
    """
    n = model.n
    a = np.eye((b + 1) * n)
    for i in range(1, b + 1):
        a[i * n:(i + 1) * n, :i * n] = model.F(i - 1) @ a[(i - 1) * n:i * n, :i * n]
    x_cov = a @ _block_diag(model.X0, *model.stack("U", b)) @ a.T
    h = _block_diag(*model.stack("H", b + 1))
    xz = x_cov @ h.T
    z_cov = h @ xz + _block_diag(*model.stack("W", b + 1))
    return tuple(_frozen(v) for v in (x_cov, z_cov, xz))


def _joint_moments(model, k, b):
    """Covariances of (x_k, z_0..z_b): row block k of the horizon-b joint,
    which is built once per b."""
    if k < 0 or b < k:
        raise ValueError("need 0 <= k <= b")
    if b not in model._joints:
        model._joints[b] = _stacked_joint(model, b)
    x_cov, z_cov, xz = model._joints[b]
    rows = slice(k * model.n, (k + 1) * model.n)
    return x_cov[rows, rows], z_cov, xz[rows]


def joint_observation_covariance(model, k):
    """Covariance of the stacked observations z_0..z_k."""
    return _joint_moments(model, 0, k)[1]


def projection_smoother_cov(model, k, b):
    """Cov(x_k | z^b), k <= b, by conditioning the joint Gaussian (reference form)."""
    x_cov, z_cov, xz = _joint_moments(model, k, b)
    sigma = x_cov - xz @ np.linalg.solve(z_cov, xz.T)
    return 0.5 * (sigma + sigma.T)


def projection_smoothed_estimate(model, observations, k, b):
    """E[x_k | z^b], k <= b, by conditioning the joint Gaussian (reference form)."""
    if len(observations) <= b:
        raise ValueError("observations must cover 0..b")
    _, z_cov, xz = _joint_moments(model, k, b)
    z = np.concatenate([_as_vector(v, model.m, "z") for v in observations[:b + 1]])
    return xz @ np.linalg.solve(z_cov, z)


# -------------------------------------------------------------- sanity report

def random_model(seed, n):
    """A well-conditioned time-varying model with n states and n observations
    per step, deterministic in (seed, k)."""

    def mat(k, tag):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, k, tag))))
        return g.standard_normal((n, n))

    def pd(k, tag, floor):
        a = mat(k, tag)
        return a @ a.T / n + floor * np.eye(n)

    return state_space_model(lambda k: 0.95 * np.linalg.qr(mat(k, 1))[0], lambda k: mat(k, 2),
                             lambda k: pd(k, 3, 0.1), lambda k: pd(k, 4, 0.5), X0=pd(0, 5, 0.5))


def simulate_observations(model, steps, seed):
    """Draw one path from the model: its (steps, m) observations z_0 .. z_{steps-1}."""
    if steps < 1:
        raise ValueError("steps must be positive")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 999))))
    # step k's normals: x_0's at k = 0 and u_{k-1}'s after it, then w_k's
    normals = gen.standard_normal(steps * (model.n + model.m)).reshape(steps, -1, 1)
    x0_u = np.concatenate((model.X0[None], model.stack("U", steps - 1))) + 1e-12 * np.eye(model.n)
    x0_u = np.linalg.cholesky(x0_u) @ normals[:, :model.n]
    xs = [x0_u[0]]
    for f, u in zip(model.stack("F", steps - 1), x0_u[1:]):
        xs.append(f @ xs[-1] + u)
    w = np.linalg.cholesky(model.stack("W", steps)) @ normals[:, model.n:]
    return (model.stack("H", steps) @ np.array(xs) + w)[..., 0]


def _neg_eig(mat):
    return max(0.0, -float(np.linalg.eigvalsh(0.5 * (mat + mat.mT)).min()))


# the projection oracle stacks every step's states into square float64
# covariances of side states x steps (_stacked_joint); one of them may take
# at most this many bytes, a side of 1024
KALMAN_JOINT_BYTES = 2**23


def identity_report(seed, states, steps):
    """Run every filter/smoother identity on a random model; returns one
    row {"check", "max_dev", "tol", "passed"} per identity, which the CLI prints.

    ValueError, before any model is built, when the projection oracle's
    joint covariance would pass KALMAN_JOINT_BYTES."""
    if steps < 4:
        raise ValueError("need at least 4 steps")
    joint_bytes = 8 * (states * steps) ** 2
    if joint_bytes > KALMAN_JOINT_BYTES:
        raise ValueError(f"--states {states} x --steps {steps}: the projection "
                         f"oracle's joint covariance would take {joint_bytes} bytes, "
                         f"over its cap of {KALMAN_JOINT_BYTES} bytes")
    model = random_model(seed, states)
    zs = simulate_observations(model, steps, seed)
    fs = run_filter(model, zs)
    trace = covariance_recursion(model, steps)
    b = steps - 1
    tol = 1e-7
    checks = []

    def add(name, dev, tolerance=tol):
        checks.append({"check": name, "max_dev": float(dev), "tol": tolerance,
                       "passed": bool(dev <= tolerance)})

    # each per-step identity is one expression over the stacks of its steps
    f, u, h, w = (model.stack(name, count) for name, count in zip("FUHW", (b, b, steps, steps)))
    gain, p_cov, m_cov, r_cov = _stacks(fs, "K_k", "P_k", "M_k", "R_k")
    add("gain-forms-agree", np.abs(gain - p_cov @ h.mT @ np.linalg.inv(w)).max())
    combined = f @ (m_cov[:-1] - gain[:-1] @ r_cov[:-1] @ gain[:-1].mT) @ f.mT + u
    add("combined-prediction-recursion", np.abs(m_cov[1:] - combined).max())
    add("data-free-covariances-match-filter", np.abs(m_cov - _stacks(trace, "M_k")[0]).max())
    mi_innov = gaussian_mi(model, b, trace)
    add("mi-forms-agree", abs(mi_innov - gaussian_mi_prediction_form(model, b, trace)))
    stacked = 0.5 * (_logdet(joint_observation_covariance(model, b)) - sum(_logdet(w)))
    add("mi-matches-stacked-determinant", abs(mi_innov - stacked))
    add("information-form-matches-filtering",
        np.abs(information_form_inverse(m_cov, w, h) - p_cov).max())
    add("filtering-below-prediction", _neg_eig(m_cov - p_cov))

    # every smoothed (xhat_{k|b}, Cov(x_k | z^b)) from one pass; fs's
    # covariances are trace's, bit for bit
    smoothed = {k: (xhat, sigma) for k, xhat, sigma in _backward_pass(model, fs, b)}
    add("smoother-matches-projection",
        max(np.abs(smoothed[k][1] - projection_smoother_cov(model, k, b)).max()
            for k in (0, steps // 2, b)))
    add("smoothed-estimate-matches-projection",
        max(np.abs(smoothed[k][0] - projection_smoothed_estimate(model, zs, k, b)).max()
            for k in (0, steps // 2, b)))
    add("smoothing-never-hurts",
        _neg_eig(p_cov - np.array([smoothed[k][1] for k in range(steps)])))

    # lag 2 needs k_mid + 2 <= b; at steps >= 5 this is steps // 2
    k_mid = min(steps // 2, steps - 3)
    lag1 = smoother_cov(model, trace, k_mid, k_mid + 1)
    lag2 = smoother_cov(model, trace, k_mid, k_mid + 2)
    add("more-data-never-hurts", _neg_eig(lag1 - lag2))

    return checks
