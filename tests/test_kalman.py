"""Kalman filter, fixed-interval smoother, and Gaussian MI identities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from sstkalman import kalman
from sstkalman.convcode import get_code

from oracles import per_step_identity_report, per_step_observations


def psd_min_eig(mat):
    return np.linalg.eigvalsh(0.5 * (mat + mat.T)).min()


def test_identity_report_passes_across_models():
    for seed, states, steps in [(3, 3, 8), (0, 1, 6), (11, 4, 10), (42, 2, 7),
                                (3, 1, 4), (3, 3, 4)]:
        report = kalman.identity_report(seed=seed, states=states, steps=steps)
        assert all(chk["passed"] for chk in report), [
            (chk["check"], chk["max_dev"]) for chk in report if not chk["passed"]
        ]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), states=st.integers(1, 6), steps=st.integers(4, 20))
def test_stacked_identity_report_is_the_per_step_one_bit_for_bit(seed, states, steps):
    # each identity over the stacks of all steps at once, against the same
    # identity taken one step, one small numpy call, at a time
    assert kalman.identity_report(seed, states, steps) == per_step_identity_report(
        seed, states, steps)


@pytest.mark.parametrize("states, steps", [(1, 1), (1, 2), (3, 8), (6, 20), (2, 64)])
def test_simulate_observations_is_the_per_step_draw_bit_for_bit(states, steps):
    # one standard_normal call and one Cholesky per family, against a draw
    # and a factor per vector
    for seed in range(3):
        model = kalman.random_model(seed, states)
        got = kalman.simulate_observations(model, steps, seed)
        assert got.shape == (steps, states)
        assert got.tobytes() == np.array(per_step_observations(model, steps, seed)).tobytes()


@pytest.mark.parametrize("steps", [0, -1])
def test_simulate_observations_refuses_no_steps(steps):
    with pytest.raises(ValueError, match="steps must be positive"):
        kalman.simulate_observations(kalman.random_model(1, 2), steps, seed=0)


def test_scalar_covariance_recursion_by_hand():
    model = kalman.state_space_model(
        np.array([[0.9]]), np.array([[2.0]]), np.array([[0.5]]),
        np.array([[1.5]]), X0=np.array([[1.0]]))
    trace = kalman.covariance_recursion(model, 3)
    m_cov = 1.0
    for step in trace:
        r_cov = 4 * m_cov + 1.5
        gain = 2 * m_cov / r_cov
        p_cov = m_cov - gain * r_cov * gain
        assert_allclose(step.M_k[0, 0], m_cov, atol=1e-14)
        assert_allclose(step.R_k[0, 0], r_cov, atol=1e-14)
        assert_allclose(step.K_k[0, 0], gain, atol=1e-14)
        assert_allclose(step.P_k[0, 0], p_cov, atol=1e-14)
        m_cov = 0.81 * p_cov + 0.5


def test_filter_covariances_are_data_free():
    model = kalman.random_model(4, 3)
    obs_a = kalman.simulate_observations(model, 7, seed=1)
    obs_b = kalman.simulate_observations(model, 7, seed=2)
    trace_a = kalman.run_filter(model, obs_a)
    trace_b = kalman.run_filter(model, obs_b)
    recursion = kalman.covariance_recursion(model, 7)
    assert len(recursion) == 7
    for sa, sb, sr in zip(trace_a, trace_b, recursion):
        for name in ("M_k", "P_k", "R_k", "K_k"):
            np.testing.assert_array_equal(getattr(sa, name), getattr(sr, name))
            np.testing.assert_array_equal(getattr(sb, name), getattr(sr, name))
        assert not np.allclose(sa.xhat_filt, sb.xhat_filt)


def test_kf_step_chain_matches_run_filter():
    model = kalman.random_model(9, 2)
    obs = kalman.simulate_observations(model, 5, seed=4)
    trace = kalman.run_filter(model, obs)
    state = None
    for k, z in enumerate(obs):
        state = kalman.kf_step(state, model, z)
        assert state.k == k
        assert_allclose(state.xhat_filt, trace[k].xhat_filt, atol=1e-13)
        assert_allclose(state.P_k, trace[k].P_k, atol=1e-13)


def test_information_form_inverse():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, m = rng.integers(1, 5), rng.integers(1, 5)
        a = rng.normal(size=(n, n))
        a = a @ a.T + np.eye(n)
        b = rng.normal(size=(m, m))
        b = b @ b.T + np.eye(m)
        c = rng.normal(size=(m, n))
        lhs = kalman.information_form_inverse(a, b, c)
        rhs = np.linalg.inv(np.linalg.inv(a) + c.T @ np.linalg.inv(b) @ c)
        assert_allclose(lhs, rhs, atol=1e-10)


def test_gaussian_mi_three_forms_agree():
    for seed in (1, 5, 9):
        model = kalman.random_model(seed, 1 + seed % 4)
        k = 5
        mi = kalman.gaussian_mi(model, k)
        assert_allclose(mi, kalman.gaussian_mi_prediction_form(model, k),
                        atol=1e-10)
        joint = kalman.joint_observation_covariance(model, k)
        noise = sum(np.linalg.slogdet(np.atleast_2d(model.W_k(j)))[1]
                    for j in range(k + 1))
        assert_allclose(mi, 0.5 * (np.linalg.slogdet(joint)[1] - noise),
                        atol=1e-10)
        assert mi > 0


@pytest.mark.parametrize("mi", [kalman.gaussian_mi, kalman.gaussian_mi_prediction_form],
                         ids=["innovations", "prediction"])
@pytest.mark.parametrize("k, match", [(-1, "k must be non-negative"),
                                      (4, "trace too short")],
                         ids=["negative_k", "k_past_trace"])
def test_both_mi_forms_check_k_against_the_trace(mi, k, match):
    # four trace steps cover 0..3
    model = kalman.random_model(1, 2)
    trace = kalman.covariance_recursion(model, 4)
    with pytest.raises(ValueError, match=match):
        mi(model, k, trace)


def test_gaussian_mi_monotone_in_k():
    model = kalman.random_model(2, 3)
    values = [kalman.gaussian_mi(model, k) for k in range(6)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_smoother_reduces_to_filter_at_b_equals_k():
    model = kalman.random_model(6, 3)
    trace = kalman.run_filter(model, kalman.simulate_observations(model, 8, seed=0))
    for k in (0, 3, 7):
        assert_allclose(kalman.smoother_cov(model, trace, k, k),
                        trace[k].P_k, atol=1e-13)


def test_smoother_matches_projection_oracle():
    for states in (1, 4):
        model = kalman.random_model(8, states)
        obs = kalman.simulate_observations(model, 12, seed=5)
        trace = kalman.run_filter(model, obs)
        for b in range(12):
            for k in range(b + 1):
                assert_allclose(kalman.smoother_cov(model, trace, k, b),
                                kalman.projection_smoother_cov(model, k, b), atol=1e-10)
                assert_allclose(kalman.smoothed_estimate(model, trace, k, b),
                                kalman.projection_smoothed_estimate(model, obs, k, b),
                                atol=1e-10)


def test_block_diag_matches_scipy():
    from scipy.linalg import block_diag

    gen = np.random.default_rng(0)
    square = [gen.standard_normal((k, k)) for k in (1, 3, 2)]
    rect = [gen.standard_normal(shape) for shape in ((2, 3), (1, 3), (4, 3), (3, 1))]
    for blocks in (square, rect, rect[:1]):
        out = kalman._block_diag(*blocks)
        assert out.dtype == np.float64
        assert np.array_equal(out, block_diag(*blocks))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_smoother_matches_projection_oracle_with_rectangular_h(m):
    n, steps = 3, 7

    def mat(k, tag, shape):
        return np.random.default_rng((k, tag, m)).standard_normal(shape)

    def pd(k, tag, dim, floor):
        a = mat(k, tag, (dim, dim))
        return a @ a.T / dim + floor * np.eye(dim)

    model = kalman.state_space_model(
        lambda k: 0.95 * np.linalg.qr(mat(k, 1, (n, n)))[0],
        lambda k: mat(k, 2, (m, n)),
        lambda k: pd(k, 3, n, 0.1),
        lambda k: pd(k, 4, m, 0.5),
        X0=np.eye(n))
    assert (model.m, model.n) == (m, n)
    obs = kalman.simulate_observations(model, steps, seed=2)
    trace = kalman.run_filter(model, obs)
    for b in range(steps):
        for k in range(b + 1):
            assert_allclose(kalman.smoother_cov(model, trace, k, b),
                            kalman.projection_smoother_cov(model, k, b), atol=1e-10)
            assert_allclose(kalman.smoothed_estimate(model, trace, k, b),
                            kalman.projection_smoothed_estimate(model, obs, k, b),
                            atol=1e-10)
    assert kalman.joint_observation_covariance(model, steps - 1).shape == (m * steps,) * 2


def test_filter_estimate_is_projection_onto_past():
    model = kalman.random_model(12, 3)
    obs = kalman.simulate_observations(model, 6, seed=8)
    trace = kalman.run_filter(model, obs)
    for k in range(6):
        assert_allclose(trace[k].xhat_filt,
                        kalman.projection_smoothed_estimate(model, obs, k, k),
                        atol=1e-10)


def test_psd_ordering_chain():
    # more conditioning never increases the error covariance
    model = kalman.random_model(13, 4)
    trace = kalman.run_filter(model, kalman.simulate_observations(model, 8, seed=3))
    k = 3
    prev = trace[k].M_k
    assert psd_min_eig(prev - trace[k].P_k) >= -1e-10
    prev = trace[k].P_k
    for b in range(k + 1, 8):
        cur = kalman.smoother_cov(model, trace, k, b)
        assert psd_min_eig(prev - cur) >= -1e-10
        prev = cur


@pytest.mark.parametrize("smoother", [kalman.smoother_cov, kalman.smoothed_estimate],
                         ids=["smoother_cov", "smoothed_estimate"])
@pytest.mark.parametrize("k, b, match", [(3, 1, "need 0 <= k <= b"),
                                         (1, 4, "must cover 0..b")],
                         ids=["k_beyond_b", "short_steps"])
def test_smoother_rejects_k_beyond_b(smoother, k, b, match):
    # four filter steps cover 0..3, so b = 4 is one step too many
    model = kalman.random_model(1, 2)
    trace = kalman.run_filter(model, kalman.simulate_observations(model, 4, seed=0))
    with pytest.raises(ValueError, match=match):
        smoother(model, trace, k, b)


def test_projection_rejects_k_beyond_b():
    model = kalman.random_model(1, 2)
    obs = kalman.simulate_observations(model, 4, seed=0)
    with pytest.raises(ValueError, match="need 0 <= k <= b"):
        kalman.projection_smoother_cov(model, 3, 1)
    with pytest.raises(ValueError, match="need 0 <= k <= b"):
        kalman.projection_smoothed_estimate(model, obs, 3, 1)


def test_projection_rejects_short_observations():
    # four observations cover 0..3, so b = 6 is three steps too many
    model = kalman.random_model(1, 2)
    obs = [np.zeros(2)] * 4
    with pytest.raises(ValueError, match=r"observations must cover 0\.\.b"):
        kalman.projection_smoothed_estimate(model, obs, 1, 6)


def test_joint_moments_of_a_shorter_horizon_are_a_prefix():
    # the stacked joint of horizon b is the leading block of horizon B's
    model = kalman.random_model(7, 3)
    big = 6
    m = model.m
    for b in range(big):
        assert_allclose(kalman.joint_observation_covariance(model, b),
                        kalman.joint_observation_covariance(model, big)[:(b + 1) * m,
                                                                       :(b + 1) * m],
                        rtol=0, atol=1e-12)
        for k in range(b + 1):
            assert_allclose(kalman._joint_moments(model, k, b)[0],
                            kalman._joint_moments(model, k, big)[0], rtol=0, atol=1e-12)


def test_identity_report_builds_the_stacked_joint_once(monkeypatch):
    horizons = []
    original = kalman._stacked_joint

    def counting(model, b):
        horizons.append(b)
        return original(model, b)

    monkeypatch.setattr(kalman, "_stacked_joint", counting)
    assert all(chk["passed"] for chk in kalman.identity_report(seed=3, states=3, steps=8))
    assert horizons == [7]


def test_identity_report_runs_one_backward_pass_per_horizon(monkeypatch):
    # horizon b for every smoothed state, then the lag-1 and lag-2 checks
    horizons = []
    original = kalman._backward_pass

    def counting(model, steps, b):
        horizons.append(b)
        return original(model, steps, b)

    monkeypatch.setattr(kalman, "_backward_pass", counting)
    assert all(chk["passed"] for chk in kalman.identity_report(seed=3, states=3, steps=8))
    assert horizons == [7, 5, 6]


def test_identity_report_solves_grow_linearly_in_steps(monkeypatch):
    calls = [0]
    original = np.linalg.solve

    def counting(a, b):
        calls[0] += 1
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    counts = {}
    for steps in (16, 32, 64):
        calls[0] = 0
        assert all(chk["passed"] for chk in kalman.identity_report(seed=3, states=1, steps=steps))
        counts[steps] = calls[0]
    assert counts[64] <= 300, counts
    assert counts[64] - counts[32] <= 2 * (counts[32] - counts[16]), counts


class ModelBuilt(Exception):
    pass


def _refuse_models(monkeypatch):
    def refuse(*args, **kwargs):
        raise ModelBuilt

    monkeypatch.setattr(kalman, "random_model", refuse)


def test_identity_report_refuses_a_joint_past_its_cap(monkeypatch):
    # 64 states x 1024 steps is a ~34 GB joint; the cap stops it before any
    # model is built, so a library call fails as the CLI does
    _refuse_models(monkeypatch)
    with pytest.raises(ValueError) as info:
        kalman.identity_report(3, 64, 1024)
    assert str(info.value) == ("--states 64 x --steps 1024: the projection oracle's joint "
                               "covariance would take 34359738368 bytes, over its cap of "
                               "8388608 bytes")


def test_identity_report_cap_admits_the_defaults_and_ci_sizes(monkeypatch):
    # each of these reaches random_model, past the cap check
    _refuse_models(monkeypatch)
    for states, steps in ((3, 8), (4, 24), (1, 1024), (4, 256), (256, 4)):
        with pytest.raises(ModelBuilt):
            kalman.identity_report(3, states, steps)


def test_simulate_observations_deterministic():
    model = kalman.random_model(4, 2)
    a = kalman.simulate_observations(model, 5, seed=7)
    b = kalman.simulate_observations(model, 5, seed=7)
    c = kalman.simulate_observations(model, 5, seed=8)
    assert_allclose(np.asarray(a), np.asarray(b))
    assert not np.allclose(np.asarray(a), np.asarray(c))


# ------------------------------------------------- model matrices and checks

class Counting:
    """A k -> matrix callable that counts its calls per k."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = {}

    def __call__(self, k):
        self.calls[k] = self.calls.get(k, 0) + 1
        return self.fn(k)


def test_model_matrices_are_read_once_per_step_and_read_only():
    base = kalman.random_model(5, 3)
    counters = [Counting(fn) for fn in (base.F_k, base.H_k, base.U_k, base.W_k)]
    model = kalman.state_space_model(*counters, X0=base.X0)
    steps = 7
    obs = kalman.simulate_observations(base, steps, seed=2)
    trace = kalman.covariance_recursion(model, steps)
    states = kalman.run_filter(model, obs)
    for b in (3, steps - 1):
        for k in range(b + 1):
            kalman.smoother_cov(model, trace, k, b)
            kalman.smoothed_estimate(model, states, k, b)
            kalman.projection_smoother_cov(model, k, b)
            kalman.projection_smoothed_estimate(model, obs, k, b)
    for counter in counters:
        assert counter.calls and max(counter.calls.values()) == 1, counter.calls
    for read in (model.F, model.H, model.U, model.W):
        with pytest.raises(ValueError):
            read(2)[0, 0] = 1.0
    np.testing.assert_array_equal(trace[-1].P_k,
                                  kalman.covariance_recursion(base, steps)[-1].P_k)


def test_constant_matrices_are_copied_not_frozen():
    f, h, u, w = (np.array([[0.9]]), np.array([[2.0]]), np.array([[0.5]]),
                  np.array([[1.5]]))
    model = kalman.state_space_model(f, h, u, w, X0=np.array([[1.0]]))
    trace = kalman.covariance_recursion(model, 4)
    kalman.smoother_cov(model, trace, 0, 3)
    for const in (f, h, u, w):
        assert const.flags.writeable
    f[0, 0] = 0.5  # the model keeps the copy it read
    assert model.F(0)[0, 0] == 0.9


@pytest.mark.parametrize("a", [0.0, 0.5, -3.0, 1e6])
def test_symmetry_check_refuses_exactly_past_the_allclose_tolerance(a):
    # X0 = [[d, a], [b, d]] beside np.allclose(X0, X0.T, atol=1e-10), the
    # check as first written: b bisected to the last accepted double and the
    # first refused one, then two more ulps either side; the large diagonal
    # keeps X0 PSD
    def x0(b):
        return np.array([[1e7, a], [b, 1e7]])

    def refused(b):
        return not np.allclose(x0(b), x0(b).T, atol=1e-10)

    inside, outside = a, a + 2e-5 * abs(a) + 1e-9
    assert not refused(inside) and refused(outside)
    while np.nextafter(inside, outside) != outside:
        mid = inside + (outside - inside) / 2
        inside, outside = (inside, mid) if refused(mid) else (mid, outside)
    bs = [np.nextafter(np.nextafter(inside, -np.inf), -np.inf), inside,
          outside, np.nextafter(np.nextafter(outside, np.inf), np.inf)]
    assert [refused(b) for b in bs] == [False, False, True, True]
    f, h, u, w = np.eye(2), np.ones((1, 2)), np.eye(2), np.eye(1)
    for b in bs:
        if refused(b):
            with pytest.raises(ValueError, match="X0 must be symmetric"):
                kalman.state_space_model(f, h, u, w, X0=x0(b))
        else:
            kalman.state_space_model(f, h, u, w, X0=x0(b))


def two_state_model(F=None, H=None, U=None, W=None):
    return kalman.state_space_model(
        F or (lambda k: 0.9 * np.eye(2)),
        H or (lambda k: np.array([[1.0, 0.5]])),
        U or (lambda k: 0.2 * np.eye(2)),
        W or (lambda k: np.array([[1.0]])),
        X0=np.eye(2))


MODEL_CHECK_CASES = [
    ({"U": lambda k: np.array([[0.2]]) if k == 2 else 0.2 * np.eye(2)},
     "filter", "U_2 must be 2x2"),
    ({"U": lambda k: np.array([[0.2, 0.1], [0.0, 0.2]]) if k == 2 else 0.2 * np.eye(2)},
     "filter", "U_2 must be symmetric"),
    ({"W": lambda k: np.array([[0.0]]) if k == 1 else np.array([[1.0]])},
     "filter", "W_1 must be positive definite"),
    ({"H": lambda k: np.ones((1, 3)) if k == 4 else np.array([[1.0, 0.5]])},
     "recursion", "H_4 must be 1x2"),
    ({"W": lambda k: np.eye(2) if k == 1 else np.array([[1.0]])},
     "filter", "W_1 must be 1x1"),
    ({"U": lambda k: np.diag([np.inf, 0.2]) if k == 0 else 0.2 * np.eye(2)},
     "recursion", "U_0 must be finite"),
    ({"W": lambda k: np.array([[np.inf]]) if k == 2 else np.array([[1.0]])},
     "filter", "W_2 must be finite"),
    ({"F": lambda k: np.full((2, 2), np.nan) if k == 1 else 0.9 * np.eye(2)},
     "recursion", "F_1 must be finite"),
    ({"H": lambda k: np.array([[np.inf, 0.5]]) if k == 3 else np.array([[1.0, 0.5]])},
     "filter", "H_3 must be finite"),
]


@pytest.mark.parametrize("kwargs, run, match", MODEL_CHECK_CASES)
def test_model_checks_fire_on_first_use_and_again(kwargs, run, match):
    model = two_state_model(**kwargs)
    obs = [np.array([0.3])] * 6
    for _ in range(2):  # a failed read is not cached, so it raises again
        with pytest.raises(ValueError, match=match):
            if run == "recursion":
                kalman.covariance_recursion(model, 6)
            else:
                kalman.run_filter(model, obs)


@pytest.mark.parametrize("kwargs, name, match", [
    (kwargs, match[0], match) for kwargs, _, match in MODEL_CHECK_CASES])
def test_stack_reads_name_the_first_failing_step(kwargs, name, match):
    # the same rule broken at a later step too: the stack read over steps
    # 0..5 names the first one, and a failed stack caches no step
    k_bad = int(match.split()[0].split("_")[1])
    fn = kwargs[name]
    model = two_state_model(**{name: lambda k: fn(k_bad) if k == k_bad + 2 else fn(k)})
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{match}$"):
            model.stack(name, 6)
    assert not [key for key in model._cache if key[0] == name and key != ("H", range(1))]
    if k_bad:  # the steps before it read on their own, as in the filter
        np.testing.assert_array_equal(model.stack(name, k_bad),
                                      two_state_model().stack(name, k_bad))


@pytest.mark.parametrize("bad, match", [
    # step 1 breaks the PSD rule, step 3 the earlier finite rule: step 1 is named
    ({1: np.diag([-1.0, 0.2]), 3: np.diag([np.inf, 0.2])}, "U_1 must be positive semidefinite"),
    # step 2 is the wrong shape, step 0 not symmetric: step 0 is named
    ({0: np.array([[0.2, 0.1], [0.0, 0.2]]), 2: np.eye(3)}, "U_0 must be symmetric"),
    # step 4 is the wrong shape, step 2 is PSD but not PD (W = 0)
    ({4: np.ones((2, 3)), 2: np.zeros((2, 2))}, "U_4 must be 2x2"),
])
def test_stack_reads_name_the_first_step_whatever_rule_it_breaks(bad, match):
    model = two_state_model(U=lambda k: bad.get(k, 0.2 * np.eye(2)))
    with pytest.raises(ValueError, match=f"^{match}$"):
        model.stack("U", 6)


def test_w_stack_names_the_first_step_that_is_not_pd():
    model = two_state_model(W=lambda k: np.array([[0.0]]) if k in (3, 5) else np.array([[1.0]]))
    with pytest.raises(ValueError, match="^W_3 must be positive definite$"):
        model.stack("W", 6)
    np.testing.assert_array_equal(model.stack("W", 3), np.ones((3, 1, 1)))


@pytest.mark.parametrize("x0", [np.eye(3), np.eye(1), np.ones((2, 3))],
                         ids=["3x3", "1x1", "2x3"])
def test_x0_shape_is_checked_when_the_model_is_built(x0):
    with pytest.raises(ValueError, match="X0 must be 2x2"):
        kalman.state_space_model(0.9 * np.eye(2), np.array([[1.0, 0.5]]), 0.2 * np.eye(2),
                                 np.array([[1.0]]), X0=x0)


@pytest.mark.parametrize("x0, h, match", [
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.5]]), "X0 must be finite"),
    (np.full((2, 2), np.nan), np.array([[1.0, 0.5]]), "X0 must be finite"),
    (np.eye(2), np.array([[np.nan, 0.5]]), "H_0 must be finite"),
], ids=["x0-inf", "x0-nan", "h0-nan"])
def test_non_finite_x0_and_h0_are_refused_when_the_model_is_built(x0, h, match):
    with pytest.raises(ValueError, match=match):
        kalman.state_space_model(0.9 * np.eye(2), h, 0.2 * np.eye(2), np.array([[1.0]]), X0=x0)


def test_encoder_shift_register_model_matches_projection():
    # c1 as a state-space model: x_k = (i_k, i_{k-1}, i_{k-2}), F the nilpotent
    # shift, each observation row the taps of one generator polynomial
    code = get_code("c1")
    n = code.nu + 1
    h = np.array([[(g >> j) & 1 for j in range(n)] for g in code.g], dtype=np.float64)
    assert h.tolist() == [[1, 1, 1], [1, 0, 1]]
    shift = np.eye(n, k=-1)
    model = kalman.state_space_model(shift, h, np.diag([1.0, 0.0, 0.0]), 0.5 * np.eye(2),
                                     X0=np.diag([1.0, 0.0, 0.0]))
    steps = 9
    obs = kalman.simulate_observations(model, steps, seed=4)
    states = kalman.run_filter(model, obs)
    for b in range(steps):
        for k in range(b + 1):
            assert_allclose(kalman.smoother_cov(model, states, k, b),
                            kalman.projection_smoother_cov(model, k, b), rtol=0, atol=1e-9)
            assert_allclose(kalman.smoothed_estimate(model, states, k, b),
                            kalman.projection_smoothed_estimate(model, obs, k, b),
                            rtol=0, atol=1e-9)
        stacked = 0.5 * (np.linalg.slogdet(kalman.joint_observation_covariance(model, b))[1]
                         - (b + 1) * np.linalg.slogdet(0.5 * np.eye(2))[1])
        assert abs(kalman.gaussian_mi(model, b, states) - stacked) <= 1e-9
