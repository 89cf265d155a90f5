"""Closed-form evaluator and late-time expansion tests.

Independent oracles used here:

* direct exponential sums for F and F' at moderate arguments,
* the scalar linear ODE solved by hand for single-path and all-tied
  systems (where the dynamics collapse to dS/dt = gamma(-alpha S + beta d)),
* a Runge-Kutta integration of the full nonlinear field,
* shrinking |expansion - exact| gaps as time grows,
* the weighted sum sum_i x_i / (beta d_i) = exp(-alpha tau) F(u), which
  equals exp(-alpha tau) F(0) + (1 - exp(-alpha tau)) / alpha without
  any root solve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antdyn.closedform
from antdyn import (
    DomainError,
    FFunction,
    OracleRangeError,
    Scheme,
    asymptotic_state,
    exact_state,
    f_eval,
    f_inverse,
    f_prime,
    integrate,
    sample_asymptotic,
    sample_exact,
    sigma_coefficients,
    trajectory_to_csv,
)
from antdyn.closedform import CORRECTION_LIMIT, MAX_LOG_ARG, NEWTON_BUDGET
from antdyn.models import TIE_RTOL

from helpers import make_model


def test_f_building_blocks():
    model = make_model([1, 2, 4], beta=1.5)
    x0 = np.array([0.3, 0.7, 0.2])
    F = FFunction.from_model(model, x0)
    coefficients = x0 / (1.5 * model.paths.d)
    assert np.allclose(F.exponents, 1.5 * model.paths.d)
    assert np.allclose(np.exp(F.log_coefficients), coefficients)
    assert np.allclose(np.exp(F.log_slopes), coefficients * 1.5 * model.paths.d)
    assert F.log_f0 == pytest.approx(math.log(coefficients.sum()), rel=1e-14)


def test_f_function_rejects_other_variants_and_bad_states():
    with pytest.raises(ValueError, match="identity"):
        FFunction.from_model(make_model([1, 2], g="tanh"), [0.5, 0.5])
    with pytest.raises(ValueError, match="phi=sum"):
        FFunction.from_model(make_model([1, 2], phi="max"), [0.5, 0.5])
    with pytest.raises(DomainError, match="component 1"):
        FFunction.from_model(make_model([1, 2]), [0.5, 0.0])


def test_f_eval_and_prime_match_direct_sums():
    rng = np.random.default_rng(37)
    model = make_model([1.0, 1.7, 3.1], beta=0.8)
    for _ in range(20):
        x0 = rng.uniform(0.1, 2.0, 3)
        F = FFunction.from_model(model, x0)
        coefficients = x0 / (0.8 * model.paths.d)
        for u in (0.0, 0.3, 2.0, 17.5):
            direct = float(np.sum(coefficients * np.exp(F.exponents * u)))
            direct_prime = float(
                np.sum(coefficients * F.exponents * np.exp(F.exponents * u))
            )
            assert math.exp(f_eval(F, u)) == pytest.approx(direct, rel=1e-13)
            assert math.exp(f_prime(F, u)) == pytest.approx(direct_prime, rel=1e-13)
    with pytest.raises(ValueError, match="nonnegative"):
        f_eval(F, -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        f_prime(F, -0.1)


def test_f_eval_survives_huge_arguments():
    F = FFunction.from_model(make_model([1, 2]), [0.5, 0.5])
    big = f_eval(F, 5000.0)
    assert np.isfinite(big)
    assert big > math.log(np.finfo(float).max)  # F itself overflows, its log does not


def test_f_inverse_round_trip_far_into_the_tail():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        model = make_model(rng.uniform(0.5, 4.0, n), beta=float(rng.uniform(0.5, 2.0)))
        F = FFunction.from_model(model, rng.uniform(0.1, 2.0, n))
        us = np.array([0.0, 1e-6, 0.5, 3.0, 50.0, 200.0, 500.0])
        for u in us:
            assert f_inverse(F, f_eval(F, u)) == pytest.approx(u, abs=1e-10)
        assert np.allclose(f_inverse(F, f_eval(F, us)), us, rtol=0.0, atol=1e-10)


def test_f_inverse_accepts_linear_values_and_snaps_near_f0():
    F = FFunction.from_model(make_model([1, 2, 3]), [0.4, 0.6, 0.8])
    f0 = 0.4 / 1.0 + 0.6 / 0.5 + 0.8 / (1.0 / 3.0)  # sum of x_i(0) / (beta d_i)
    # targets are logs: log y for y = 1.5 F(0), F(0), and just below F(0)
    u = f_inverse(F, math.log(f0 * 1.5))
    assert math.exp(f_eval(F, u)) == pytest.approx(f0 * 1.5, rel=1e-11)
    assert f_inverse(F, F.log_f0) == pytest.approx(0.0, abs=1e-9)
    assert f_inverse(F, F.log_f0 + math.log1p(-1e-13)) == 0.0
    with pytest.raises(DomainError, match="below F"):
        f_inverse(F, math.log(f0 * 0.5))
    with pytest.raises(DomainError):
        f_inverse(F, -math.inf)  # y = 0
    with pytest.raises(DomainError, match="finite"):
        f_inverse(F, [math.log(f0 * 2.0), math.nan])


def test_exact_state_single_path_linear_ode():
    # n = 1 collapses to dx/dt = gamma(-alpha x + beta d), solvable by hand
    model = make_model([2.5], alpha=0.7, beta=1.3, gamma=2.0)
    x0 = np.array([1.9])
    F = FFunction.from_model(model, x0)
    limit = model.beta * model.paths.d[0] / model.alpha
    for t in (0.0, 0.1, 1.0, 7.0, 30.0):
        closed = limit + (x0[0] - limit) * math.exp(-model.alpha * model.gamma * t)
        state = exact_state(F, model, x0, t)
        assert state.x[0] == pytest.approx(closed, rel=1e-11)
        assert state.total == pytest.approx(closed, rel=1e-11)


def test_exact_state_all_tied_scales_the_initial_state():
    # equal weights: every component shares one multiplier, so
    # x(t) = x0 * S(t)/S(0) with S obeying the scalar linear ODE
    model = make_model([3, 3, 3], alpha=0.4, beta=0.9, gamma=1.7)
    x0 = np.array([0.2, 1.1, 0.5])
    F = FFunction.from_model(model, x0)
    limit = model.beta * model.paths.d[0] / model.alpha
    for t in (0.5, 4.0, 20.0):
        total = limit + (x0.sum() - limit) * math.exp(-model.alpha * model.gamma * t)
        state = exact_state(F, model, x0, t)
        assert state.total == pytest.approx(total, rel=1e-11)
        assert np.allclose(state.x, x0 * total / x0.sum(), rtol=1e-11)


def test_exact_state_matches_runge_kutta():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        model = make_model(
            rng.uniform(0.5, 4.0, n),
            alpha=float(rng.uniform(0.5, 1.5)),
            beta=float(rng.uniform(0.5, 1.5)),
            gamma=float(rng.uniform(0.5, 2.0)),
        )
        x0 = rng.uniform(0.1, 2.0, n)
        F = FFunction.from_model(model, x0)
        traj = integrate(model, x0, 1e-3, 1000, scheme=Scheme.RK4)
        state = exact_state(F, model, x0, 1.0)
        assert np.allclose(state.x, traj.final_state, rtol=1e-8, atol=1e-12)


def test_exact_state_basics_and_invariants():
    model = make_model(range(1, 11), alpha=1.0, beta=1.0, gamma=10.0)
    x0 = np.arange(1, 11) * 0.1
    F = FFunction.from_model(model, x0)
    at_zero = exact_state(F, model, x0, 0.0)
    assert np.allclose(at_zero.x, x0, rtol=1e-12)
    state = exact_state(F, model, x0, 2.0)
    assert state.total == pytest.approx(state.x.sum(), rel=1e-10)
    sigma = sigma_coefficients(model, x0)
    for t, shown in ((-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"), (np.float64(-2.0), "-2.0")):
        message = f"^t must be finite and nonnegative, got {shown}$"
        with pytest.raises(ValueError, match=message):
            exact_state(F, model, x0, t)
        with pytest.raises(ValueError, match=message):
            asymptotic_state(sigma, model, x0, t)


def test_exact_and_asymptotic_state_reject_bad_x0():
    model = make_model([1, 2])
    F = FFunction.from_model(model, [0.5, 0.5])
    sigma = sigma_coefficients(model, [0.5, 0.5])
    # a positive x0 other than the one F and sigma were built from is as wrong
    # as a nonpositive one: the results would be for neither state
    for x0 in ((5.0, -1.0), (0.5, 0.0), (0.5, float("nan")), (5.0, 1.0), (0.5, 0.6), (0.5,)):
        with pytest.raises(ValueError, match=r"x0 is not \[0.5, 0.5\], the state F was built"):
            exact_state(F, model, x0, 1.0)
        with pytest.raises(ValueError, match=r"x0 is not \[0.5, 0.5\], the state sigma was"):
            asymptotic_state(sigma, model, x0, 1.0)


def test_exact_state_preserves_tied_ratios():
    model = make_model([1, 1, 1, 2, 5], alpha=0.3, beta=0.8, gamma=2.0)
    x0 = np.array([0.2, 0.5, 0.9, 1.0, 0.4])
    F = FFunction.from_model(model, x0)
    for t in (0.5, 5.0, 50.0):
        x = exact_state(F, model, x0, t).x
        assert x[1] / x[0] == pytest.approx(x0[1] / x0[0], rel=1e-12)
        assert x[2] / x[0] == pytest.approx(x0[2] / x0[0], rel=1e-12)


def test_exact_state_range_guard():
    model = make_model([1, 2], alpha=1.0, gamma=1.0)
    x0 = np.array([0.5, 0.5])
    F = FFunction.from_model(model, x0)
    inside = exact_state(F, model, x0, MAX_LOG_ARG - 1.0)
    assert inside.x[0] == pytest.approx(1.0, rel=1e-9)  # beta d_1 / alpha
    with pytest.raises(OracleRangeError, match="asymptotic_state"):
        exact_state(F, model, x0, MAX_LOG_ARG + 1.0)


def test_sigma_coefficients_literal_sums():
    model = make_model([1, 1, 2, 2, 3], beta=0.5)
    x0 = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    sigma = sigma_coefficients(model, x0).sigma
    assert sigma == pytest.approx(
        [(0.1 + 0.2) / (0.5 * 1.0), (0.3 + 0.4) / (0.5 * 0.5), 0.5 / (0.5 / 3.0)]
    )
    with pytest.raises(ValueError, match="shape"):
        sigma_coefficients(model, x0[:3])
    # a zero leading component would make sigma_1 = 0 and every sample nan/inf
    with pytest.raises(DomainError, match="component 0"):
        sample_asymptotic(make_model([1, 2]), [0.0, 1.0], 0.1, 3)


def test_asymptotic_error_shrinks_toward_exact():
    model = make_model(range(1, 11), alpha=1.0, beta=1.0, gamma=1.0)
    x0 = np.arange(1, 11) * 0.1
    F = FFunction.from_model(model, x0)
    sigma = sigma_coefficients(model, x0)
    gaps = []
    for t in (15.0, 30.0, 60.0):
        exact = exact_state(F, model, x0, t)
        approx = asymptotic_state(sigma, model, x0, t)
        assert approx.leading_valid
        gaps.append(abs(approx.x[0] - exact.x[0]) / exact.x[0])
        assert np.allclose(approx.x, exact.x, rtol=1e-3, atol=1e-300)
        assert approx.total == pytest.approx(exact.total, rel=1e-3)
    # the truncation error decays exponentially in t; by t=60 the gap
    # sits on the evaluator noise floor (~1e-14), so compare ratios
    # rather than demanding a fixed factor from an already tiny gap
    assert gaps[1] < gaps[0] * 1e-3
    assert gaps[2] < gaps[1] * 1e-3
    assert gaps[2] < 1e-10


def test_asymptotic_correction_term_improves_tied_components():
    model = make_model([1, 1, 2], alpha=1.0, beta=1.0, gamma=1.0)
    x0 = np.array([0.3, 0.5, 0.9])
    F = FFunction.from_model(model, x0)
    sigma = sigma_coefficients(model, x0)
    lead = x0[0] / (model.alpha * sigma.sigma[0])
    # by t=12 the correction term still carries ~0.2% of the leading
    # value while the next-order terms have fallen two decades below it
    t = 12.0
    exact = exact_state(F, model, x0, t).x[0]
    with_correction = asymptotic_state(sigma, model, x0, t).x[0]
    assert abs(with_correction - exact) < 0.05 * abs(lead - exact)


def test_asymptotic_validity_flag_tracks_time():
    model = make_model(range(1, 11), alpha=1.0, beta=1.0, gamma=1.0)
    x0 = np.arange(1, 11) * 0.1
    sigma = sigma_coefficients(model, x0)
    early = asymptotic_state(sigma, model, x0, 0.0)
    assert not early.leading_valid
    assert early.correction_ratio > 0.1
    late = asymptotic_state(sigma, model, x0, 50.0)
    assert late.leading_valid
    assert late.correction_ratio < 1e-9


def test_asymptotic_all_tied_has_no_correction():
    model = make_model([2, 2], alpha=0.5, beta=1.0, gamma=1.0)
    x0 = np.array([0.4, 0.8])
    sigma = sigma_coefficients(model, x0)
    state = asymptotic_state(sigma, model, x0, 0.0)
    assert state.correction_ratio == 0.0
    assert state.leading_valid
    assert np.allclose(state.x, x0 / (model.alpha * sigma.sigma[0]))
    assert state.total == pytest.approx(model.beta * model.paths.d[0] / model.alpha)
    with pytest.raises(ValueError, match="identity"):
        asymptotic_state(sigma, make_model([2, 2], g="tanh"), x0, 1.0)


def test_sample_grids_share_the_trajectory_container():
    model = make_model([1, 2, 4], alpha=0.8, beta=1.0, gamma=2.0)
    x0 = np.array([0.5, 0.7, 0.9])
    exact = sample_exact(model, x0, 0.25, 12)
    assert exact.scheme is Scheme.EXACT
    assert exact.states.shape == (13, 3)
    assert np.allclose(exact.sums, exact.states.sum(axis=1))
    assert trajectory_to_csv(exact).splitlines()[0] == "t,x_1,x_2,x_3,S"

    tail = sample_asymptotic(model, x0, 5.0, 4)
    assert tail.scheme is Scheme.ASYMPTOTIC
    assert trajectory_to_csv(tail, source=tail.scheme.value).splitlines()[1].endswith(",asymptotic")
    for dt, shown in ((0.0, "0.0"), (np.float64(math.nan), "nan")):
        with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {shown}$"):
            sample_exact(model, x0, dt, 4)
    with pytest.raises(ValueError, match="^steps must be nonnegative, got -1$"):
        sample_asymptotic(model, x0, 0.25, np.int64(-1))
    # a step count is an integer, a numpy one too, never a float, even a whole one
    for producer in (sample_exact, sample_asymptotic, integrate):
        assert producer(model, x0, 0.25, np.int64(3)).steps == 3
        for steps in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"^steps must be an integer, got {steps}$"):
                producer(model, x0, 0.25, steps)


@st.composite
def identity_sum_runs(draw):
    """Identity-sum systems with weights over 6 decades, ties and near-ties,
    x0 over 9 decades, and sample grids that end anywhere up to the guard."""
    n = draw(st.integers(1, 32))
    lengths = [10.0 ** e for e in draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))]
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        spread = draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]))
        if spread is not None:  # tie length i to length j, exactly or within a few TIE_RTOL
            lengths[i] = lengths[j] * (1.0 + spread * TIE_RTOL)
    x0 = [10.0 ** e for e in draw(st.lists(st.floats(-4.5, 4.5), min_size=n, max_size=n))]
    gains = st.floats(0.1, 10.0)
    model = make_model(lengths, alpha=draw(gains), beta=draw(gains), gamma=draw(gains))
    steps = draw(st.integers(1, 16))
    reach = draw(st.floats(1e-9, 0.999))  # alpha tau at the last sample, as a share of the guard
    dt = reach * MAX_LOG_ARG / (model.alpha * model.gamma * steps)
    return model, np.array(x0), dt, steps


@settings(max_examples=100, deadline=None)
@given(identity_sum_runs())
def test_closed_form_properties(run):
    model, x0, dt, steps = run
    traj = sample_exact(model, x0, dt, steps)
    assert np.all(np.isfinite(traj.states)) and np.all(traj.states >= 0.0)

    F = FFunction.from_model(model, x0)
    at = model.alpha * (model.gamma * traj.times)
    weights = 1.0 / (model.beta * model.paths.d)
    expected = np.exp(-at) * (x0 @ weights) - np.expm1(-at) / model.alpha
    weighted = traj.states @ weights
    np.testing.assert_allclose(weighted, expected, rtol=1e-9)

    for k, t in enumerate(traj.times):
        state = exact_state(F, model, x0, float(t))
        np.testing.assert_allclose(state.x, traj.states[k], rtol=1e-12, atol=0.0)


def reference_logsumexp(a):
    """Log-sum-exp over the last axis through numpy's wrappers."""
    top = np.max(a, axis=-1, keepdims=True)
    return np.log(np.sum(np.exp(a - top), axis=-1)) + np.squeeze(top, axis=-1)


def reference_exact_states(model, x0, times):
    """Exact states on a grid by the monotone Newton solve, through numpy's wrappers.

    Returns the states and the number of Newton iterations taken.
    """
    r = model.beta * model.paths.d
    log_c = np.log(x0 / r)

    def log_f(u):
        return reference_logsumexp(log_c + r * u[..., None])

    def log_f_prime(u):
        return reference_logsumexp(log_c + np.log(r) + r * u[..., None])

    at = model.alpha * (model.gamma * times)
    with np.errstate(divide="ignore"):
        growth = at + np.log(-np.expm1(-at)) - math.log(model.alpha)
    log_f0 = float(reference_logsumexp(log_c))
    log_y = np.logaddexp(log_f0, growth)
    tol = np.maximum(1e-13, 4.0 * np.finfo(float).eps * np.abs(log_y))
    u = np.where(log_y <= log_f0, 0.0, (log_y - log_c[0]) / r[0])
    for iterations in range(NEWTON_BUDGET):
        value = log_f(u)
        residual = value - log_y
        active = (np.abs(residual) > tol) & (u > 0.0)
        if not np.any(active):
            return x0 * np.exp(r * u[:, None] - at[:, None]), iterations
        step = residual * np.exp(value - log_f_prime(u))
        u = np.where(active, np.maximum(u - step, 0.0), u)
    raise AssertionError("the reference Newton solve did not converge")


@settings(max_examples=100, deadline=None)
@given(identity_sum_runs())
def test_exact_samples_are_bitwise_the_reference_newton(run):
    model, x0, dt, steps = run
    traj = sample_exact(model, x0, dt, steps)
    expected, _ = reference_exact_states(model, x0, traj.times)
    assert np.array_equal(traj.states, expected)


def test_sample_exact_calls_f_prime_once_per_newton_step(monkeypatch):
    # the benchmark counts Newton steps as the f_prime calls made inside f_inverse
    inside, newton_steps = [], []
    f_inverse, f_prime = antdyn.closedform.f_inverse, antdyn.closedform.f_prime

    def traced_inverse(*args, **kwargs):
        inside.append(None)
        try:
            return f_inverse(*args, **kwargs)
        finally:
            inside.pop()

    def counting_prime(*args, **kwargs):
        if inside:
            newton_steps.append(None)
        return f_prime(*args, **kwargs)

    monkeypatch.setattr(antdyn.closedform, "f_inverse", traced_inverse)
    monkeypatch.setattr(antdyn.closedform, "f_prime", counting_prime)
    rng = np.random.default_rng(43)
    # one path: the first Newton guess is the root, so no step is taken
    for n, expected in ((1, 0), (3, 5), (10, 5)):
        model = make_model(rng.uniform(1.0, 10.0, n), alpha=0.7, beta=1.3, gamma=2.0)
        x0 = rng.uniform(0.1, 1.0, n)
        newton_steps.clear()
        traj = sample_exact(model, x0, 0.3, 100)
        assert reference_exact_states(model, x0, traj.times)[1] == expected
        assert len(newton_steps) == expected


def reference_asymptotic_state(sigma, model, x0, t):
    """The expansion at one time, one weight group at a time.

    Returns ``(x, x_size, total, total_size, ratio)``.  The tied-leading
    components and the total are differences of two terms that nearly
    cancel while the expansion is invalid (a second weight just outside
    ``TIE_RTOL`` of the first makes ``correction`` almost ``lead``), so
    ``x_size`` and ``total_size`` are the sums of the terms' magnitudes,
    the scale rounding errors are relative to.
    """
    tau = model.gamma * t
    dp = model.paths.d_distinct
    s = sigma.sigma
    lead = 1.0 / (model.alpha * s[0])
    limit = model.beta * dp[0] / model.alpha
    if dp.size > 1:
        exponent = dp[1] / dp[0]
        decay = math.exp(-model.alpha * (1.0 - exponent) * tau)
        correction = (s[1] / s[0]) * lead**exponent * decay
        shift = model.beta * s[1] * (dp[0] - dp[1]) * lead**exponent * decay
    else:
        correction = shift = 0.0
    x = np.empty(model.n)
    x_size = np.empty(model.n)
    for k in range(dp.size):
        idx = np.flatnonzero(model.paths.group == k)
        if k == 0:
            x[idx] = x0[idx] * (lead - correction)
            x_size[idx] = x0[idx] * (lead + correction)
        else:
            exponent_k = dp[k] / dp[0]
            x[idx] = x0[idx] * lead**exponent_k * math.exp(-model.alpha * (1.0 - exponent_k) * tau)
            x_size[idx] = x[idx]
    return x, x_size, limit - shift, limit + shift, correction / lead


@st.composite
def expansion_runs(draw):
    """Identity-sum systems as in :func:`identity_sum_runs`, sampled from t = 0
    to gain-scaled times far past the point where every decay underflows."""
    model, x0, _, steps = draw(identity_sum_runs())
    reach = 10.0 ** draw(st.floats(-6.0, 4.0))  # alpha tau at the last sample
    return model, x0, reach / (model.alpha * model.gamma * steps), steps


@settings(max_examples=100, deadline=None)
@given(expansion_runs())
def test_asymptotic_expansion_properties(run):
    model, x0, dt, steps = run
    traj = sample_asymptotic(model, x0, dt, steps)
    sigma = sigma_coefficients(model, x0)
    assert np.all(np.isfinite(traj.states))
    for k, t in enumerate(traj.times):
        state = asymptotic_state(sigma, model, x0, float(t))
        x, x_size, total, total_size, ratio = reference_asymptotic_state(sigma, model, x0, float(t))
        assert np.all(np.abs(state.x - traj.states[k]) <= 1e-12 * x_size)
        assert np.all(np.abs(traj.states[k] - x) <= 1e-13 * x_size)
        assert abs(state.total - total) <= 1e-13 * total_size
        assert state.correction_ratio == pytest.approx(ratio, rel=1e-13, abs=0.0)
        assert state.leading_valid == (ratio <= CORRECTION_LIMIT)
        assert traj.leading_valid[k] == state.leading_valid
        # while the first correction is small the truncated expansion stays positive
        if state.leading_valid:
            assert np.all(traj.states[k] >= 0.0)
