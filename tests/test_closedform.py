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

from antdyn import (
    DomainError,
    FFunction,
    ModelSpec,
    OracleRangeError,
    PathSystem,
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
from antdyn.closedform import MAX_LOG_ARG
from antdyn.models import TIE_RTOL


def make_model(lengths, alpha=1.0, beta=1.0, gamma=1.0, phi="sum", g="identity"):
    return ModelSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_kind=phi,
        g_kind=g,
        paths=PathSystem.from_lengths(lengths),
    )


def test_f_building_blocks():
    model = make_model([1, 2, 4], beta=1.5)
    x0 = np.array([0.3, 0.7, 0.2])
    F = FFunction.from_model(model, x0)
    assert np.allclose(F.exponents, 1.5 * model.paths.d)
    assert np.allclose(F.coefficients, x0 / (1.5 * model.paths.d))
    assert F.f0 == pytest.approx(F.coefficients.sum(), rel=1e-15)
    assert F.log_f0 == pytest.approx(math.log(F.f0), rel=1e-14)


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
        for u in (0.0, 0.3, 2.0, 17.5):
            direct = float(np.sum(F.coefficients * np.exp(F.exponents * u)))
            direct_prime = float(
                np.sum(F.coefficients * F.exponents * np.exp(F.exponents * u))
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
    # targets are logs: log y for y = 1.5 F(0), F(0), and just below F(0)
    u = f_inverse(F, math.log(F.f0 * 1.5))
    assert math.exp(f_eval(F, u)) == pytest.approx(F.f0 * 1.5, rel=1e-11)
    assert f_inverse(F, F.log_f0) == pytest.approx(0.0, abs=1e-9)
    assert f_inverse(F, F.log_f0 + math.log1p(-1e-13)) == 0.0
    with pytest.raises(DomainError, match="below F"):
        f_inverse(F, math.log(F.f0 * 0.5))
    with pytest.raises(DomainError):
        f_inverse(F, -math.inf)  # y = 0
    with pytest.raises(DomainError, match="finite"):
        f_inverse(F, [math.log(F.f0 * 2.0), math.nan])


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
    with pytest.raises(ValueError, match="nonnegative"):
        exact_state(F, model, x0, -1.0)


def test_exact_and_asymptotic_state_reject_bad_x0():
    model = make_model([1, 2])
    F = FFunction.from_model(model, [0.5, 0.5])
    sigma = sigma_coefficients(model, [0.5, 0.5])
    for x0 in ((5.0, -1.0), (0.5, 0.0), (0.5, float("nan"))):
        with pytest.raises(DomainError, match="component 1 of x0"):
            exact_state(F, model, x0, 1.0)
        with pytest.raises(DomainError, match="component 1 of x0"):
            asymptotic_state(sigma, model, x0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        exact_state(F, model, (0.5, 0.5, 0.5), 1.0)


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
    assert trajectory_to_csv(exact).splitlines()[0] == "t,x_1,x_2,x_3,S,source"

    tail = sample_asymptotic(model, x0, 5.0, 4)
    assert tail.scheme is Scheme.ASYMPTOTIC
    assert trajectory_to_csv(tail).splitlines()[1].endswith(",asymptotic")
    with pytest.raises(ValueError, match="dt"):
        sample_exact(model, x0, 0.0, 4)


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
    expected = np.exp(-at) * F.f0 - np.expm1(-at) / model.alpha
    weighted = traj.states @ (1.0 / (model.beta * model.paths.d))
    np.testing.assert_allclose(weighted, expected, rtol=1e-9)

    for k, t in enumerate(traj.times):
        state = exact_state(F, model, x0, float(t))
        np.testing.assert_allclose(state.x, traj.states[k], rtol=1e-12, atol=0.0)
