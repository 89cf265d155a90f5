"""Integrator, positivity policy, envelope and CSV tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn import (
    DomainError,
    IntegrationError,
    PositivityError,
    PositivityPolicy,
    Scheme,
    Trajectory,
    check_sum_bounds,
    g_eval,
    integrate,
    integrate_rows,
    iter_trajectory_csv,
    sum_envelope,
    trajectory_to_csv,
    vector_field,
    write_trajectory_csv,
)
from antdyn import simulate
from antdyn._scalar import SCALAR_PATHS
from antdyn.closedform import sample_asymptotic, sample_exact
from antdyn.models import GKind, PhiKind, rhs
from antdyn._output import _FMT_CELLS, _format_tables
from antdyn.simulate import _CHECK_BLOCK, CLAMP_FLOOR

from helpers import make_model

# Path counts of a solo run, drawn on both sides of SCALAR_PATHS: identity
# and signum runs of at most that many paths step in Python floats.
SOLO_PATHS = st.one_of(
    st.integers(1, SCALAR_PATHS), st.integers(SCALAR_PATHS + 1, SCALAR_PATHS + 8)
)


def test_euler_matches_hand_rolled_loop():
    model = make_model([1, 2, 3], alpha=0.9, beta=1.4, gamma=2.0)
    x0 = np.array([0.3, 0.8, 0.4])
    dt, steps = 0.01, 50
    traj = integrate(model, x0, dt, steps)

    x = x0.copy()
    expected = [x0.copy()]
    for _ in range(steps):
        sat = 1.0 / x.sum()
        x = x + dt * model.gamma * (-model.alpha + model.beta * sat * model.paths.d) * x
        expected.append(x.copy())
    assert np.allclose(traj.states, expected, rtol=1e-15)
    assert np.allclose(traj.times, np.arange(steps + 1) * dt)
    assert np.allclose(traj.sums, traj.states.sum(axis=1))
    assert traj.scheme is Scheme.EULER
    assert traj.steps == steps
    assert traj.n == 3
    assert np.array_equal(traj.final_state, traj.states[-1])


def test_rk4_single_step_matches_stage_arithmetic():
    model = make_model([1, 2], alpha=0.7, beta=1.1, gamma=1.5, g="tanh")
    x0 = np.array([0.5, 0.9])
    dt = 0.05
    traj = integrate(model, x0, dt, 1, scheme=Scheme.RK4)
    k1 = vector_field(model, x0)
    k2 = vector_field(model, x0 + 0.5 * dt * k1)
    k3 = vector_field(model, x0 + 0.5 * dt * k2)
    k4 = vector_field(model, x0 + dt * k3)
    expected = x0 + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    assert np.allclose(traj.states[1], expected, rtol=1e-15)


def test_rk4_self_convergence_is_fourth_order():
    model = make_model([1, 2, 4], alpha=0.5, beta=0.8, gamma=1.0, g="tanh")
    x0 = np.array([0.4, 0.7, 0.9])
    t_end = 1.0
    reference = integrate(model, x0, t_end / 1024, 1024, scheme=Scheme.RK4).final_state
    err = []
    for steps in (16, 32):
        final = integrate(model, x0, t_end / steps, steps, scheme=Scheme.RK4).final_state
        err.append(np.max(np.abs(final - reference)))
    ratio = err[0] / err[1]
    assert 12.0 < ratio < 20.0


def test_zero_steps_returns_initial_sample_only():
    model = make_model([1, 2])
    traj = integrate(model, [0.5, 0.5], 0.1, 0)
    assert traj.states.shape == (1, 2)
    assert traj.times[0] == 0.0
    assert traj.steps == 0


def test_integrate_input_validation():
    model = make_model([1, 2])
    with pytest.raises(DomainError, match="component 1"):
        integrate(model, [0.5, 0.0], 0.1, 10)
    with pytest.raises(ValueError, match="shape"):
        integrate(model, [0.5, 0.5, 0.5], 0.1, 10)
    with pytest.raises(ValueError, match="dt"):
        integrate(model, [0.5, 0.5], -0.1, 10)
    with pytest.raises(ValueError, match="steps"):
        integrate(model, [0.5, 0.5], 0.1, -1)
    with pytest.raises(ValueError, match="not an integrator"):
        integrate(model, [0.5, 0.5], 0.1, 10, scheme=Scheme.EXACT)


def test_dt_is_stepped_sampled_and_stored_as_the_float_it_checks_as():
    model, tanh = make_model([1, 2]), make_model([1, 2], g="tanh")
    producers = [
        lambda dt: integrate(model, [0.5, 0.5], dt, 3),  # Python floats
        lambda dt: integrate(tanh, [0.5, 0.5], dt, 3, Scheme.RK4),  # numpy
        lambda dt: integrate_rows([model, tanh], [0.5, 0.5], dt, 3)[0],
        lambda dt: sample_exact(model, [0.5, 0.5], dt, 3),
        lambda dt: sample_asymptotic(model, [0.5, 0.5], dt, 3),
    ]
    for produce in producers:
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"^dt must be a number, got {flag}$"):
                produce(flag)
        for dt in (1, np.int64(1), "0.25", np.float32(0.25)):
            traj, want = produce(dt), produce(float(dt))
            assert type(traj.dt) is float and traj.dt == want.dt
            assert traj.times.dtype == np.float64
            assert np.array_equal(traj.times, want.times)
            assert np.array_equal(traj.states, want.states)
    with pytest.raises(ValueError, match="^alpha must be a number, got True$"):
        make_model([1, 2], alpha=True)


def overshooting_model():
    # evaporation dominates and dt * gamma * alpha > 1: Euler overshoots 0
    return make_model([1, 2], alpha=5.0, beta=0.01, gamma=10.0)


def test_positivity_reject_raises_with_location():
    with pytest.raises(PositivityError) as info:
        integrate(overshooting_model(), [1.0, 1.0], 1.0, 10)
    assert info.value.step == 1
    assert info.value.component in (0, 1)
    assert "step size is too coarse" in str(info.value)


def test_positivity_clamp_flags_and_continues():
    traj = integrate(
        overshooting_model(), [1.0, 1.0], 1.0, 10, positivity=PositivityPolicy.CLAMP_EPSILON
    )
    assert traj.positivity_violated
    step, component = traj.first_violation
    assert step == 1 and component in (0, 1)
    assert traj.states.shape == (11, 2)
    assert np.all(traj.states >= CLAMP_FLOOR)


def test_clamp_keeps_a_zero_beside_a_negative_component():
    # the first Euler step lands on (0.0, -0.25): only the negative
    # component is clamped, and the zero stays on the face x_1 = 0
    model = make_model([1, 2], alpha=2.0)
    clamp = PositivityPolicy.CLAMP_EPSILON
    runs = [
        integrate(model, [0.5, 0.5], 1.0, 3, positivity=clamp),
        *integrate_rows([model], [0.5, 0.5], 1.0, 3, positivity=clamp),
    ]
    for traj in runs:
        assert traj.states[1].tolist() == [0.0, CLAMP_FLOOR]
        assert traj.first_violation == (1, 1)


def test_underflow_to_zero_is_not_a_positivity_loss():
    # dt is 60 % of the Euler bound dt * gamma * alpha < 1, so no step
    # overshoots; x_2 decays through the subnormals to exactly 0.0 (at
    # step 959), which lies on the invariant face x_2 = 0
    model = make_model([1, 10])
    traj = integrate(model, [0.5, 0.5], 0.6, 3000)
    assert traj.final_state[1] == 0.0
    assert not traj.positivity_violated
    # past the bound the first step still overshoots to x_2 = -0.04
    with pytest.raises(PositivityError, match=r"reached -0\.04") as info:
        integrate(model, [0.5, 0.5], 1.2, 3)
    assert (info.value.step, info.value.component) == (1, 1)
    assert "np.float64" not in str(info.value)


def test_the_step_that_overshoots_names_the_negative_component_not_a_zero_one():
    # at alpha = 2 and dt = 1 the first Euler step sends x_1 to 0.5 - 1 * 0.5
    # = 0 exactly, on its invariant face, and x_2 to 0.5 - 1.5 * 0.5 < 0
    model = make_model([1, 2], alpha=2.0)
    with pytest.raises(PositivityError, match=r"component 1 reached -0\.25 at step 1;") as info:
        integrate(model, [0.5, 0.5], 1.0, 3)
    assert (info.value.step, info.value.component) == (1, 1)
    traj = integrate(model, [0.5, 0.5], 1.0, 3, positivity=PositivityPolicy.CLAMP_EPSILON)
    assert traj.first_violation == (1, 1)


def test_positivity_preserved_at_preset_step_sizes():
    # gamma * alpha * dt < 1 keeps Euler inside the orthant
    model = make_model(range(1, 11), alpha=1.0, beta=1.0, gamma=10.0)
    traj = integrate(model, np.arange(1, 11) * 0.1, 0.02, 500)
    assert np.all(traj.states > 0.0)
    assert not traj.positivity_violated


def test_non_finite_step_aborts_with_integration_error():
    with np.errstate(over="ignore"):
        with pytest.raises(IntegrationError, match="non-finite") as info:
            integrate(overshooting_model(), [1.0, 1.0], 1e308, 3)
    assert info.value.step == 1
    assert not isinstance(info.value, PositivityError)
    # a run whose last step overflows to +inf, with no nan to fail the
    # check's minimum, through the generated stepper and through numpy
    for g in ("identity", "signum", "tanh"):
        model = make_model([1.0], beta=2.0, gamma=1e300, g=g)
        with pytest.raises(IntegrationError, match="non-finite value in component 0 at step 1;"):
            integrate(model, [1.0], 1e10, 1)


def reference_field(model, x):
    """vector_field, extended to the out-of-domain RK4 stage points it rejects."""
    try:
        return vector_field(model, x)
    except DomainError:
        # numpy scalars, so a zero saturation gives inf as in the kernel
        sat = 1.0 / (np.sum(x) if model.phi_kind is PhiKind.SUM else np.max(x))
        a = -model.alpha + model.beta * sat * model.paths.d
        return model.gamma * g_eval(model.g_kind, a) * x


def reference_integrate(model, x0, dt, steps, scheme, positivity):
    """The per-step loop: step, check finiteness, check sign, clamp or raise."""

    def f(x):
        return reference_field(model, x)

    x = np.asarray(x0, dtype=float)
    states = [x]
    first_violation = None
    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            if scheme is Scheme.EULER:
                x = x + dt * f(x)
            else:
                k1 = f(x)
                k2 = f(x + 0.5 * dt * k1)
                k3 = f(x + 0.5 * dt * k2)
                k4 = f(x + dt * k3)
                x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(x)):
                raise IntegrationError("non-finite", step=k)
            if np.any(x < 0.0):
                bad = int(np.flatnonzero(x < 0.0)[0])
                if positivity is PositivityPolicy.REJECT:
                    raise PositivityError("negative", step=k, component=bad)
                if first_violation is None:
                    first_violation = (k, bad)
                x = np.where(x < 0.0, CLAMP_FLOOR, x)
            states.append(x)
    return np.array(states), first_violation


def run_integrate(*args):
    traj = integrate(*args)
    return traj.states, traj.first_violation


def outcome(run, *args):
    """``(states, first_violation)`` of a run, or ``(type, step, component)`` of its error."""
    try:
        return run(*args)
    except IntegrationError as err:
        return type(err), err.step, getattr(err, "component", None)


def assert_matches_reference(*args):
    expected = outcome(reference_integrate, *args)
    got = outcome(run_integrate, *args)
    if isinstance(expected[0], np.ndarray):
        assert np.array_equal(got[0], expected[0])
        assert got[1] == expected[1]
    else:
        assert got == expected
    return expected


def euler_bound(model):
    """Largest dt with dt * gamma * |g(-alpha)| <= 1, past which Euler can overshoot 0."""
    return 1.0 / (model.gamma * abs(float(g_eval(model.g_kind, -model.alpha))))


@settings(max_examples=200, deadline=None)
@given(
    phi=st.sampled_from(list(PhiKind)),
    g=st.sampled_from(list(GKind)),
    scheme=st.sampled_from([Scheme.EULER, Scheme.RK4]),
    positivity=st.sampled_from(list(PositivityPolicy)),
    # up to 32 paths, as the benchmark draws: from 8 on, numpy sums with eight accumulators
    lengths=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=32),
    rates=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    log_x0=st.lists(st.floats(-3.0, 2.0), min_size=32, max_size=32),
    dt_fraction=st.floats(0.05, 3.0),
    steps=st.integers(0, 200),
)
def test_integrate_matches_per_step_reference(
    phi, g, scheme, positivity, lengths, rates, log_x0, dt_fraction, steps
):
    alpha, beta, gamma = rates
    model = make_model(lengths, alpha=alpha, beta=beta, gamma=gamma, phi=phi, g=g)
    x0 = 10.0 ** np.array(log_x0[: model.n])
    dt = dt_fraction * euler_bound(model)
    assert_matches_reference(model, x0, dt, steps, scheme, positivity)


@pytest.mark.parametrize(
    "x1, step",
    [(0.453, 64), (0.544, 65), (0.501, 143)],
    ids=["last-step-of-block", "first-step-of-block", "last-partial-block"],
)
@pytest.mark.parametrize("positivity", list(PositivityPolicy))
def test_first_violation_is_exact_at_check_block_edges(x1, step, positivity):
    # dt * alpha = 2.05 > 2: Euler oscillates about the equilibrium sum 1
    # with a growing amplitude, and the starting offset sets when it
    # first overshoots 0; 150 steps end in a partial block of 22
    model = make_model([1.0, 1.0])
    expected = assert_matches_reference(
        model, [x1, 0.5], 2.05, 150, Scheme.EULER, positivity
    )
    if positivity is PositivityPolicy.REJECT:
        assert expected == (PositivityError, step, 0)
    else:
        assert expected[1] == (step, 0)


def test_clamp_holds_a_component_pinned_at_the_floor(monkeypatch):
    # Near the equilibrium (1, 0), dt * gamma * |g(a_2)| = 1.5 * 0.9 > 1, so
    # every Euler step sends x_2 from the floor below 0 and the clamp
    # puts it back
    model = make_model([1.0, 10.0])
    args = (model, [0.5, 0.5], 1.5, 500, Scheme.EULER, PositivityPolicy.CLAMP_EPSILON)
    states, first_violation = assert_matches_reference(*args)
    assert first_violation == (1, 1)
    assert np.all(states[1:, 1] == CLAMP_FLOOR)

    # Each clamp costs one step: only the first failing block is integrated twice
    calls = []

    def counting_rhs(model):
        f = rhs(model)

        def counted(x, *out):
            calls.append(None)
            return f(x, *out)

        return counted

    monkeypatch.setattr(simulate, "rhs", counting_rhs)
    integrate(*args)
    assert len(calls) <= 500 + _CHECK_BLOCK


VARIANTS = [(phi, g) for phi in PhiKind for g in GKind]


def solo_outcome(model, x0, dt, steps, scheme, positivity):
    """The trajectory of one model integrated alone, or the error it raises."""
    try:
        return integrate(model, x0, dt, steps, scheme, positivity)
    except IntegrationError as err:
        return err


def error_facts(err):
    return type(err), str(err), err.step, getattr(err, "component", None)


@settings(max_examples=120, deadline=None)
@given(
    variants=st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=7),
    # solo runs of identity and signum models up to SCALAR_PATHS paths step
    # in Python floats, longer ones and tanh ones in numpy
    n=SOLO_PATHS,
    scheme=st.sampled_from([Scheme.EULER, Scheme.RK4]),
    positivity=st.sampled_from(list(PositivityPolicy)),
    shared_x0=st.booleans(),
    dt_fraction=st.floats(0.05, 3.0),
    steps=st.integers(0, 150),
    data=st.data(),
)
def test_integrate_rows_are_solo_runs(
    variants, n, scheme, positivity, shared_x0, dt_fraction, steps, data
):
    rates = st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    lengths = st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n)
    models = []
    for phi, g in variants:
        alpha, beta, gamma = data.draw(rates)
        models.append(
            make_model(data.draw(lengths), alpha=alpha, beta=beta, gamma=gamma, phi=phi, g=g)
        )
    rows = len(models)
    log_x0 = st.lists(st.floats(-3.0, 2.0), min_size=n, max_size=n)
    x0 = 10.0 ** np.array(data.draw(log_x0) if shared_x0 else [data.draw(log_x0) for _ in models])
    dt = dt_fraction * euler_bound(models[0])
    solo = [
        solo_outcome(model, x0 if shared_x0 else x0[i], dt, steps, scheme, positivity)
        for i, model in enumerate(models)
    ]
    failed = [(out.step, i) for i, out in enumerate(solo) if isinstance(out, IntegrationError)]
    if failed:
        _, first = min(failed)
        with pytest.raises(IntegrationError) as info:
            integrate_rows(models, x0, dt, steps, scheme, positivity)
        assert error_facts(info.value) == error_facts(solo[first])
        assert info.value.row == first
        return
    got = integrate_rows(models, x0, dt, steps, scheme, positivity)
    assert len(got) == rows
    for traj, want in zip(got, solo):
        assert np.array_equal(traj.states, want.states)
        assert np.array_equal(traj.sums, want.sums)
        assert np.array_equal(traj.times, want.times)
        assert traj.first_violation == want.first_violation
        assert (traj.scheme, traj.dt) == (want.scheme, want.dt)
        assert traj.states.flags.c_contiguous


def test_integrate_rows_one_model_is_integrate():
    model = make_model([1, 2, 3], g="tanh")
    (traj,) = integrate_rows([model], [0.3, 0.8, 0.4], 0.05, 100, Scheme.RK4)
    want = integrate(model, [0.3, 0.8, 0.4], 0.05, 100, Scheme.RK4)
    assert np.array_equal(traj.states, want.states)
    with pytest.raises(PositivityError) as info:
        integrate_rows([overshooting_model()], [[1.0, 1.0]], 1.0, 10)
    assert info.value.row == 0
    with pytest.raises(PositivityError) as solo:
        integrate(overshooting_model(), [1.0, 1.0], 1.0, 10)
    assert error_facts(info.value) == error_facts(solo.value)
    assert solo.value.row == 0


def test_integrate_rows_clamps_each_row_on_its_own():
    # the overshooting row is clamped from step 1 on; the other never is
    rows = [make_model([1, 2]), overshooting_model(), make_model([1, 2], g="signum")]
    got = integrate_rows(rows, [1.0, 1.0], 1.0, 10, positivity=PositivityPolicy.CLAMP_EPSILON)
    assert [traj.first_violation is not None for traj in got] == [False, True, False]
    assert got[1].first_violation[0] == 1
    for traj, model in zip(got, rows):
        want = integrate(model, [1.0, 1.0], 1.0, 10, positivity=PositivityPolicy.CLAMP_EPSILON)
        assert np.array_equal(traj.states, want.states)


def test_integrate_rows_input_validation():
    two, three = make_model([1, 2]), make_model([1, 2, 3], phi="max")
    with pytest.raises(ValueError, match="at least one model"):
        integrate_rows([], [0.5, 0.5], 0.1, 10)
    with pytest.raises(ValueError, match=r"one number of paths, got \[2, 3\]"):
        integrate_rows([two, three], [0.5, 0.5], 0.1, 10)
    with pytest.raises(ValueError, match=r"shape \(3,\), which does not broadcast to \(2, 2\)"):
        integrate_rows([two, two], [0.5, 0.5, 0.5], 0.1, 10)
    with pytest.raises(ValueError, match=r"x0 has shape \(3, 2\)"):
        integrate_rows([two, two], np.full((3, 2), 0.5), 0.1, 10)
    with pytest.raises(DomainError, match=r"component 1 of x0 row 1 is -0\.25; must be") as info:
        integrate_rows([two, two], [[0.5, 0.5], [0.5, -0.25]], 0.1, 10)
    assert "np.float64" not in str(info.value)
    with pytest.raises(DomainError, match=r"component 0 of x0 is nan;"):
        integrate_rows([two, two], [np.nan, 0.5], 0.1, 10)
    with pytest.raises(ValueError, match="not an integrator"):
        integrate_rows([two, two], [0.5, 0.5], 0.1, 10, scheme=Scheme.EXACT)
    with pytest.raises(ValueError, match="steps"):
        integrate_rows([two, two], [0.5, 0.5], 0.1, -1)


@settings(max_examples=150, deadline=None)
@given(
    producer=st.sampled_from(["euler", "rk4", "rows", "exact", "asymptotic"]),
    # identity runs up to SCALAR_PATHS paths step in Python floats, longer ones
    # and tanh ones in numpy; a block of several models always does
    n=SOLO_PATHS,
    g=st.sampled_from([GKind.IDENTITY, GKind.TANH]),
    dt_fraction=st.floats(0.05, 0.9),
    steps=st.integers(0, 150),
    data=st.data(),
)
def test_times_and_sums_are_derived_bitwise(producer, n, g, dt_fraction, steps, data):
    rates = st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    lengths = st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n)
    alpha, beta, gamma = data.draw(rates)
    model = make_model(data.draw(lengths), alpha=alpha, beta=beta, gamma=gamma, g=g)
    x0 = 10.0 ** np.array(data.draw(st.lists(st.floats(-3.0, 2.0), min_size=n, max_size=n)))
    identity = replace(model, g_kind=GKind.IDENTITY)
    dt = dt_fraction * euler_bound(identity)  # within the tanh bound too
    clamp = PositivityPolicy.CLAMP_EPSILON
    if producer in ("euler", "rk4"):
        runs = [integrate(model, x0, dt, steps, Scheme(producer), clamp)]
    elif producer == "rows":
        # a row whose first Euler step sends every component far below 0
        overshoot = make_model(data.draw(lengths), alpha=1.0, beta=0.01, gamma=5.0 / dt)
        other = replace(model, g_kind=GKind.TANH) if g is GKind.IDENTITY else identity
        runs = integrate_rows([model, overshoot, other], x0, dt, steps, positivity=clamp)
        assert [traj.first_violation is not None for traj in runs] == [False, steps > 0, False]
    else:
        sample = sample_exact if producer == "exact" else sample_asymptotic
        runs = [sample(identity, x0, dt, steps)]
    grid = (np.arange(steps + 1) * dt).tobytes()
    # the sums as the producers stored them: one reduction over the (B, steps + 1, n) block
    for traj, sums in zip(runs, np.stack([run.states for run in runs]).sum(axis=-1)):
        assert traj.times.tobytes() == grid
        assert traj.sums.tobytes() == sums.tobytes()
        # once the sums are read, the states they came from cannot change
        check_sum_bounds(traj, identity)
        k = data.draw(st.integers(0, steps))
        with pytest.raises(ValueError, match="read-only"):
            traj.states[k, 0] += 5.0
        if traj.leading_valid is not None:
            with pytest.raises(ValueError, match="read-only"):
                traj.leading_valid[k] = not traj.leading_valid[k]
        assert traj.sums.tobytes() == sums.tobytes()


def test_sum_envelope_endpoints_and_limits():
    model = make_model([1, 2, 4], alpha=0.5, beta=2.0, gamma=3.0)
    times = np.array([0.0, 1.0, 200.0])
    lower, upper = sum_envelope(model, 7.0, times)
    assert lower[0] == pytest.approx(7.0)
    assert upper[0] == pytest.approx(7.0)
    assert lower[-1] == pytest.approx(model.beta * model.paths.d[-1] / model.alpha, rel=1e-9)
    assert upper[-1] == pytest.approx(model.beta * model.paths.d[0] / model.alpha, rel=1e-9)
    assert np.all(lower <= upper)


def test_check_sum_bounds_on_real_run():
    model = make_model(range(1, 11), alpha=1.0, beta=1.0, gamma=10.0)
    traj = integrate(model, np.arange(1, 11) * 0.1, 0.02, 2000)
    report = check_sum_bounds(traj, model)
    assert report.within
    assert report.max_violation == 0.0
    assert report.allowance == pytest.approx(10 * 0.02 * 10.0 * 1.0 * 1.0)
    # the slack grows with the largest weight, here d_1 = 1 / 2
    halved = make_model(range(2, 12), alpha=1.0, beta=1.0, gamma=10.0)
    report = check_sum_bounds(integrate(halved, np.arange(1, 11) * 0.05, 0.02, 200), halved)
    assert report.within and report.allowance == pytest.approx(10 * 0.02 * 10.0 * 1.0 * 0.5)


def test_check_sum_bounds_flags_doctored_sums():
    model = make_model([1, 2], alpha=1.0, beta=1.0, gamma=1.0)
    traj = integrate(model, [0.5, 0.5], 0.05, 40)
    spiked = traj.states.copy()
    spiked[20] = traj.states[0] + 2.5  # a sum far above the decaying upper bound
    doctored = Trajectory(states=spiked, scheme=traj.scheme, dt=traj.dt)
    report = check_sum_bounds(doctored, model)
    assert not report.within
    assert report.max_violation > 1.0


def test_check_sum_bounds_rejects_other_variants():
    model = make_model([1, 2], g="tanh")
    traj = integrate(model, [0.5, 0.5], 0.05, 10)
    with pytest.raises(ValueError, match="identity"):
        check_sum_bounds(traj, model)


def test_csv_header_digits_and_round_trip():
    model = make_model([1, 2, 3])
    traj = integrate(model, [1 / 3, 2 / 7, 0.9], 0.01, 25)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x_1,x_2,x_3,S"
    assert len(lines) == 27
    parsed = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:4], traj.states)
    assert np.array_equal(parsed[:, 4], traj.sums)


def test_csv_source_column():
    model = make_model([1, 2])
    traj = integrate(model, [0.5, 0.5], 0.1, 2)
    text = trajectory_to_csv(traj, source="euler")
    lines = text.strip().split("\n")
    assert lines[0] == "t,x_1,x_2,S,source"
    assert all(line.endswith(",euler") for line in lines[1:])
    # only the caller's source adds the column, whatever the scheme
    tagged = Trajectory(states=traj.states, scheme=Scheme.EXACT, dt=traj.dt)
    assert trajectory_to_csv(tagged).splitlines()[0] == "t,x_1,x_2,S"
    assert trajectory_to_csv(tagged, source="exact").splitlines()[1].endswith(",exact")


def old_trajectory_to_csv(traj, source=None) -> str:
    """The row-by-row ``%`` rendering that ``trajectory_to_csv`` replaced."""
    columns = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["S"]
    if source is not None:
        columns.append("source")
    tail = f",{source}\n" if source is not None else "\n"
    row = ",".join(["%.17g"] * (traj.n + 2)) + tail.replace("%", "%%")
    values = np.column_stack([traj.times, traj.states, traj.sums]).tolist()
    return ",".join(columns) + "\n" + "".join([row % tuple(v) for v in values])


def test_csv_is_the_row_by_row_rendering():
    model = make_model(range(1, 11), alpha=1.0, beta=1.0, gamma=10.0)
    x0 = np.arange(1, 11) * 0.1
    two_paths = make_model([1, 2])
    clamped = integrate(
        overshooting_model(), [1.0, 1.0], 1.0, 10, positivity=PositivityPolicy.CLAMP_EPSILON
    )
    assert np.any(clamped.states == CLAMP_FLOOR)
    asymptotic = sample_asymptotic(two_paths, (0.01, 10.0), 0.05, 100)
    assert np.any(asymptotic.states < 0.0)
    runs = [
        integrate(model, x0, 0.02, 2000),
        integrate(model, x0, 0.02, 300, scheme=Scheme.RK4),
        clamped,
        sample_exact(two_paths, (0.01, 10.0), 0.05, 100),
        asymptotic,
    ]
    for traj in runs:
        for source in (None, traj.scheme.value, "100%"):
            assert trajectory_to_csv(traj, source=source) == old_trajectory_to_csv(traj, source)


def test_csv_is_deterministic_and_written_atomically(tmp_path):
    model = make_model([1, 2])
    traj = integrate(model, [0.5, 0.5], 0.1, 20)
    assert trajectory_to_csv(traj) == trajectory_to_csv(traj)
    target = tmp_path / "nested" / "dir" / "traj.csv"
    write_trajectory_csv(traj, target)
    assert target.read_text() == trajectory_to_csv(traj)
    assert not list(target.parent.glob("*.tmp*"))


def many_pass_run():
    """A run whose CSV takes several passes of the formatter (24,012 cells)."""
    model = make_model(range(1, 11), gamma=10.0)
    return integrate(model, np.arange(1, 11) * 0.1, 0.02, 2000)


def test_streamed_csv_is_the_text_api(tmp_path):
    traj = many_pass_run()
    for source in (None, "euler"):
        passes = list(iter_trajectory_csv(traj, source))
        assert len(passes) > 3  # the header, then the passes
        target = write_trajectory_csv(traj, tmp_path / f"{source}.csv", source=source)
        assert target.read_bytes() == trajectory_to_csv(traj, source=source).encode()
        assert "".join(passes) == trajectory_to_csv(traj, source=source)


class FormatterFailed(Exception):
    pass


def test_a_failed_stream_keeps_the_old_file(tmp_path, monkeypatch):
    traj = many_pass_run()
    real = simulate.format_passes

    def first_pass_then_fail(columns, end):
        yield next(real(columns, end))
        raise FormatterFailed

    target = tmp_path / "traj.csv"
    target.write_bytes(b"old contents\n")
    monkeypatch.setattr(simulate, "format_passes", first_pass_then_fail)
    with pytest.raises(FormatterFailed):
        write_trajectory_csv(traj, target)
    assert target.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_streamed_csv_memory_is_bounded_by_a_pass(tmp_path):
    # 13 MB of CSV text; a pass of the formatter allocates about 306 B a cell
    rng = np.random.default_rng(0)
    traj = Trajectory(states=rng.uniform(0.1, 2.0, (20_001, 32)), scheme=Scheme.EULER, dt=0.01)
    _format_tables()  # built once per process, outside the bound
    traj.times, traj.sums  # the run's own arrays, derived once, outside the bound too
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "long.csv", source="euler")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * _FMT_CELLS * 320
    assert (tmp_path / "long.csv").stat().st_size > 13_000_000


def order_rises(traj):
    """One-step rises of ``ln(x_{i+1} / x_i)`` over adjacent canonical pairs, and the
    allowance ``1e-12 (|ln ratio| + 1)`` of each; steps touching a zero component are left out."""
    states = traj.states
    live = np.all(states > 0.0, axis=1)
    kept = live[:-1] & live[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(states[:, 1:] / states[:, :-1])
    before = log_ratio[:-1][kept]
    return log_ratio[1:][kept] - before, 1e-12 * (np.abs(before) + 1.0)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    # exact ties among them, whose ratios an Euler step keeps up to rounding
    lengths=st.lists(
        st.one_of(st.floats(1.0, 10.0), st.sampled_from([1.0, 2.0])), min_size=2, max_size=32
    ),
    rates=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
    log_x0=st.lists(st.floats(-4.0, 0.0), min_size=32, max_size=32),
    share=st.floats(0.01, 0.5),
)
def test_euler_never_raises_a_longer_path_against_a_shorter_one(
    variant, lengths, rates, log_x0, share
):
    # a_i - a_j = beta phi(x) (d_i - d_j) and g is nondecreasing, so an Euler step
    # multiplies x_{i+1} / x_i by at most 1 when d_{i+1} <= d_i: the selection behind
    # the convergence to the shortest paths, and the one whole-run check of tanh-sum
    phi, g = variant
    alpha, beta, gamma = rates
    model = make_model(lengths, alpha=alpha, beta=beta, gamma=gamma, phi=phi, g=g)
    # dt at 1-50 % of 1 / (gamma sup(-g)), the bound the benchmark draws from
    traj = integrate(model, 10.0 ** np.array(log_x0[: model.n]), share * euler_bound(model), 400)
    rise, allowance = order_rises(traj)
    assert np.all(rise <= allowance)


def test_the_order_check_fails_on_weights_in_reverse_order():
    model = make_model(np.linspace(1.0, 4.0, 6), alpha=0.5, beta=0.8, gamma=0.7, g="tanh")
    reverse = replace(model, paths=replace(model.paths, d=model.paths.d[::-1].copy()))
    traj = integrate(reverse, np.full(6, 0.3), 0.2 * euler_bound(reverse), 400)
    rise, allowance = order_rises(traj)
    assert not np.all(rise <= allowance)


def euler_by_hand(x0, dt, steps, growth):
    """Euler states of ``dx/dt = growth(x) * x``, stepped here rather than by ``integrate``."""
    states = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        x = states[-1]
        states.append(x + dt * growth(x) * x)
    return Trajectory(states=np.array(states), scheme=Scheme.EULER, dt=dt)


def test_the_order_check_fails_on_the_response_applied_with_the_wrong_sign():
    model = make_model(np.linspace(1.0, 4.0, 6), alpha=0.5, beta=0.8, gamma=0.7, g="tanh")
    x0, dt, d = np.full(6, 0.3), 0.2 * euler_bound(model), model.paths.d

    def flipped(x):
        return model.gamma * -g_eval(model.g_kind, -model.alpha + model.beta * d / x.sum())

    rise, allowance = order_rises(euler_by_hand(x0, dt, 400, flipped))
    assert not np.all(rise <= allowance)
    rise, allowance = order_rises(integrate(model, x0, dt, 400))
    assert np.all(rise <= allowance)


def test_the_order_check_fails_on_the_saturation_taken_per_component():
    # a_i = -alpha + beta d_i / x_i: from a start that falls steeply along the
    # canonical order, each ratio x_{i+1} / x_i rises toward d_{i+1} / d_i
    model = make_model(np.linspace(1.0, 4.0, 6), alpha=0.5, beta=0.8, gamma=0.7)
    x0, dt, d = 10.0 ** -np.arange(6.0), 0.2 * euler_bound(model), model.paths.d

    def per_component(x):
        return model.gamma * g_eval(model.g_kind, -model.alpha + model.beta * d / x)

    rise, allowance = order_rises(euler_by_hand(x0, dt, 400, per_component))
    assert not np.all(rise <= allowance)
    rise, allowance = order_rises(integrate(model, x0, dt, 400))
    assert np.all(rise <= allowance)


@settings(max_examples=100, deadline=None)
@given(
    scheme=st.sampled_from([Scheme.EULER, Scheme.RK4]),
    # up to SCALAR_PATHS paths the run steps in Python floats, beyond in numpy
    n=SOLO_PATHS,
    rates=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
    share=st.floats(0.01, 0.5),
    data=st.data(),
)
def test_identity_sum_weighted_mass_relaxes_as_the_scheme_predicts(scheme, n, rates, share, data):
    # W = sum_i x_i / (beta d_i) is linear in the state and obeys dW/dtau = 1 - alpha W,
    # so the iterates follow W_k = 1/alpha + (W_0 - 1/alpha) R(-alpha h)^k with h = gamma dt
    # and R the scheme's stability polynomial
    lengths = data.draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    x0 = 10.0 ** np.array(data.draw(st.lists(st.floats(-4.0, 0.0), min_size=n, max_size=n)))
    alpha, beta, gamma = rates
    model = make_model(lengths, alpha=alpha, beta=beta, gamma=gamma)
    dt = share * euler_bound(model)
    traj = integrate(model, x0, dt, 400, scheme=scheme)
    w = (traj.states / (model.beta * model.paths.d)).sum(axis=1)
    z = -alpha * gamma * dt
    r = 1.0 + z if scheme is Scheme.EULER else 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    predicted = 1.0 / alpha + (w[0] - 1.0 / alpha) * r ** np.arange(traj.steps + 1)
    assert np.all(np.abs(w - predicted) <= 1e-12 * np.maximum(np.abs(w), 1.0 / alpha))


@settings(max_examples=100, deadline=None)
@given(
    scheme=st.sampled_from([Scheme.EULER, Scheme.RK4]),
    # up to SCALAR_PATHS paths the run steps in Python floats, beyond in numpy
    n=SOLO_PATHS,
    rates=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
    share=st.floats(0.01, 0.5),
    data=st.data(),
)
def test_identity_max_leader_relaxes_as_the_scheme_predicts(scheme, n, rates, share, data):
    # a shortest path that leads at the start leads for the whole run, and while path j
    # leads, phi = 1 / x_j makes its equation affine, dx_j/dtau = beta d_1 - alpha x_j, so
    # the iterates follow x_{j,k} = mu_1 + (x_{j,0} - mu_1) R(-alpha h)^k with h = gamma dt
    # and R the scheme's stability polynomial
    lengths = data.draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    tied = data.draw(st.integers(1, n))
    lengths[:tied] = [min(lengths)] * tied
    x0 = 10.0 ** np.array(data.draw(st.lists(st.floats(-4.0, 0.0), min_size=n, max_size=n)))
    alpha, beta, gamma = rates
    model = make_model(lengths, alpha=alpha, beta=beta, gamma=gamma, phi="max")
    # the maximum of x0 goes to one of the paths whose weight is exactly d_1
    leaders = np.flatnonzero(model.paths.d == model.paths.d[0])
    j, top = leaders[data.draw(st.integers(0, leaders.size - 1))], x0.argmax()
    x0[[j, top]] = x0[[top, j]]
    traj = integrate(model, x0, share * euler_bound(model), 400, scheme=scheme)
    x = traj.states[:, j]
    mu = model.mu[0]
    z = -alpha * gamma * traj.dt
    r = 1.0 + z if scheme is Scheme.EULER else 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    predicted = mu + (x[0] - mu) * r ** np.arange(traj.steps + 1)
    assert np.all(np.abs(x - predicted) <= 1e-12 * np.maximum(np.abs(x), mu))
