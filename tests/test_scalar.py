"""Tests of the Python-float stepper of small single runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn import (
    IntegrationError,
    PositivityPolicy,
    Scheme,
    integrate,
)
from antdyn import simulate
from antdyn._scalar import SCALAR_PATHS, pairwise_sum, scalar_stepper
from antdyn.models import GKind, PhiKind

from helpers import make_model


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_pairwise_sum_is_numpys_sum_bit_for_bit():
    # pairwise_sum spells out numpy's order for fewer than 16 terms only,
    # which every run stepped in Python floats has
    assert SCALAR_PATHS < 16
    # positive terms spread over 16 decades, so that the order of the
    # additions shows in the rounding
    rng = np.random.default_rng(20140)
    plain_differs = set()
    for n in range(1, 16):
        for _ in range(50):
            v = 10.0 ** rng.uniform(-8.0, 8.0, n)
            want = float(np.add.reduce(v))
            assert pairwise_sum(v.tolist()) == want, n
            if left_to_right(v.tolist()) != want:
                plain_differs.add(n)
    # below 8 terms numpy sums left to right too; from 8 on it does not
    assert plain_differs == set(range(8, 16))


def spy_on_scalar_blocks(monkeypatch):
    """Record what each scalar block returns: True if it was stepped, False if declined."""
    blocks = []

    def spying(*args):
        advance = scalar_stepper(*args)
        if advance is None:
            return None

        def spied(*block):
            stepped = advance(*block)
            blocks.append(stepped)
            return stepped

        return spied

    monkeypatch.setattr(simulate, "scalar_stepper", spying)
    return blocks


@pytest.mark.parametrize("scheme", [Scheme.EULER, Scheme.RK4])
@pytest.mark.parametrize("phi", list(PhiKind))
@pytest.mark.parametrize("g", list(GKind))
@pytest.mark.parametrize("n", [1, SCALAR_PATHS, SCALAR_PATHS + 1, 32])
def test_only_small_identity_and_signum_runs_step_in_python(monkeypatch, n, g, phi, scheme):
    blocks = spy_on_scalar_blocks(monkeypatch)
    model = make_model(np.arange(1.0, n + 1.0), phi=phi, g=g)
    integrate(model, np.full(n, 0.5), 0.01, 100, scheme)
    eligible = n <= SCALAR_PATHS and g is not GKind.TANH
    assert blocks == ([True, True] if eligible else [])


def run_outcome(*args):
    """``(states, first_violation)`` of a run, or the facts of the error it raises."""
    try:
        traj = integrate(*args)
    except IntegrationError as err:
        return type(err), str(err), err.step, getattr(err, "component", None), err.row
    return traj.states, traj.first_violation


def numpy_outcome(monkeypatch, *args):
    """:func:`run_outcome` of the run stepped by the numpy loop alone."""
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "scalar_stepper", lambda *_: None)
        return run_outcome(*args)


def assert_same_outcome(got, want):
    if isinstance(want[0], np.ndarray):
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(
    phi=st.sampled_from(list(PhiKind)),
    g=st.sampled_from([GKind.IDENTITY, GKind.SIGNUM]),
    scheme=st.sampled_from([Scheme.EULER, Scheme.RK4]),
    positivity=st.sampled_from(list(PositivityPolicy)),
    lengths=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=SCALAR_PATHS),
    rates=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    log_x0=st.lists(st.floats(-3.0, 2.0), min_size=SCALAR_PATHS, max_size=SCALAR_PATHS),
    dt_fraction=st.floats(0.05, 3.0),
    steps=st.integers(0, 200),
)
def test_scalar_runs_are_the_numpy_loop(
    phi, g, scheme, positivity, lengths, rates, log_x0, dt_fraction, steps
):
    alpha, beta, gamma = rates
    model = make_model(lengths, alpha=alpha, beta=beta, gamma=gamma, phi=phi, g=g)
    x0 = 10.0 ** np.array(log_x0[: model.n])
    # past dt = 1 / (gamma * |g(-alpha)|), Euler can overshoot 0
    dt = dt_fraction / (gamma * (alpha if g is GKind.IDENTITY else 1.0))
    args = (model, x0, dt, steps, scheme, positivity)
    with pytest.MonkeyPatch.context() as monkeypatch:
        want = numpy_outcome(monkeypatch, *args)
    assert_same_outcome(run_outcome(*args), want)


EULER, RK4 = Scheme.EULER, Scheme.RK4
CLAMP, REJECT = PositivityPolicy.CLAMP_EPSILON, PositivityPolicy.REJECT


# Runs of two paths that leave the scalar path.  "checked": a block fails
# the finiteness and sign check.  "zero": a saturation is 0, which Python
# cannot divide by and numpy turns into an infinity; there dt * gamma * g
# = -1 sends the state (Euler) or the first RK4 stage point to exactly 0,
# after which numpy's signum reads g = 1 and goes on, and the identity
# gives 0 * inf = nan.  ``step`` is the step a rejected run fails at: a
# block's last (64, 128) or first (65, 129), as growing oscillations about
# the equilibrium overshoot 0.
@pytest.mark.parametrize(
    "why, step, model, x0, dt, steps, scheme, positivity",
    [
        pytest.param("checked", None, {}, [0.44, 0.5], 2.8, 150, RK4, CLAMP, id="rk4-clamp"),
        pytest.param("checked", 64, {}, [0.453, 0.5], 2.05, 150, EULER, REJECT, id="euler-64"),
        pytest.param("checked", 65, {}, [0.544, 0.5], 2.05, 150, EULER, REJECT, id="euler-65"),
        pytest.param("checked", 128, {}, [0.44, 0.5], 2.8, 150, RK4, REJECT, id="rk4-128"),
        pytest.param("checked", 129, {}, [0.442, 0.5], 2.8, 150, RK4, REJECT, id="rk4-129"),
        # a component pinned at the floor, clamped on every step from step 1
        pytest.param(
            "checked", None, {"lengths": [1.0, 10.0]}, [0.5, 0.5], 1.5, 500, EULER, CLAMP,
            id="euler-clamp",
        ),
        pytest.param(
            "zero", None, {"lengths": [1.0, 2.0], "beta": 0.1, "g": "signum"}, [0.5, 0.5], 1.0,
            100, EULER, REJECT, id="euler-signum-sum-zero",
        ),
        pytest.param(
            "zero", None, {"lengths": [1.0, 2.0], "beta": 0.1, "g": "signum", "phi": "max"},
            [0.5, 0.5], 1.0, 100, EULER, REJECT, id="euler-signum-max-zero",
        ),
        pytest.param(
            "zero", 2, {"beta": 1e-20}, [0.5, 0.5], 1.0, 100, EULER, REJECT,
            id="euler-identity-zero",
        ),
        pytest.param(
            "zero", 4, {"lengths": [1.0, 2.0], "beta": 0.1, "g": "signum"}, [0.5, 0.5], 2.0, 100,
            RK4, REJECT, id="rk4-signum-zero",
        ),
        pytest.param(
            "zero", None, {"beta": 1e-20, "phi": "max"}, [0.5, 0.5], 2.0, 100, RK4, CLAMP,
            id="rk4-identity-max-zero",
        ),
    ],
)
def test_fallback_to_the_numpy_loop_is_exact(
    monkeypatch, why, step, model, x0, dt, steps, scheme, positivity
):
    model = make_model(**{"lengths": [1.0, 1.0], **model})
    args = (model, x0, dt, steps, scheme, positivity)
    want = numpy_outcome(monkeypatch, *args)
    blocks = spy_on_scalar_blocks(monkeypatch)
    assert_same_outcome(run_outcome(*args), want)
    # every block up to the handover was stepped in Python floats, and the
    # last one was declined only at a zero saturation
    assert blocks == [True] * (len(blocks) - 1) + [why == "checked"]
    if step is not None:
        assert want[2] == step
