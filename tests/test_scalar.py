"""Tests of the Python-float stepper of small single runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

from antdyn import (
    IntegrationError,
    PositivityError,
    PositivityPolicy,
    Scheme,
    integrate,
)
import antdyn
from antdyn import simulate
from antdyn._scalar import SCALAR_PATHS, _pairwise, _source, scalar_stepper
from antdyn.models import GKind, PhiKind, rhs

from helpers import make_model, spy_on_steppers

SHAPES = [(g, phi, euler) for g in GKind for phi in PhiKind for euler in (True, False)]
WIDEST = max(SCALAR_PATHS.values())


def limit(g, euler):
    """The most paths a single run of response ``g`` may have and still step in Python floats."""
    return SCALAR_PATHS[euler, g is GKind.TANH]


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_pairwise_sum_is_numpys_sum_bit_for_bit():
    # positive terms spread over 16 decades, so that the order of the
    # additions shows in the rounding; every n a stepped run can have
    rng = np.random.default_rng(20140)
    plain_differs = set()
    for n in range(1, WIDEST + 1):
        names = [f"v{i}" for i in range(n)]
        total = _pairwise(names)
        for _ in range(50):
            v = 10.0 ** rng.uniform(-8.0, 8.0, n)
            want = float(np.add.reduce(v))
            assert eval(total, {}, dict(zip(names, v.tolist()))) == want, n
            if left_to_right(v.tolist()) != want:
                plain_differs.add(n)
    # below 8 terms numpy sums left to right too; from 8 on it does not
    assert plain_differs == set(range(8, WIDEST + 1))


def test_models_of_one_shape_share_one_code_object():
    one = make_model([1.0, 2.0, 3.0], alpha=0.5, beta=2.0, gamma=3.0, g="signum")
    other = make_model([4.0, 7.5, 9.0], alpha=1.5, beta=0.3, gamma=0.7, g="signum")
    for euler in (True, False):
        a, b = scalar_stepper(one, 0.01, euler), scalar_stepper(other, 0.3, euler)
        assert a.__code__ is b.__code__
        assert a.__defaults__ != b.__defaults__
    shapes = [
        scalar_stepper(make_model([1.0, 2.0, 3.0], g=g, phi=phi), 0.01, euler).__code__
        for g, phi, euler in SHAPES
    ]
    shapes.append(scalar_stepper(make_model([1.0, 2.0]), 0.01, True).__code__)
    assert len(set(shapes)) == len(SHAPES) + 1


def test_generated_source_holds_no_float():
    # the model's values are bound as arguments, never spelled into the source
    for g, phi, euler in SHAPES:
        for n in range(1, limit(g, euler) + 1):
            floats = [
                node.value
                for node in ast.walk(ast.parse(_source(n, g, phi, euler)))
                if isinstance(node, ast.Constant) and isinstance(node.value, float)
            ]
            assert floats == [], (n, g, phi, euler)


def test_np_tanh_of_an_element_does_not_depend_on_its_array():
    # The rule rests on this: the numpy loop calls np.tanh in place on its
    # row of a stage's n arguments, and a generated step on a row of its
    # own, and each element must take the value of its own one-element
    # call, at any length and offset in the array.
    rng = np.random.default_rng(2014)
    values = np.concatenate(
        [
            rng.normal(0.0, 3.0, 200),
            np.copysign(10.0 ** rng.uniform(-320.0, 3.0, 200), rng.normal(size=200)),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e-8, 20.0, -20.0],
        ]
    )
    rng.shuffle(values)
    alone = np.concatenate([np.tanh(values[i : i + 1]) for i in range(values.size)])
    for length in range(1, 40):
        for start in range(values.size - length + 1):
            chunk = values[start : start + length]
            want = alone[start : start + length].tobytes()
            work = chunk.copy()
            np.tanh(work, work)
            assert work.tobytes() == want, (length, start)
            assert np.tanh(chunk).tobytes() == want, (length, start)


# Run in a child process whose numpy has the dispatch targets named in its
# arguments disabled: tanh runs at the limits and inside them, under both
# saturations and schemes, step to the same bits or the same error through
# the generated stepper and through the numpy loop.
LOWER_LEVEL_CHILD = """
import sys

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from antdyn import IntegrationError, ModelSpec, PathSystem, Scheme, integrate, simulate
from antdyn._scalar import SCALAR_PATHS, scalar_stepper

assert not any(__cpu_features__[target] for target in sys.argv[1:]), sys.argv[1:]


def outcome(*args):
    try:
        return integrate(*args).states.tobytes()
    except IntegrationError as err:
        return type(err), str(err)


rng = np.random.default_rng(16)
runs = 0
for scheme in (Scheme.EULER, Scheme.RK4):
    for phi in ("sum", "max"):
        for n in (1, 2, 9, SCALAR_PATHS[scheme is Scheme.EULER, True]):
            for _ in range(3):
                alpha, beta, gamma = rng.uniform(0.2, 3.0, 3)
                paths = PathSystem.from_lengths(rng.uniform(1.0, 10.0, n))
                model = ModelSpec(alpha, beta, gamma, phi, "tanh", paths)
                x0, dt = 10.0 ** rng.uniform(-3.0, 2.0, n), rng.uniform(0.05, 2.0) / gamma
                args = model, x0, dt, 200, scheme
                assert scalar_stepper(model, dt, scheme is Scheme.EULER) is not None
                got = outcome(*args)
                simulate.scalar_stepper = lambda *_: None
                assert outcome(*args) == got, (n, phi, scheme)
                simulate.scalar_stepper = scalar_stepper
                runs += 1
print(runs)
"""


@pytest.mark.parametrize("level", ["X86_V3", "X86_V2"])
def test_tanh_runs_agree_at_each_lower_dispatch_level(level):
    offered = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if level in __cpu_baseline__:
        above = offered
    elif level in offered:
        above = offered[offered.index(level) + 1 :]
    else:
        pytest.skip(f"numpy offers no {level} dispatch here")
    if not above:
        pytest.skip(f"{level} is numpy's own dispatch level here")
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(above)
    src = str(Path(antdyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", LOWER_LEVEL_CHILD, *above],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["48"]


# one path, two sizes whose sums run past eight terms, and each limit -1, 0
# and +1 of the table, for every response under both schemes
ABOUT_THE_LIMITS = sorted({1, 12, 13} | {m + k for m in SCALAR_PATHS.values() for k in (-1, 0, 1)})


@pytest.mark.parametrize("scheme", [Scheme.EULER, Scheme.RK4])
@pytest.mark.parametrize("phi", list(PhiKind))
@pytest.mark.parametrize("g", list(GKind))
@pytest.mark.parametrize("n", ABOUT_THE_LIMITS)
def test_only_small_identity_and_signum_runs_step_in_python(monkeypatch, n, g, phi, scheme):
    # the rule of SCALAR_PATHS: a run of at most its scheme's and response's
    # limit steps in Python floats, any other in numpy
    blocks = spy_on_steppers(monkeypatch)
    model = make_model(np.arange(1.0, n + 1.0), phi=phi, g=g)
    integrate(model, np.full(n, 0.5), 0.01, 100, scheme)
    kind = "python" if n <= limit(g, scheme is Scheme.EULER) else "numpy"
    assert blocks == [(kind, 64), (kind, 36)]


def run_outcome(*args):
    """``(states, first_violation)`` of a run, or the facts of the error it raises."""
    try:
        traj = integrate(*args)
    except IntegrationError as err:
        return type(err), str(err), err.step, getattr(err, "component", None)
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
    g=st.sampled_from(list(GKind)),
    scheme=st.sampled_from([Scheme.EULER, Scheme.RK4]),
    positivity=st.sampled_from(list(PositivityPolicy)),
    lengths=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=WIDEST),
    rates=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
    log_x0=st.lists(st.floats(-3.0, 2.0), min_size=WIDEST, max_size=WIDEST),
    dt_fraction=st.floats(0.05, 3.0),
    steps=st.integers(0, 200),
)
def test_scalar_runs_are_the_numpy_loop(
    phi, g, scheme, positivity, lengths, rates, log_x0, dt_fraction, steps
):
    alpha, beta, gamma = rates
    lengths = lengths[: limit(g, scheme is Scheme.EULER)]
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


def log_uniform(low, high):
    """Floats ``10 ** e`` with the exponent ``e`` drawn from ``[low, high]``."""
    return st.floats(low, high).map(lambda e: 10.0**e)


def one_step(advance, x, positivity):
    """The bits of one checked step of ``advance`` from ``x``, or its error's type and message."""
    try:
        states, first_violation = simulate._step(advance, x, 1, positivity)
    except IntegrationError as err:
        return type(err), str(err)
    return states[1].tobytes(), first_violation


# Every step a run takes starts from a checked state: finite and >= 0,
# or clamped.  From any such state, with exact zeros (a zero saturation),
# subnormals and values near overflow, both steppers agree bit for bit.
@settings(max_examples=300, deadline=None)
@example(
    lengths=[1.0], g=GKind.IDENTITY, phi=PhiKind.SUM, euler=True, positivity=REJECT,
    rates=(1.0, 1.0, 1.0), dt=1.0, x=[0.0],
)
# tanh(1.5), where math.tanh and np.tanh differ
@example(
    lengths=[1.0], g=GKind.TANH, phi=PhiKind.SUM, euler=False, positivity=REJECT,
    rates=(1.0, 1.0, 1.0), dt=0.1, x=[0.4],
)
@given(
    lengths=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=WIDEST),
    g=st.sampled_from(list(GKind)),
    phi=st.sampled_from(list(PhiKind)),
    euler=st.booleans(),
    positivity=st.sampled_from(list(PositivityPolicy)),
    rates=st.tuples(
        log_uniform(-6.0, 6.0),
        st.one_of(log_uniform(-6.0, 6.0), log_uniform(-320.0, -6.0)),
        log_uniform(-6.0, 6.0),
    ),
    dt=log_uniform(-4.0, 1.0),
    x=st.lists(
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.7e308]),
            st.floats(0.0, 1.7e308),
            log_uniform(-323.0, 308.0),
        ),
        min_size=WIDEST,
        max_size=WIDEST,
    ),
)
def test_one_step_of_both_steppers_is_the_same(lengths, g, phi, euler, positivity, rates, dt, x):
    alpha, beta, gamma = rates
    lengths = lengths[: limit(g, euler)]
    model = make_model(lengths, alpha=alpha, beta=beta, gamma=gamma, phi=phi, g=g)
    x = np.array(x[: model.n])
    python = scalar_stepper(model, dt, euler)
    numpy = simulate._numpy_stepper(rhs(model), model.n, dt, euler)
    assert one_step(python, x, positivity) == one_step(numpy, x, positivity)


# Runs of two paths that leave the blocks of unchecked steps or divide by
# zero.  "checked": a block fails the finiteness and sign check, and the
# run goes on one checked step at a time.  "zero": a saturation is 0, which
# Python cannot divide by and numpy turns into an infinity; there dt *
# gamma * g = -1 sends the state (Euler) or the first RK4 stage point to
# exactly 0, after which numpy's signum reads g = 1 and goes on, and the
# identity gives 0 * inf = nan.  ``step`` is the step a rejected run fails
# at: a block's last (64, 128) or first (65, 129), as growing oscillations
# about the equilibrium overshoot 0.
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
    blocks = spy_on_steppers(monkeypatch)
    assert_same_outcome(run_outcome(*args), want)
    # Python floats step every block, at a zero saturation too, and step
    # again one step at a time after a failed check
    assert {kind for kind, _ in blocks} == {"python"}
    if why == "checked":
        assert ("python", 1) in blocks
    elif isinstance(want[0], np.ndarray):
        # a state at exactly 0 passes the check, so the blocks stay whole
        assert blocks == [("python", 64), ("python", 36)]
    if step is not None:
        assert want[2] == step


# Signum runs of paths of length 1 at alpha = beta = 1, started where the
# saturation is 1: every switching argument c * d_i - alpha is exactly 0,
# where np.sign gives 0, so no path moves.
@pytest.mark.parametrize("scheme", [EULER, RK4])
@pytest.mark.parametrize(
    "phi, x0", [(PhiKind.SUM, [1.0]), (PhiKind.SUM, [0.5, 0.5]), (PhiKind.MAX, [0.25, 1.0])]
)
def test_signum_paths_hold_still_at_a_zero_switching_argument(monkeypatch, phi, x0, scheme):
    model = make_model(np.ones(len(x0)), phi=phi, g=GKind.SIGNUM)
    args = (model, x0, 0.05, 70, scheme, REJECT)
    want = numpy_outcome(monkeypatch, *args)
    blocks = spy_on_steppers(monkeypatch)
    assert_same_outcome(run_outcome(*args), want)
    assert blocks == [("python", 64), ("python", 6)]
    assert np.array_equal(want[0], np.tile(x0, (71, 1)))


# Runs of lengths 1..n at alpha = beta = gamma = 1, as (x0, dt) per kind
# and scheme, whose numpy loop fails with a PositivityError inside the
# first block: started small, every component grows until the sum is
# large, and then the weaker ones overshoot 0.
MID_BLOCK_POSITIVITY = {
    (GKind.IDENTITY, PhiKind.SUM, EULER): (1e-3, 1.05),
    (GKind.IDENTITY, PhiKind.MAX, EULER): (1e-3, 1.05),
    (GKind.SIGNUM, PhiKind.SUM, EULER): (1e-3, 1.05),
    (GKind.SIGNUM, PhiKind.MAX, EULER): (1e-3, 1.05),
    (GKind.TANH, PhiKind.SUM, EULER): (1e-3, 1.5),
    (GKind.TANH, PhiKind.MAX, EULER): (1e-3, 1.5),
    (GKind.IDENTITY, PhiKind.SUM, RK4): (0.01, 2.8),
    (GKind.IDENTITY, PhiKind.MAX, RK4): (1.0, 3.05),
    (GKind.SIGNUM, PhiKind.SUM, RK4): (0.1, 1.7),
    (GKind.SIGNUM, PhiKind.MAX, RK4): (1e-3, 1.6),
    (GKind.TANH, PhiKind.SUM, RK4): (1e-3, 3.8),
    (GKind.TANH, PhiKind.MAX, RK4): (1e-3, 3.8),
}

# (n, g, phi, scheme): each scheme at its own limit -1, 0 and +1, and RK4
# at Euler's too, where the two schemes part
ABOUT_EACH_LIMIT = [
    (n, g, phi, scheme)
    for g in GKind
    for phi in PhiKind
    for scheme in (EULER, RK4)
    for m in sorted({limit(g, True), limit(g, scheme is EULER)})
    for n in (m - 1, m, m + 1)
]


@pytest.mark.parametrize("case", ["stepped", "zero", "mid-block"])
@pytest.mark.parametrize("n, g, phi, scheme", ABOUT_EACH_LIMIT)
def test_runs_about_the_threshold_are_the_numpy_loop(monkeypatch, n, g, phi, scheme, case):
    lengths = np.arange(1.0, n + 1.0)
    if case == "stepped":
        model, x0, dt = make_model(lengths, phi=phi, g=g), np.linspace(0.1, 1.0, n), 0.05
    elif case == "zero":
        # dt * gamma * g = -1 sends every component (Euler) or the first
        # RK4 stage point to exactly 0, where the saturation is 0: there
        # c = inf, and tanh's argument is inf, where it gives 1
        gamma = 1.0
        if g is GKind.TANH:
            # g = tanh(-alpha) at beta = 1e-20, and gamma * g rounds to -1
            gamma = -1.0 / float(np.tanh(-1.0))
            assert float(np.tanh(-1.0)) * gamma == -1.0
        model = make_model(lengths, beta=1e-20, gamma=gamma, phi=phi, g=g)
        x0, dt = np.full(n, 0.5), 1.0 if scheme is EULER else 2.0
    else:
        value, dt = MID_BLOCK_POSITIVITY[g, phi, scheme]
        model, x0 = make_model(lengths, phi=phi, g=g), np.full(n, value)
    args = (model, x0, dt, 150, scheme, REJECT)
    want = numpy_outcome(monkeypatch, *args)
    blocks = spy_on_steppers(monkeypatch)
    assert_same_outcome(run_outcome(*args), want)
    # one stepper steps the whole run: three full blocks, or, after the
    # first block fails the check, one step at a time up to the error
    kind = "python" if n <= limit(g, scheme is EULER) else "numpy"
    assert {k for k, _ in blocks} == {kind}
    if case == "stepped":
        assert blocks == [(kind, 64), (kind, 64), (kind, 22)]
    if case == "zero" and g is GKind.TANH and scheme is EULER:
        assert not want[0][1:].any()  # at 0 from step 1 on
    if case == "mid-block":
        assert want[0] is PositivityError and 1 < want[2] < 64
        assert blocks == [(kind, 64)] + [(kind, 1)] * want[2]
