"""Fixed-step time integration and trajectory containers.

Forward Euler is the reference scheme used by the bundled experiments;
a classical fourth-order Runge-Kutta scheme is included for accuracy
cross-checks against the closed-form evaluator.  Both step through the
model's right-hand side (:func:`antdyn.models.rhs`) on buffers allocated
once per run, writing every stage and state in place, and without
per-step checks; the finiteness and sign checks run once per block of
steps and still report the first offending step exactly.  Trajectories
also cover closed-form and asymptotic sample grids, which reuse the same
container and CSV schema with a different source tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .models import GKind, ModelSpec, PhiKind, require_positive, require_positive_state, rhs
from .reporting import _format_block, write_text_atomic

__all__ = [
    "CLAMP_FLOOR",
    "IntegrationError",
    "PositivityError",
    "PositivityPolicy",
    "Scheme",
    "SumBoundsReport",
    "Trajectory",
    "check_sum_bounds",
    "integrate",
    "sum_envelope",
    "trajectory_to_csv",
    "write_trajectory_csv",
]

# Positive floor used by the clamping policy; far below any meaningful
# state but still a normal double.
CLAMP_FLOOR = 1e-300

# Steps integrated between two finiteness and sign checks.
_CHECK_BLOCK = 64

# Documented Euler allowance multiplier for the sum envelope.
ENVELOPE_ALLOWANCE_STEPS = 10.0


class Scheme(str, Enum):
    EULER = "euler"
    RK4 = "rk4"
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


class PositivityPolicy(str, Enum):
    REJECT = "reject"
    CLAMP_EPSILON = "clamp-epsilon"


class IntegrationError(RuntimeError):
    """Integration aborted; ``step`` is the failing step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class PositivityError(IntegrationError):
    """A state component turned negative under the reject policy."""

    def __init__(self, message: str, step: int, component: int):
        super().__init__(message, step)
        self.component = component


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Equally spaced samples of one run.

    ``states`` has shape (steps + 1, n) in canonical path order and
    ``sums`` is the row sum of ``states`` exactly as stored.  Samples of
    the asymptotic expansion carry ``leading_valid``, one flag per row
    that is False where the expansion is too early to hold.
    """

    times: np.ndarray
    states: np.ndarray
    sums: np.ndarray
    scheme: Scheme
    dt: float
    first_violation: Optional[tuple[int, int]] = None
    leading_valid: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def positivity_violated(self) -> bool:
        """Whether a component was clamped; ``first_violation`` says where."""
        return self.first_violation is not None


@dataclass(frozen=True)
class SumBoundsReport:
    """Result of the sum-envelope check."""

    allowance: float
    max_violation: float
    worst_index: int
    within: bool


def require_steps(steps: int) -> int:
    """Check a step count: nonnegative."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    return steps


def sample_times(dt: float, steps: int) -> np.ndarray:
    """The uniform grid ``0, dt, ..., steps * dt`` after checking both inputs."""
    require_positive("dt", dt)
    return np.arange(require_steps(steps) + 1) * dt


def integrate(
    model: ModelSpec,
    x0,
    dt: float,
    steps: int,
    scheme: Scheme = Scheme.EULER,
    positivity: PositivityPolicy = PositivityPolicy.REJECT,
) -> Trajectory:
    """Integrate the model from a strictly positive initial state.

    Parameters
    ----------
    model : ModelSpec
    x0 : array_like
        Strictly positive initial state, canonical path order.
    dt : float
        Step size, strictly positive.
    steps : int
        Number of steps; ``steps == 0`` returns just the initial sample.
    scheme : Scheme
        ``euler`` or ``rk4``; the sample-grid tags are not integrable.
    positivity : PositivityPolicy
        ``reject`` (default) raises :class:`PositivityError` when a
        component turns negative; ``clamp-epsilon`` clamps it to a tiny
        floor and flags the trajectory instead.  A component that
        underflows to exactly 0.0 is kept: it lies on the invariant face
        ``x_i = 0``, which is that component's limit.

    Each step runs in place on buffers preallocated for the run (the
    stages, one work row and ``dt``, ``dt / 2`` and ``dt / 6`` as
    arrays) and rounds exactly as ``x + dt * f(x)`` (Euler) or
    ``x + ((k2 + k3) * 2 + k1 + k4) * (dt / 6)`` (RK4) would.

    A non-finite component raises :class:`IntegrationError`.  Steps run
    in blocks of ``_CHECK_BLOCK``, each checked once with one minimum and
    one maximum.  The first block that fails is integrated again one
    checked step at a time, and the run goes on that way, so the error,
    the clamp and ``first_violation`` name the first offending step and
    component exactly, as a per-step check would.
    """
    scheme = Scheme(scheme)
    positivity = PositivityPolicy(positivity)
    if scheme not in (Scheme.EULER, Scheme.RK4):
        raise ValueError(f"scheme {scheme.value!r} is a sample-grid tag, not an integrator")
    times = sample_times(dt, steps)
    x0 = require_positive_state(x0, model.n)

    f = rhs(model)
    euler = scheme is Scheme.EULER
    # operands and buffers made once per run: every step writes in place,
    # through bound ufuncs with array operands and a positional out
    h, half, sixth = (np.full(x0.size, v) for v in (dt, 0.5 * dt, dt / 6.0))
    k1, k2, k3, k4, y = np.empty((5, x0.size))
    add, multiply = np.add, np.multiply
    states = np.empty((steps + 1, x0.size))
    states[0] = x0
    first_violation: Optional[tuple[int, int]] = None
    start, block = 1, _CHECK_BLOCK
    # Steps past a bad one are discarded, so their overflow and
    # invalid-value warnings are meaningless.
    with np.errstate(all="ignore"):
        while start <= steps:
            stop = min(start + block, steps + 1)
            x = states[start - 1]
            for k in range(start, stop):
                f(x, k1)
                if euler:
                    multiply(k1, h, k1)
                else:
                    # stages at x + (dt / 2) * k1, x + (dt / 2) * k2, x + dt * k3
                    f(add(x, multiply(half, k1, y), y), k2)
                    f(add(x, multiply(half, k2, y), y), k3)
                    f(add(x, multiply(h, k3, y), y), k4)
                    add(k2, k3, k2)
                    add(k2, k2, k2)  # times 2, exactly
                    add(k2, k1, k2)
                    add(k2, k4, k2)
                    multiply(k2, sixth, k1)
                x = add(x, k1, states[k])
            rows = states[start:stop]
            # A nan fails the comparison with the minimum.
            if 0.0 <= rows.min() and rows.max() < np.inf:
                start = stop
                continue
            if block > 1:
                # Integrate the block again one checked step at a time, and
                # keep that pace: after a clamp, a component pinned at the
                # floor is usually pushed below 0 again on the next step.
                block = 1
                continue
            k, x = start, states[start]
            if not np.all(np.isfinite(x)):
                bad = int(np.flatnonzero(~np.isfinite(x))[0])
                raise IntegrationError(
                    f"non-finite value in component {bad} at step {k}; integration aborted",
                    step=k,
                )
            bad = int(np.flatnonzero(x < 0.0)[0])
            if positivity is PositivityPolicy.REJECT:
                raise PositivityError(
                    f"component {bad} reached {float(x[bad])} at step {k}; "
                    "the dynamics preserve positivity, so the step size is too coarse",
                    step=k,
                    component=bad,
                )
            if first_violation is None:
                first_violation = (k, bad)
            np.maximum(x, CLAMP_FLOOR, out=x)
            start = k + 1
    return Trajectory(
        times=times,
        states=states,
        sums=states.sum(axis=1),
        scheme=scheme,
        dt=dt,
        first_violation=first_violation,
    )


def sum_envelope(model: ModelSpec, s0: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential envelope of the state sum for the identity-sum model.

    Lower and upper bounds pull toward ``beta d_n / alpha`` and
    ``beta d_1 / alpha`` at rate ``alpha * gamma``.
    """
    decay = np.exp(-model.alpha * model.gamma * np.asarray(times, dtype=float))
    low, high = model.mu[-1], model.mu[0]
    return low + (s0 - low) * decay, high + (s0 - high) * decay


def check_sum_bounds(traj: Trajectory, model: ModelSpec) -> SumBoundsReport:
    """Verify the state sum stays inside its envelope, step by step.

    Only meaningful for the identity response with the sum saturation,
    where the envelope holds for the exact flow.  The allowance is
    ``10 * dt * gamma * beta * d_1``, the documented slack for the Euler
    discretization error.
    """
    if model.phi_kind is not PhiKind.SUM or model.g_kind is not GKind.IDENTITY:
        raise ValueError("sum envelope applies to the identity response with phi=sum only")
    allowance = ENVELOPE_ALLOWANCE_STEPS * traj.dt * model.gamma * model.beta * model.paths.d[0]
    lower, upper = sum_envelope(model, float(traj.sums[0]), traj.times)
    below = (lower - allowance) - traj.sums
    above = traj.sums - (upper + allowance)
    excess = np.maximum(np.maximum(below, above), 0.0)
    worst = int(np.argmax(excess))
    max_violation = float(excess[worst])
    return SumBoundsReport(
        allowance=float(allowance),
        max_violation=max_violation,
        worst_index=worst,
        within=max_violation == 0.0,
    )


def trajectory_to_csv(traj: Trajectory, source: Optional[str] = None) -> str:
    """Render a trajectory as CSV text.

    Header is ``t,x_1,...,x_n,S``; each float is spelled exactly as
    ``"%.17g"`` spells it (17 significant digits, so doubles round-trip),
    by one vectorized formatter that hands every cell it cannot decide
    with margin to ``"%.17g"`` itself.  When ``source`` is given, a
    trailing ``source`` column carries it on every row.
    """
    columns = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["S"]
    if source is not None:
        columns.append("source")
    body = _format_block(np.column_stack([traj.times, traj.states, traj.sums]))
    if source is not None:
        body = body.replace("\n", f",{source}\n")
    return ",".join(columns) + "\n" + body


def write_trajectory_csv(traj: Trajectory, path, source: Optional[str] = None):
    """Write :func:`trajectory_to_csv` output atomically; return the path as a ``Path``."""
    return write_text_atomic(path, trajectory_to_csv(traj, source=source))
