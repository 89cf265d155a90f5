"""Fixed-step time integration and trajectory containers.

Forward Euler is the reference scheme used by the bundled experiments;
a classical fourth-order Runge-Kutta scheme is included for accuracy
cross-checks against the closed-form evaluator.  Trajectories also cover
closed-form and asymptotic sample grids, which reuse the same container
and CSV schema with a different source tag.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .models import GKind, ModelSpec, PhiKind, require_positive_state, vector_field

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
    ``sums`` is the row sum of ``states`` exactly as stored.
    """

    times: np.ndarray
    states: np.ndarray
    sums: np.ndarray
    scheme: Scheme
    dt: float
    positivity_violated: bool = False
    first_violation: Optional[tuple[int, int]] = None

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SumBoundsReport:
    """Result of the sum-envelope check."""

    allowance: float
    max_violation: float
    worst_index: int
    within: bool


def sample_times(dt: float, steps: int) -> np.ndarray:
    """The uniform grid ``0, dt, ..., steps * dt`` after checking both inputs."""
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps!r}")
    return np.arange(steps + 1) * dt


def _euler_step(model: ModelSpec, x: np.ndarray, dt: float) -> np.ndarray:
    return x + dt * vector_field(model, x, validate=False)


def _rk4_step(model: ModelSpec, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = vector_field(model, x, validate=False)
    k2 = vector_field(model, x + 0.5 * dt * k1, validate=False)
    k3 = vector_field(model, x + 0.5 * dt * k2, validate=False)
    k4 = vector_field(model, x + dt * k3, validate=False)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


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
    """
    scheme = Scheme(scheme)
    positivity = PositivityPolicy(positivity)
    if scheme not in (Scheme.EULER, Scheme.RK4):
        raise ValueError(f"scheme {scheme.value!r} is a sample-grid tag, not an integrator")
    times = sample_times(dt, steps)
    x = require_positive_state(x0, model.n)

    step_fn = _euler_step if scheme is Scheme.EULER else _rk4_step
    states = np.empty((steps + 1, x.size))
    states[0] = x
    violated = False
    first_violation: Optional[tuple[int, int]] = None
    for k in range(1, steps + 1):
        x = step_fn(model, x, dt)
        if not np.all(np.isfinite(x)):
            bad = int(np.flatnonzero(~np.isfinite(x))[0])
            raise IntegrationError(
                f"non-finite value in component {bad} at step {k}; integration aborted", step=k
            )
        if np.any(x < 0.0):
            bad = int(np.flatnonzero(x < 0.0)[0])
            if positivity is PositivityPolicy.REJECT:
                raise PositivityError(
                    f"component {bad} reached {float(x[bad])} at step {k}; "
                    "the dynamics preserve positivity, so the step size is too coarse",
                    step=k,
                    component=bad,
                )
            if not violated:
                violated = True
                first_violation = (k, bad)
            x = np.maximum(x, CLAMP_FLOOR)
        states[k] = x
    return Trajectory(
        times=times,
        states=states,
        sums=states.sum(axis=1),
        scheme=scheme,
        dt=dt,
        positivity_violated=violated,
        first_violation=first_violation,
    )


def sum_envelope(model: ModelSpec, s0: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponential envelope of the state sum for the identity-sum model.

    Lower and upper bounds pull toward ``beta d_n / alpha`` and
    ``beta d_1 / alpha`` at rate ``alpha * gamma``.
    """
    decay = np.exp(-model.alpha * model.gamma * np.asarray(times, dtype=float))
    low = model.beta * model.paths.d[-1] / model.alpha
    high = model.beta * model.paths.d[0] / model.alpha
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

    Header is ``t,x_1,...,x_n,S``; floats carry 17 significant digits so
    doubles round-trip.  When ``source`` is given (or for sample grids,
    where it defaults to the scheme tag) a trailing ``source`` column is
    appended.
    """
    if source is None and traj.scheme in (Scheme.EXACT, Scheme.ASYMPTOTIC):
        source = traj.scheme.value
    buf = io.StringIO()
    columns = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["S"]
    if source is not None:
        columns.append("source")
    buf.write(",".join(columns) + "\n")
    tail = f",{source}\n" if source is not None else "\n"
    for k in range(traj.states.shape[0]):
        row = [f"{traj.times[k]:.17g}"]
        row.extend(f"{value:.17g}" for value in traj.states[k])
        row.append(f"{traj.sums[k]:.17g}")
        buf.write(",".join(row) + tail)
    return buf.getvalue()


def write_trajectory_csv(traj: Trajectory, path, source: Optional[str] = None) -> None:
    """Write :func:`trajectory_to_csv` output atomically."""
    from .reporting import write_text_atomic

    write_text_atomic(path, trajectory_to_csv(traj, source=source))
