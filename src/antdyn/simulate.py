"""Fixed-step time integration and trajectory containers.

Forward Euler is the reference scheme used by the bundled experiments;
a classical fourth-order Runge-Kutta scheme is included for accuracy
cross-checks against the closed-form evaluator.  Both step through the
model's right-hand side (:func:`antdyn.models.rhs`) on buffers allocated
once per run, writing every stage and state in place, and without
per-step checks; the finiteness and sign checks run once per block of
steps and still report the first offending step exactly.  Some single
runs step in Python floats instead, through straight-line code generated
once per shape, bit for bit as numpy would, by the rule that
:mod:`antdyn._scalar` states.  A run picks its stepper once, and one
loop (:func:`_step`) steps and checks every run.

:func:`integrate_rows` integrates several models of one ``n`` as the
rows of one ``(B, n)`` block, through one stepping loop, and
:func:`integrate` is its one-row case.  Rows never mix: each row's
trajectory, clamps and first violation are bit for bit those of that
model integrated alone, and a failing row raises the error its solo run
raises, naming the row.  Trajectories also cover closed-form and
asymptotic sample grids, which reuse the same container and CSV schema
with a different source tag.

A :class:`Trajectory` stores its states and its step only; its time grid
and its state sums are derived from them, so no producer builds either
and no trajectory can hold a grid or sums that disagree with its states.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .models import (
    DomainError,
    GKind,
    ModelSpec,
    PhiKind,
    first_nonpositive,
    require_positive,
    require_positive_state,
    require_rows,
    rhs,
)
from ._output import format_passes, write_atomic
from ._scalar import scalar_stepper

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
    """Integration aborted; ``step`` is the failing step index.

    ``row`` is the failing row's index among the models integrated
    together (0 for :func:`integrate`), or None where no integrator
    raised it.
    """

    def __init__(self, message: str, step: int, row: Optional[int] = None):
        super().__init__(message)
        self.step = step
        self.row = row


class PositivityError(IntegrationError):
    """A state component turned negative under the reject policy."""

    def __init__(self, message: str, step: int, component: int, row: Optional[int] = None):
        super().__init__(message, step, row)
        self.component = component


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Equally spaced samples of one run.

    Stored: ``states``, of shape (steps + 1, n) in canonical path order,
    the ``scheme`` that made them, the step ``dt``, the first clamp, if
    any, and, for samples of the asymptotic expansion, ``leading_valid``,
    one flag per row that is False where the expansion is too early to
    hold.  Derived, once, on first use: ``times``, the grid
    :func:`sample_times` makes from ``dt`` and ``steps``, and ``sums``,
    the row sums of ``states`` exactly as stored.  Building a trajectory
    makes ``states`` and ``leading_valid`` read-only, so the derived
    values cannot go stale.
    """

    states: np.ndarray
    scheme: Scheme
    dt: float
    first_violation: Optional[tuple[int, int]] = None
    leading_valid: Optional[np.ndarray] = None

    def __post_init__(self):
        self.states.flags.writeable = False
        if self.leading_valid is not None:
            self.leading_valid.flags.writeable = False

    @cached_property
    def times(self) -> np.ndarray:
        return sample_times(self.dt, self.steps)

    @cached_property
    def sums(self) -> np.ndarray:
        return self.states.sum(axis=1)

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


def require_paths(traj: Trajectory, model: ModelSpec) -> None:
    """Check that a trajectory has one column per path of the model it is judged against."""
    if traj.n != model.n:
        raise ValueError(f"trajectory has {traj.n} paths, model has {model.n}")


@dataclass(frozen=True)
class SumBoundsReport:
    """Result of the sum-envelope check."""

    allowance: float
    max_violation: float
    within: bool


def require_steps(steps: int) -> int:
    """Check a step count: an integer (numpy's too, but not a bool), nonnegative."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    return steps


def sample_times(dt: float, steps: int) -> np.ndarray:
    """The uniform grid ``0, dt, ..., steps * dt`` after checking both inputs, in floats."""
    dt = require_positive("dt", dt)
    return np.arange(require_steps(steps) + 1) * dt


def _run_setup(scheme, positivity, dt, steps):
    """Check the run arguments shared by both integrators; return them, ``dt`` as a float."""
    scheme = Scheme(scheme)
    positivity = PositivityPolicy(positivity)
    if scheme not in (Scheme.EULER, Scheme.RK4):
        raise ValueError(f"scheme {scheme.value!r} is a sample-grid tag, not an integrator")
    return scheme, positivity, require_positive("dt", dt), require_steps(steps)


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

    This is the one-row case of :func:`integrate_rows`, and it runs the
    same stepping loop on a single state of shape ``(n,)``.  The run's
    stepper is picked once: Python floats, by straight-line code
    generated once per shape, for the runs that :mod:`antdyn._scalar`
    names, and otherwise the single-state path of :func:`rhs`, in place
    on buffers preallocated for the run (the stages, one work row and
    ``dt``, ``dt / 2`` and ``dt / 6`` as arrays), with the same result.
    Either way a step rounds exactly as ``x + dt * f(x)`` (Euler) or
    ``x + ((k2 + k3) * 2 + k1 + k4) * (dt / 6)`` (RK4) would.

    A non-finite component raises :class:`IntegrationError`.  Steps run
    in blocks of ``_CHECK_BLOCK``, each checked once with one minimum and
    one maximum.  The first block that fails is integrated again one
    checked step at a time, through the same stepper, and the run goes on
    that way, so the error, the clamp and ``first_violation`` name the
    first offending step and component exactly, as a per-step check
    would.  The error's ``row`` is 0.
    """
    scheme, positivity, dt, steps = _run_setup(scheme, positivity, dt, steps)
    x0 = require_positive_state(x0, model.n)
    euler = scheme is Scheme.EULER
    advance = scalar_stepper(model, dt, euler) or _numpy_stepper(rhs(model), x0.shape, dt, euler)
    states, violations = _step(advance, x0, steps, positivity, (0,))
    return Trajectory(states=states, scheme=scheme, dt=dt, first_violation=violations[0])


def integrate_rows(
    models: Sequence[ModelSpec],
    x0,
    dt: float,
    steps: int,
    scheme: Scheme = Scheme.EULER,
    positivity: PositivityPolicy = PositivityPolicy.REJECT,
) -> tuple[Trajectory, ...]:
    """Integrate several models of one ``n`` side by side, as one row block.

    ``models`` gives one :class:`ModelSpec` per row, all with the same
    number of paths, and ``x0`` is broadcast to ``(B, n)``: one shared
    state of shape ``(n,)``, or one strictly positive state per row.
    ``dt``, ``steps``, ``scheme`` and ``positivity`` are shared and mean
    what they mean for :func:`integrate`.  The result holds one
    :class:`Trajectory` per model, in the caller's order.

    The rows are sorted once by (saturation, response), so each
    reduction and each non-identity response of the :func:`rhs` kernel
    runs on a contiguous slice, and every step of the block is one pass
    of the stepping loop of :func:`integrate`.  Each row rounds exactly
    as that row integrated alone: every trajectory, including its
    ``first_violation`` and its clamps, is bit for bit the one
    ``integrate(models[i], x0[i], ...)`` returns.  One model is
    :func:`integrate` itself.

    A row that fails stops the block: the error raised is the one that
    integrating the failing row alone raises (same type, step, component
    and message), with ``row`` set to its index in ``models``.  If
    several rows fail, the earliest failing step wins, and on a tie the
    lowest row.  ``ValueError`` is raised for no models, for models of
    different ``n`` and for an ``x0`` that does not broadcast to
    ``(B, n)``; :class:`DomainError` for a component of ``x0`` that is
    not finite and positive.
    """
    models = require_rows(models)
    rows, n = len(models), models[0].n
    x0 = np.asarray(x0, dtype=float)
    try:
        block = np.broadcast_to(x0, (rows, n))
    except ValueError:
        raise ValueError(
            f"x0 has shape {x0.shape}, which does not broadcast to ({rows}, {n}): "
            f"{rows} models of {n} paths"
        ) from None
    if rows == 1:
        return (integrate(models[0], block[0], dt, steps, scheme, positivity),)
    scheme, positivity, dt, steps = _run_setup(scheme, positivity, dt, steps)
    k = first_nonpositive(block)
    if k is not None:
        r, i = divmod(k, n)
        where = f"component {i} of x0" if x0.ndim < 2 else f"component {i} of x0 row {r}"
        raise DomainError(f"{where} is {float(block[r, i])}; must be strictly positive")
    order = sorted(range(rows), key=lambda i: (models[i].phi_kind.value, models[i].g_kind.value))
    advance = _numpy_stepper(
        rhs([models[i] for i in order]), block.shape, dt, scheme is Scheme.EULER
    )
    states, violations = _step(advance, block[order], steps, positivity, order)
    place = np.argsort(order).tolist()  # each caller row's place in the block
    # one contiguous (steps + 1, n) block per row, as integrate makes it
    per_row = states.transpose(1, 0, 2)[place]
    return tuple(
        Trajectory(states=x, scheme=scheme, dt=dt, first_violation=violations[p])
        for x, p in zip(per_row, place)
    )


def _numpy_stepper(f, shape, dt, euler):
    """The stepper of the numpy loop through ``f``, a :func:`rhs` of states of ``shape``.

    ``advance(states, start, stop)`` steps on from ``states[start - 1]``
    and writes steps ``start .. stop - 1`` into ``states``.  Its operands
    and buffers are made once, here: every step writes in place, through
    bound ufuncs with array operands and a positional out.
    """
    h, half, sixth = (np.full(shape, v) for v in (dt, 0.5 * dt, dt / 6.0))
    k1, k2, k3, k4, y = np.empty((5, *shape))
    add, multiply = np.add, np.multiply

    def advance(states, start, stop):
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

    return advance


def _step(advance, x0, steps, positivity, rows):
    """The stepping loop of both integrators: blocks of steps of ``advance``, each checked.

    ``advance(states, start, stop)`` is the run's stepper, from
    :func:`antdyn._scalar.scalar_stepper` or :func:`_numpy_stepper`.
    ``x0`` is one state of shape ``(n,)`` or a row block of shape
    ``(B, n)``, and ``rows`` names each row's index in the caller's
    order.  Returns the states, of shape ``(steps + 1, *x0.shape)``, and
    each row's first violation.
    """
    states = np.empty((steps + 1, *x0.shape))
    states[0] = x0
    violations: list[Optional[tuple[int, int]]] = [None] * len(rows)
    start, block = 1, _CHECK_BLOCK
    # Steps past a bad one are discarded, so their overflow and
    # invalid-value warnings are meaningless.
    with np.errstate(all="ignore"):
        while start <= steps:
            stop = min(start + block, steps + 1)
            advance(states, start, stop)
            checked = states[start:stop]
            # A nan fails the comparison with the minimum.
            if 0.0 <= checked.min() and checked.max() < np.inf:
                start = stop
                continue
            if block > 1:
                # Integrate the block again one checked step at a time, and
                # keep that pace: after a clamp, a component pinned at the
                # floor is usually pushed below 0 again on the next step.
                block = 1
                continue
            _check_step(states[start].reshape(len(rows), -1), start, positivity, rows, violations)
            start += 1
    return states, violations


def _check_step(x, k, positivity, rows, violations):
    """Check step ``k`` row by row: raise the first failing row's error, or clamp."""
    finite = np.isfinite(x).all(axis=1)
    negative = (x < 0.0).any(axis=1)
    failing = ~finite | negative if positivity is PositivityPolicy.REJECT else ~finite
    if failing.any():
        r = min(np.flatnonzero(failing).tolist(), key=rows.__getitem__)
        if not finite[r]:
            bad = int(np.flatnonzero(~np.isfinite(x[r]))[0])
            raise IntegrationError(
                f"non-finite value in component {bad} at step {k}; integration aborted",
                step=k,
                row=rows[r],
            )
        bad = int(np.flatnonzero(x[r] < 0.0)[0])
        raise PositivityError(
            f"component {bad} reached {float(x[r, bad])} at step {k}; "
            "the dynamics preserve positivity, so the step size is too coarse",
            step=k,
            component=bad,
            row=rows[r],
        )
    for r in np.flatnonzero(negative).tolist():
        if violations[r] is None:
            violations[r] = (k, int(np.flatnonzero(x[r] < 0.0)[0]))
        np.copyto(x[r], CLAMP_FLOOR, where=x[r] < 0.0)


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
    require_paths(traj, model)
    if model.phi_kind is not PhiKind.SUM or model.g_kind is not GKind.IDENTITY:
        raise ValueError("sum envelope applies to the identity response with phi=sum only")
    allowance = ENVELOPE_ALLOWANCE_STEPS * traj.dt * model.gamma * model.beta * model.paths.d[0]
    lower, upper = sum_envelope(model, float(traj.sums[0]), traj.times)
    below = (lower - allowance) - traj.sums
    above = traj.sums - (upper + allowance)
    excess = np.maximum(np.maximum(below, above), 0.0)
    max_violation = float(excess.max())
    return SumBoundsReport(
        allowance=float(allowance),
        max_violation=max_violation,
        within=max_violation == 0.0,
    )


def iter_trajectory_csv(traj: Trajectory, source: Optional[str] = None) -> Iterator[str]:
    """Yield the CSV text of a trajectory: the header, then one pass of rows at a time.

    Header is ``t,x_1,...,x_n,S``; each float is spelled exactly as
    ``"%.17g"`` spells it (17 significant digits, so doubles round-trip),
    by the vectorized formatter :func:`antdyn._output.format_passes`,
    which hands every cell it cannot decide with margin to ``"%.17g"``
    itself.  When ``source`` is given, a trailing ``source`` column
    carries it on every row.  A pass holds a few thousand cells, so the
    memory of the text in flight does not grow with the length of the
    run.
    """
    columns = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["S"]
    if source is not None:
        columns.append("source")
    yield ",".join(columns) + "\n"
    end = "\n" if source is None else f",{source}\n"
    yield from format_passes([traj.times, traj.states, traj.sums], end)


def trajectory_to_csv(traj: Trajectory, source: Optional[str] = None) -> str:
    """Render a trajectory as CSV text: the passes of :func:`iter_trajectory_csv`, joined.

    The whole text is held in memory; :func:`write_trajectory_csv`
    streams the same bytes to a file instead.
    """
    return "".join(iter_trajectory_csv(traj, source))


def write_trajectory_csv(traj: Trajectory, path, source: Optional[str] = None):
    """Write :func:`trajectory_to_csv` output atomically; return the path as a ``Path``.

    The CSV streams into the temporary file of
    :func:`antdyn._output.write_atomic`, the writer of
    :func:`~antdyn.reporting.write_text_atomic`, one pass at a time, so
    its memory does not grow with the length of the run.
    """
    return write_atomic(path, iter_trajectory_csv(traj, source))
