"""Closed-form and asymptotic evaluation of the identity-sum dynamics.

The identity response with the reciprocal-sum saturation can be solved
exactly.  With weights ``d`` sorted nonincreasing, coefficients
``c_i = x_i(0) / (beta d_i)`` and exponents ``r_i = beta d_i`` define

    F(u) = sum_i c_i exp(r_i u)

and the solution in gain-scaled time ``tau = gamma t`` is

    u(tau) = F^{-1}( F(0) + (exp(alpha tau) - 1) / alpha )
    x_i(tau) = x_i(0) exp(r_i u(tau) - alpha tau)
    S(tau)   = exp(-alpha tau) F'(u(tau))

F and F' are handled only as logs, through one max-shifted log-sum-exp,
so the evaluator stays usable far past the point where exp(alpha t)
overflows a double; the hard guard is ``alpha tau <= 700 ln 10``, beyond
which the asymptotic expansion must be used instead.  The expansion needs
only the tail-sum coefficients ``sigma_k`` of each group of tied weights and
gives the dominant behaviour plus the first correction term.  Both are
evaluated over a whole time grid at once: the closed form in one monotone
Newton iteration, the expansion in a few array expressions.  The
single-time functions are the one-row case of these grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import DomainError, GKind, ModelSpec, PhiKind, require_positive, require_positive_state
from .simulate import Scheme, Trajectory, sample_times

# exp(alpha * tau) stays represented in the log domain up to here.
MAX_LOG_ARG = 700.0 * math.log(10.0)

# Fraction of the leading term above which the first correction makes the
# truncated expansion unreliable.
CORRECTION_LIMIT = 0.1

# Iterations f_inverse may take before it reports a failure to converge.
NEWTON_BUDGET = 200

_INVERSE_RTOL = 1e-12


class OracleRangeError(ValueError):
    """Requested time is outside the closed-form evaluator's guard."""


def logsumexp(a):
    """``log(sum(exp(a)))`` along the last axis, shifted by the maximum so no exp overflows."""
    top = np.maximum.reduce(a, axis=-1, keepdims=True)
    return np.log(np.add.reduce(np.exp(a - top), axis=-1)) + top.squeeze(-1)


def require_closed_form(g_kind, phi_kind) -> None:
    """Check that a variant is the identity-sum one, the only one with a closed form."""
    g, phi = GKind(g_kind), PhiKind(phi_kind)
    if g is not GKind.IDENTITY or phi is not PhiKind.SUM:
        raise ValueError(
            "the closed form and its expansion exist for the identity response with "
            f"phi=sum only, got g={g.value} phi={phi.value}"
        )


@dataclass(frozen=True, eq=False)
class FFunction:
    """The exponential sum F and its building blocks.

    Attributes
    ----------
    exponents : ndarray
        ``r_i = beta d_i``, nonincreasing.
    log_coefficients, log_slopes : ndarray
        ``log c_i`` and ``log c_i + log r_i``, the terms of ``log F`` and ``log F'`` at u = 0,
        where ``c_i = x_i(0) / (beta d_i)`` in canonical order.
    log_f0, x0
        ``log F(0)``, and the checked initial state F was built from.
    """

    exponents: np.ndarray
    log_coefficients: np.ndarray
    log_slopes: np.ndarray
    log_f0: float
    x0: np.ndarray

    @classmethod
    def from_model(cls, model: ModelSpec, x0) -> "FFunction":
        """Build F for an identity-sum model and positive initial state."""
        require_closed_form(model.g_kind, model.phi_kind)
        x0 = require_positive_state(x0, model.n)
        exponents = model.beta * model.paths.d
        logs = np.log(x0 / exponents)
        log_f0 = float(logsumexp(logs))
        return cls(exponents, logs, logs + np.log(exponents), log_f0, x0)


def _terms(u) -> np.ndarray:
    """``u`` with a trailing axis to broadcast against the n terms of F."""
    u = np.asarray(u, dtype=float)
    if (u < 0.0).any():
        raise ValueError(f"u must be nonnegative, got {float(np.min(u))}")
    return u[..., None]


def f_eval(F: FFunction, u):
    """``log F(u)`` for scalar or array ``u >= 0``, elementwise."""
    return logsumexp(F.log_coefficients + F.exponents * _terms(u))


def f_prime(F: FFunction, u):
    """``log F'(u)`` for scalar or array ``u >= 0``, elementwise."""
    return logsumexp(F.log_slopes + F.exponents * _terms(u))


def f_inverse(F: FFunction, log_y):
    """Solve ``log F(u) = log_y`` for ``u >= 0``, elementwise over scalar or array targets.

    ``log F`` is increasing and convex and ``F(u) >= c_1 exp(r_1 u)``, so
    Newton from ``u0 = (log_y - log c_1) / r_1`` descends monotonically onto
    the root without ever crossing it.  A target is done once its log
    residual is within ``max(1e-13, 4 eps |log_y|)``, whatever the other
    targets do.  Targets within a relative 1e-12 below ``F(0)`` snap to 0;
    lower or non-finite ones raise :class:`DomainError`; a target still
    unconverged after ``NEWTON_BUDGET`` iterations raises
    :class:`OracleRangeError`.
    """
    log_y = np.asarray(log_y, dtype=float)
    log_f0 = F.log_f0
    valid = np.isfinite(log_y) & (log_y >= log_f0 + math.log1p(-_INVERSE_RTOL))
    if not valid.all():
        bad = float(log_y[~valid].flat[0])
        raise DomainError(f"log y = {bad} is not finite or y is below F(0) (log F(0) = {log_f0})")
    tol = np.maximum(1e-13, 4.0 * np.finfo(float).eps * np.abs(log_y))
    # log y > log F(0) >= log c_1 makes u0 positive
    u = np.where(log_y <= log_f0, 0.0, (log_y - F.log_coefficients[0]) / F.exponents[0])
    for _ in range(NEWTON_BUDGET):
        log_f = f_eval(F, u)
        residual = log_f - log_y
        active = (np.abs(residual) > tol) & (u > 0.0)
        if not active.any():
            return u
        step = residual * np.exp(log_f - f_prime(F, u))
        u = np.where(active, np.maximum(u - step, 0.0), u)
    raise OracleRangeError(
        f"F^-1 did not converge in {NEWTON_BUDGET} Newton steps "
        f"(worst log residual {float(np.max(np.abs(residual)))})"
    )


@dataclass(frozen=True, eq=False)
class ClosedFormState:
    """Exact state at one time, with the sum from its own closed form."""

    x: np.ndarray
    total: float


@dataclass(frozen=True, eq=False)
class SigmaCoefficients:
    """Tail-sum coefficients, one per distinct weight value, of the checked initial state ``x0``.

    ``sigma[k] = sum(x0_j for j in group k) / (beta * d_distinct[k])``.
    """

    sigma: np.ndarray
    x0: np.ndarray


def sigma_coefficients(model: ModelSpec, x0) -> SigmaCoefficients:
    """Compute the tail-sum coefficients of a positive initial state."""
    x0 = require_positive_state(x0, model.n)
    paths = model.paths
    sums = np.bincount(paths.group, weights=x0)
    return SigmaCoefficients(sigma=sums / (model.beta * paths.d_distinct), x0=x0)


def _exact_grid(F: FFunction, model: ModelSpec, times: np.ndarray):
    """Exact states (one row per time) on a grid of model times, and the solved ``u``."""
    at = model.alpha * (model.gamma * times)
    if (at > MAX_LOG_ARG).any():
        raise OracleRangeError(
            f"alpha * gamma * t = {float(np.max(at))} exceeds the evaluator guard "
            f"({MAX_LOG_ARG:.1f}); use asymptotic_state for times this late"
        )
    # log y = log(F(0) + (exp(at) - 1) / alpha); at t = 0 the second term is log 0 = -inf
    with np.errstate(divide="ignore"):
        growth = at + np.log(-np.expm1(-at)) - math.log(model.alpha)
    u = f_inverse(F, np.logaddexp(F.log_f0, growth))
    return F.x0 * np.exp(F.exponents * u[:, None] - at[:, None]), u


def exact_state(F: FFunction, model: ModelSpec, x0, t: float) -> ClosedFormState:
    """Exact state of an identity-sum model at time ``t >= 0``.

    ``t`` is model time; the gain is absorbed internally as
    ``tau = gamma t``.  Raises :class:`OracleRangeError` once
    ``alpha tau`` exceeds the log-domain guard; use
    :func:`asymptotic_state` there, the truncation error of which is far
    below double resolution at such times.  A negative or non-finite ``t``
    raises ``ValueError``, and so does an ``x0`` other than the one ``F``
    was built from.
    """
    t = _one_time(F.x0, x0, "F", t)
    x, u = _exact_grid(F, model, np.array([t]))
    total = np.exp(f_prime(F, u) - model.alpha * (model.gamma * t))
    return ClosedFormState(x=x[0], total=float(total[0]))


def _one_time(built_from: np.ndarray, x0, what: str, t) -> float:
    """Check that ``x0`` is the state ``what`` was built from and ``t`` is finite and >= 0."""
    if not np.array_equal(np.asarray(x0, dtype=float), built_from):
        raise ValueError(f"x0 is not {built_from.tolist()}, the state {what} was built from")
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    return t


@dataclass(frozen=True, eq=False)
class AsymptoticState:
    """Truncated late-time expansion at one time.

    ``correction_ratio`` is the size of the first correction relative to
    the leading term; ``leading_valid`` is False while that ratio is
    above 10%, meaning the requested time is too early for the expansion.
    """

    x: np.ndarray
    total: float
    correction_ratio: float
    leading_valid: bool


def asymptotic_state(
    sigma: SigmaCoefficients, model: ModelSpec, x0, t: float
) -> AsymptoticState:
    """Late-time state from the truncated expansion at time ``t >= 0``.

    Components on the tied-leading set approach ``x_i(0) / (alpha sigma_1)``
    with an exponentially small correction; every other component decays
    at rate ``alpha (1 - d'_k / d_1)`` in gain-scaled time.  The neglected
    remainder is set to zero, so validity is advertised through
    ``correction_ratio`` rather than silently degraded values: while
    ``leading_valid`` is False the tied-leading components may even come
    out negative.  A negative or non-finite ``t`` raises ``ValueError``,
    and so does an ``x0`` other than the one ``sigma`` was computed from.
    This is the one-row case of the grid that :func:`sample_asymptotic`
    evaluates.
    """
    t = _one_time(sigma.x0, x0, "sigma", t)
    x, total, ratio = _asymptotic_grid(sigma, model, np.array([t]))
    ratio = float(ratio[0])
    return AsymptoticState(x[0], float(total[0]), ratio, ratio <= CORRECTION_LIMIT)


def _asymptotic_grid(sigma: SigmaCoefficients, model: ModelSpec, times):
    """Expansion states (one row per time), totals and correction ratios on a grid of model times.

    Each component takes the distinct weight of its group as its exponent.
    """
    require_closed_form(model.g_kind, model.phi_kind)
    tau = model.gamma * times
    dp = model.paths.d_distinct
    s = sigma.sigma
    lead = 1.0 / (model.alpha * s[0])
    exponent = dp / dp[0]
    scale = lead**exponent
    # one column per non-leading group
    decay = np.exp(-model.alpha * (1.0 - exponent[1:]) * tau[:, None])
    correction = np.zeros(tau.size)
    total = np.full(tau.size, model.mu[0])
    if dp.size > 1:  # the first correction comes from the second group
        correction = (s[1] / s[0]) * scale[1] * decay[:, 0]
        total -= model.beta * s[1] * (dp[0] - dp[1]) * scale[1] * decay[:, 0]
    tied = model.paths.tied
    rest = model.paths.group[tied:]
    x = np.empty((tau.size, model.n))
    x[:, :tied] = sigma.x0[:tied] * (lead - correction)[:, None]
    x[:, tied:] = sigma.x0[tied:] * scale[rest] * decay[:, rest - 1]
    return x, total, correction / lead


def _sample(model: ModelSpec, x0, dt: float, steps: int, scheme: Scheme) -> Trajectory:
    dt = require_positive("dt", dt)
    times = sample_times(dt, steps)
    valid = None
    if scheme is Scheme.EXACT:
        states, _ = _exact_grid(FFunction.from_model(model, x0), model, times)
    else:
        states, _, ratio = _asymptotic_grid(sigma_coefficients(model, x0), model, times)
        valid = ratio <= CORRECTION_LIMIT
    return Trajectory(states=states, scheme=scheme, dt=dt, leading_valid=valid)


def sample_exact(model: ModelSpec, x0, dt: float, steps: int) -> Trajectory:
    """Sample the closed form on a uniform grid as a Trajectory."""
    return _sample(model, x0, dt, steps, Scheme.EXACT)


def sample_asymptotic(model: ModelSpec, x0, dt: float, steps: int) -> Trajectory:
    """Sample the truncated expansion on a uniform grid as a Trajectory.

    Row ``k`` is ``asymptotic_state(sigma_coefficients(model, x0), model,
    x0, k * dt).x`` up to rounding; the whole grid is evaluated at once.
    ``leading_valid`` holds that state's flag for every row.
    """
    return _sample(model, x0, dt, steps, Scheme.ASYMPTOTIC)
