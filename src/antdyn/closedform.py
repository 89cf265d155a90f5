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
which the asymptotic expansion must be used instead.  A whole time grid is
solved in one monotone Newton iteration.  The expansion needs only the
tail-sum coefficients ``sigma_k`` of each group of tied weights and gives
the dominant behaviour plus the first correction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import DomainError, GKind, ModelSpec, PhiKind, require_positive_state
from .simulate import Scheme, Trajectory, sample_times

__all__ = [
    "AsymptoticState",
    "ClosedFormState",
    "FFunction",
    "MAX_LOG_ARG",
    "NEWTON_BUDGET",
    "OracleRangeError",
    "SigmaCoefficients",
    "exact_state",
    "f_eval",
    "f_inverse",
    "f_prime",
    "sample_asymptotic",
    "sample_exact",
    "sigma_coefficients",
    "asymptotic_state",
]

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


def logsumexp(a, axis=-1):
    """``log(sum(exp(a)))`` along ``axis``, shifted by the maximum so no exp overflows."""
    top = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)


@dataclass(frozen=True, eq=False)
class FFunction:
    """The exponential sum F and its building blocks.

    Attributes
    ----------
    coefficients : ndarray
        ``c_i = x_i(0) / (beta d_i)``, canonical order.
    exponents : ndarray
        ``r_i = beta d_i``, nonincreasing.
    """

    coefficients: np.ndarray
    exponents: np.ndarray
    log_coefficients: np.ndarray

    @classmethod
    def from_model(cls, model: ModelSpec, x0) -> "FFunction":
        """Build F for an identity-sum model and positive initial state."""
        if model.phi_kind is not PhiKind.SUM or model.g_kind is not GKind.IDENTITY:
            raise ValueError(
                "closed form exists for the identity response with phi=sum only, "
                f"got g={model.g_kind.value} phi={model.phi_kind.value}"
            )
        x0 = require_positive_state(x0, model.n)
        exponents = model.beta * model.paths.d
        coefficients = x0 / exponents
        return cls(
            coefficients=coefficients,
            exponents=exponents,
            log_coefficients=np.log(coefficients),
        )

    @property
    def f0(self) -> float:
        return float(np.sum(self.coefficients))

    @property
    def log_f0(self) -> float:
        return float(logsumexp(self.log_coefficients))


def _terms(u) -> np.ndarray:
    """``u`` with a trailing axis to broadcast against the n terms of F."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0):
        raise ValueError(f"u must be nonnegative, got {float(np.min(u))}")
    return u[..., None]


def f_eval(F: FFunction, u):
    """``log F(u)`` for scalar or array ``u >= 0``, elementwise."""
    return logsumexp(F.log_coefficients + F.exponents * _terms(u))


def f_prime(F: FFunction, u):
    """``log F'(u)`` for scalar or array ``u >= 0``, elementwise."""
    return logsumexp(F.log_coefficients + np.log(F.exponents) + F.exponents * _terms(u))


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
    if not np.all(valid):
        bad = float(log_y[~valid].flat[0])
        raise DomainError(f"log y = {bad} is not finite or y is below F(0) (log F(0) = {log_f0})")
    tol = np.maximum(1e-13, 4.0 * np.finfo(float).eps * np.abs(log_y))
    # log y > log F(0) >= log c_1 makes u0 positive
    u = np.where(log_y <= log_f0, 0.0, (log_y - F.log_coefficients[0]) / F.exponents[0])
    for _ in range(NEWTON_BUDGET):
        log_f = f_eval(F, u)
        residual = log_f - log_y
        active = (np.abs(residual) > tol) & (u > 0.0)
        if not np.any(active):
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
    t: float


@dataclass(frozen=True, eq=False)
class SigmaCoefficients:
    """Tail-sum coefficients, one per distinct weight value.

    ``sigma[k] = sum(x0_j for j in group k) / (beta * d_distinct[k])``.
    """

    sigma: np.ndarray


def sigma_coefficients(model: ModelSpec, x0) -> SigmaCoefficients:
    """Compute the tail-sum coefficients of a positive initial state."""
    x0 = require_positive_state(x0, model.n)
    paths = model.paths
    sigma = np.array(
        [
            sum(x0[j] for j in group) / (model.beta * paths.d_distinct[k])
            for k, group in enumerate(paths.groups)
        ]
    )
    return SigmaCoefficients(sigma=sigma)


def _exact_grid(F: FFunction, model: ModelSpec, x0: np.ndarray, times: np.ndarray):
    """Exact states (one row per time) and closed-form totals on a grid of model times."""
    at = model.alpha * (model.gamma * times)
    if np.any(at > MAX_LOG_ARG):
        raise OracleRangeError(
            f"alpha * gamma * t = {float(np.max(at))} exceeds the evaluator guard "
            f"({MAX_LOG_ARG:.1f}); use asymptotic_state for times this late"
        )
    # log y = log(F(0) + (exp(at) - 1) / alpha); at t = 0 the second term is log 0 = -inf
    with np.errstate(divide="ignore"):
        growth = at + np.log(-np.expm1(-at)) - math.log(model.alpha)
    u = f_inverse(F, np.logaddexp(F.log_f0, growth))
    x = x0 * np.exp(F.exponents * u[:, None] - at[:, None])
    total = np.exp(f_prime(F, u) - at)
    return x, total


def exact_state(F: FFunction, model: ModelSpec, x0, t: float) -> ClosedFormState:
    """Exact state of an identity-sum model at time ``t >= 0``.

    ``t`` is model time; the gain is absorbed internally as
    ``tau = gamma t``.  Raises :class:`OracleRangeError` once
    ``alpha tau`` exceeds the log-domain guard; use
    :func:`asymptotic_state` there, the truncation error of which is far
    below double resolution at such times.
    """
    x0 = require_positive_state(x0, model.n)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    x, total = _exact_grid(F, model, x0, np.array([float(t)]))
    return ClosedFormState(x=x[0], total=float(total[0]), t=float(t))


@dataclass(frozen=True, eq=False)
class AsymptoticState:
    """Truncated late-time expansion at one time.

    ``correction_ratio`` is the size of the first correction relative to
    the leading term; ``leading_valid`` is False while that ratio is
    above 10%, meaning the requested time is too early for the expansion.
    """

    x: np.ndarray
    total: float
    t: float
    correction_ratio: float
    leading_valid: bool


def asymptotic_state(
    sigma: SigmaCoefficients, model: ModelSpec, x0, t: float
) -> AsymptoticState:
    """Late-time state from the truncated expansion.

    Components on the tied-leading set approach ``x_i(0) / (alpha sigma_1)``
    with an exponentially small correction; every other component decays
    at rate ``alpha (1 - d'_k / d_1)`` in gain-scaled time.  The neglected
    remainder is set to zero, so validity is advertised through
    ``correction_ratio`` rather than silently degraded values.
    """
    x0 = require_positive_state(x0, model.n)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    return _asymptotic_state(sigma, model, x0, t)


def _asymptotic_state(
    sigma: SigmaCoefficients, model: ModelSpec, x0: np.ndarray, t: float
) -> AsymptoticState:
    """:func:`asymptotic_state` for an ``x0`` and ``t`` already checked."""
    if model.phi_kind is not PhiKind.SUM or model.g_kind is not GKind.IDENTITY:
        raise ValueError("asymptotic expansion applies to the identity response with phi=sum only")
    tau = model.gamma * t
    paths = model.paths
    dp = paths.d_distinct
    s = sigma.sigma
    lead = 1.0 / (model.alpha * s[0])

    if dp.size > 1:
        exponent = dp[1] / dp[0]
        decay = math.exp(-model.alpha * (1.0 - exponent) * tau)
        correction = (s[1] / s[0]) * lead**exponent * decay
        total = (
            model.beta * dp[0] / model.alpha
            - model.beta * s[1] * (dp[0] - dp[1]) * lead**exponent * decay
        )
        ratio = correction / lead
    else:
        correction = 0.0
        total = model.beta * dp[0] / model.alpha
        ratio = 0.0

    x = np.empty(model.n)
    for k, group in enumerate(paths.groups):
        idx = list(group)
        if k == 0:
            x[idx] = x0[idx] * (lead - correction)
        else:
            exponent_k = dp[k] / dp[0]
            x[idx] = (
                x0[idx]
                * lead**exponent_k
                * math.exp(-model.alpha * (1.0 - exponent_k) * tau)
            )
    return AsymptoticState(
        x=x,
        total=total,
        t=float(t),
        correction_ratio=float(ratio),
        leading_valid=bool(ratio <= CORRECTION_LIMIT),
    )


def _sample(model: ModelSpec, x0, dt: float, steps: int, scheme: Scheme) -> Trajectory:
    times = sample_times(dt, steps)
    x0 = np.asarray(x0, dtype=float)
    if scheme is Scheme.EXACT:
        states, _ = _exact_grid(FFunction.from_model(model, x0), model, x0, times)
    else:
        states = np.empty((steps + 1, model.n))
        sig = sigma_coefficients(model, x0)
        for k, t in enumerate(times):
            states[k] = _asymptotic_state(sig, model, x0, float(t)).x
    return Trajectory(
        times=times, states=states, sums=states.sum(axis=1), scheme=scheme, dt=float(dt)
    )


def sample_exact(model: ModelSpec, x0, dt: float, steps: int) -> Trajectory:
    """Sample the closed form on a uniform grid as a Trajectory."""
    return _sample(model, x0, dt, steps, Scheme.EXACT)


def sample_asymptotic(model: ModelSpec, x0, dt: float, steps: int) -> Trajectory:
    """Sample the truncated expansion on a uniform grid as a Trajectory."""
    return _sample(model, x0, dt, steps, Scheme.ASYMPTOTIC)
