"""Closed-form and asymptotic evaluation of the identity-sum dynamics.

The identity response with the reciprocal-sum saturation can be solved
exactly.  With weights ``d`` sorted nonincreasing, coefficients
``c_i = x_i(0) / (beta d_i)`` and exponents ``r_i = beta d_i`` define

    F(u) = sum_i c_i exp(r_i u)

and the solution in gain-scaled time ``tau = gamma t`` is

    u(tau) = F^{-1}( F(0) + (exp(alpha tau) - 1) / alpha )
    x_i(tau) = x_i(0) exp(r_i u(tau) - alpha tau)
    S(tau)   = exp(-alpha tau) F'(u(tau))

All sums of exponentials run in the log domain with a max shift, so the
evaluator stays usable far past the point where exp(alpha t) overflows
a double; the hard guard is ``alpha tau <= 700 ln 10``, beyond which the
asymptotic expansion must be used instead.  That expansion needs only the
tail-sum coefficients ``sigma_k`` of each group of tied weights and gives
the dominant behaviour plus the first correction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import logsumexp

from .models import DomainError, GKind, ModelSpec, PhiKind, require_positive_state
from .simulate import Scheme, Trajectory, sample_times

__all__ = [
    "AsymptoticState",
    "ClosedFormState",
    "FFunction",
    "LogValue",
    "MAX_LOG_ARG",
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

_INVERSE_RTOL = 1e-12


class OracleRangeError(ValueError):
    """Requested time is outside the closed-form evaluator's guard."""


@dataclass(frozen=True)
class LogValue:
    """A signed quantity stored as (log magnitude, sign).

    ``value`` is the best-effort linear rendering, ``sign * exp(log)``,
    exact to a few ulp of the log-domain result and infinite on overflow.
    """

    log: float
    sign: int

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            magnitude = math.exp(self.log)
        except OverflowError:
            magnitude = math.inf
        return self.sign * magnitude


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


def f_eval(F: FFunction, u: float) -> LogValue:
    """F(u) for u >= 0, computed with a max-shifted log-sum-exp."""
    if u < 0.0:
        raise ValueError(f"u must be nonnegative, got {u!r}")
    return LogValue(log=float(logsumexp(F.log_coefficients + F.exponents * u)), sign=1)


def f_prime(F: FFunction, u: float) -> LogValue:
    """F'(u) for u >= 0; strictly positive like F itself."""
    if u < 0.0:
        raise ValueError(f"u must be nonnegative, got {u!r}")
    logs = F.log_coefficients + np.log(F.exponents) + F.exponents * u
    return LogValue(log=float(logsumexp(logs)), sign=1)


def _log_f(F: FFunction, u: float) -> float:
    return float(logsumexp(F.log_coefficients + F.exponents * u))


def f_inverse(F: FFunction, y: Union[float, LogValue]) -> float:
    """Solve ``F(u) = y`` for ``u >= 0``.

    Newton iteration on ``log F(u) - log y``, which is increasing and
    convex in u, safeguarded by the bracket
    ``[0, (log y - log c_1) / r_1 + 1]`` with bisection whenever a Newton
    step leaves the bracket.  Relative accuracy on F is about 1e-12,
    degrading only to the log-domain representation limit (a few ulp of
    ``log y``) for arguments near the range guard.

    ``y`` may be a linear value or a :class:`LogValue`; it must be at
    least ``F(0)`` up to a relative slack of 1e-12, inside which the
    result snaps to 0.
    """
    if isinstance(y, LogValue):
        if y.sign <= 0:
            raise DomainError(f"y must be positive, got sign {y.sign}")
        log_y = y.log
    else:
        if not np.isfinite(y) or y <= 0.0:
            raise DomainError(f"y must be positive and finite, got {y!r}")
        log_y = math.log(y)
    log_f0 = F.log_f0
    if log_y <= log_f0:
        if log_y >= log_f0 + math.log1p(-_INVERSE_RTOL):
            return 0.0
        raise DomainError(f"y is below F(0) (log y = {log_y!r}, log F(0) = {log_f0!r})")

    r1 = float(F.exponents[0])
    hi = (log_y - float(F.log_coefficients[0])) / r1 + 1.0
    lo = 0.0
    u = hi
    tol = max(1e-13, 4.0 * np.finfo(float).eps * abs(log_y))
    for _ in range(200):
        value = _log_f(F, u) - log_y
        if abs(value) <= tol:
            return u
        if value > 0.0:
            hi = u
        else:
            lo = u
        slope = math.exp(f_prime(F, u).log - (value + log_y))
        step = value / slope
        candidate = u - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, hi):
            return candidate
        u = candidate
    return u  # bracket is a few ulp wide by now; best available point


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
    """Compute the tail-sum coefficients of an initial state."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 has shape {x0.shape}, model has {model.n} paths")
    paths = model.paths
    sigma = np.array(
        [
            sum(x0[j] for j in group) / (model.beta * paths.d_distinct[k])
            for k, group in enumerate(paths.groups)
        ]
    )
    return SigmaCoefficients(sigma=sigma)


def exact_state(F: FFunction, model: ModelSpec, x0, t: float) -> ClosedFormState:
    """Exact state of an identity-sum model at time ``t >= 0``.

    ``t`` is model time; the gain is absorbed internally as
    ``tau = gamma t``.  Raises :class:`OracleRangeError` once
    ``alpha tau`` exceeds the log-domain guard; use
    :func:`asymptotic_state` there, the truncation error of which is far
    below double resolution at such times.
    """
    x0 = np.asarray(x0, dtype=float)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    tau = model.gamma * t
    at = model.alpha * tau
    if at > MAX_LOG_ARG:
        raise OracleRangeError(
            f"alpha * gamma * t = {at!r} exceeds the evaluator guard ({MAX_LOG_ARG:.1f}); "
            "use asymptotic_state for times this late"
        )
    log_alpha = math.log(model.alpha)
    log_y, sign = logsumexp(
        np.array([F.log_f0, at - log_alpha, -log_alpha]),
        b=np.array([1.0, 1.0, -1.0]),
        return_sign=True,
    )
    if sign <= 0:  # pragma: no cover - y >= F(0) > 0 by construction
        raise OracleRangeError("internal cancellation produced a nonpositive target")
    u = f_inverse(F, LogValue(log=float(log_y), sign=1))
    x = x0 * np.exp(F.exponents * u - at)
    total = math.exp(f_prime(F, u).log - at)
    return ClosedFormState(x=x, total=total, t=float(t))


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
    if model.phi_kind is not PhiKind.SUM or model.g_kind is not GKind.IDENTITY:
        raise ValueError("asymptotic expansion applies to the identity response with phi=sum only")
    x0 = np.asarray(x0, dtype=float)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
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
    states = np.empty((steps + 1, model.n))
    if scheme is Scheme.EXACT:
        F = FFunction.from_model(model, x0)
        for k, t in enumerate(times):
            states[k] = exact_state(F, model, x0, float(t)).x
    else:
        sig = sigma_coefficients(model, x0)
        for k, t in enumerate(times):
            states[k] = asymptotic_state(sig, model, x0, float(t)).x
    return Trajectory(
        times=times, states=states, sums=states.sum(axis=1), scheme=scheme, dt=float(dt)
    )


def sample_exact(model: ModelSpec, x0, dt: float, steps: int) -> Trajectory:
    """Sample the closed form on a uniform grid as a Trajectory."""
    return _sample(model, x0, dt, steps, Scheme.EXACT)


def sample_asymptotic(model: ModelSpec, x0, dt: float, steps: int) -> Trajectory:
    """Sample the truncated expansion on a uniform grid as a Trajectory."""
    return _sample(model, x0, dt, steps, Scheme.ASYMPTOTIC)
