"""Convergence-rate extraction and long-run limit verification.

Rates are always reported in gain-scaled time ``tau = gamma t``; each
report carries the gain so model-time rates are recoverable by
multiplication.  This also makes runs with different gains comparable,
which the variant ranking below relies on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

# private: np.linalg.lstsq's own gufunc fits a stack of rows, each bit for bit as lstsq alone
# would (ROADMAP item 1's closed-form slope removes it)
from numpy.linalg._umath_linalg import lstsq as _lstsq

from .models import GKind, ModelSpec, PhiKind, require_interval
from .simulate import SumBoundsReport, Trajectory, check_sum_bounds, require_paths

# A component counts as converged to zero below this fraction of the
# natural scale beta d_1 / alpha.
ZERO_THRESHOLD_FACTOR = 1e-4

# The tied-set sum must come within this fraction of that scale of it.
SUM_TOLERANCE_FACTOR = 1e-2

# Largest relative change of the sum over the last 10% of a settled run.
SETTLE_RTOL = 1e-3

MIN_FIT_SAMPLES = 10

_EPS = np.finfo(float).eps

# Runs are ranked by when x_1 comes within this fraction of its limit.
RANK_THRESHOLD = 0.05


class FitError(RuntimeError):
    """Not enough usable samples for a log-linear fit."""


class VerificationStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of ``|x(t) - limit|`` against t."""

    rate: float
    limit: float
    r_squared: float
    n_samples: int
    window: tuple[float, float]


def fit_decay_rate(times, values, limit: Optional[float] = 0.0) -> DecayFit:
    """Fit an exponential decay rate by least squares in the log domain.

    The one-row case of ``fit_decay_rates``: the fit of ``values`` on
    ``times`` toward ``limit``, or that row's ``FitError`` raised.  Every
    sample given is fitted; choosing a time window is the caller's
    business (``rate_report`` applies its window once for every series).

    Parameters
    ----------
    times, values : array_like
        Sample grid; ``times`` in whatever scale the caller fits in.
    limit : float or None
        Center of the residual.  0 for quantities decaying to zero
        (default).  ``None`` estimates the center as the mean over the
        last 10% of the samples, the convention for components that
        approach a nonzero limit.

    Raises
    ------
    FitError
        If fewer than ``MIN_FIT_SAMPLES`` usable samples remain, an empty
        input included.  Samples at or past a zero residual (for example
        an integrator that stepped an already-converged component below
        zero) truncate the fit.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    (fit,) = fit_decay_rates(t, v[np.newaxis], (limit,))
    if isinstance(fit, FitError):
        raise fit
    return fit


def fit_decay_rates(times, rows, limits: Sequence[Optional[float]]) -> list[DecayFit | FitError]:
    """Fit every row of a ``(k, m)`` block on the common grid ``times``.

    Row i is fitted toward ``limits[i]`` (0, ``None`` or a float, as in
    ``fit_decay_rate``).  Entry i of the result is that row's ``DecayFit``,
    or its ``FitError``, returned rather than raised.  Each row's fit is
    bit for bit numpy's degree-1 ``polyfit`` of its ``log|residual|``,
    whatever the other rows hold.

    Tail means, residuals and truncation ends are taken on the whole
    block.  A row is fitted on a prefix of the grid (the estimated tail
    and the first zero residual only shorten it), so the rows of one
    usable length share one design matrix, one stacked least-squares
    call and one pass for their sums of squares.  Each rank-deficient row
    warns ``RankWarning``; a solve that does not converge raises
    ``LinAlgError`` for the whole block, as ``np.linalg.lstsq`` does.
    """
    t = np.asarray(times, dtype=float)
    block = np.asarray(rows, dtype=float)
    if t.ndim != 1 or block.ndim != 2 or block.shape[1] != t.size:
        raise ValueError("rows must be a 2-D block with one column per time")
    k, m = block.shape
    if len(limits) != k:
        raise ValueError(f"need one limit per row, got {len(limits)} for {k} rows")
    estimated = np.array([limit is None for limit in limits], dtype=bool)
    center = np.array([0.0 if limit is None else limit for limit in limits], dtype=float)
    means, tail = _tail_means(block)
    # the tail defines an estimated limit, so its residuals are estimation
    # bias, not decay; such a row is fitted on the remaining samples only
    center[estimated] = means[estimated]
    residual = block - center[:, np.newaxis]
    zero = center == 0.0
    # bad[i, j]: sample j ends row i's fit; the extra column ends a row that never does
    bad = np.ones((k, m + 1), dtype=bool)
    bad[:, :m] = residual == 0.0
    bad[zero, :m] = block[zero] <= 0.0
    bad[estimated, max(m - tail, 0) : m] = True
    centers = center.tolist()

    fits: list = []
    groups: dict[int, list[int]] = {}  # usable length -> the rows fitted on that prefix
    for i, end in enumerate(bad.argmax(axis=1).tolist()):
        if end < MIN_FIT_SAMPLES:
            fits.append(
                FitError(
                    f"only {end} usable samples after truncation, need at least {MIN_FIT_SAMPLES}"
                )
            )
        else:
            fits.append(None)
            groups.setdefault(end, []).append(i)
    deficient = 0
    for length, members in groups.items():
        ts = t[:length]
        # no residual inside a row's usable prefix is zero
        y = np.log(np.abs(residual[members, :length]))
        # the degree-1 least squares of numpy's polyfit, step for step, without its wrapper
        lhs = np.empty((length, 2))
        lhs[:, 0] = ts
        lhs[:, 1] = 1.0
        scale = np.sqrt(np.add.reduce(lhs * lhs, axis=0))
        lhs /= scale
        with np.errstate(
            call=_raise_lstsq_error, invalid="call", over="ignore", divide="ignore", under="ignore"
        ):
            coef, _, rank, _ = _lstsq(lhs, y[..., np.newaxis], length * _EPS, signature="ddd->ddid")
        coef = coef[..., 0] / scale
        slope, intercept = coef[:, :1], coef[:, 1:]
        ss_res = np.add.reduce((y - (slope * ts + intercept)) ** 2, axis=1).tolist()
        mean = np.add.reduce(y, axis=1, keepdims=True) / length
        ss_tot = np.add.reduce((y - mean) ** 2, axis=1).tolist()
        rates = (-slope[:, 0]).tolist()
        window = (float(ts[0]), float(ts[-1]))
        deficient += int(np.count_nonzero(rank != 2))
        for row, i in enumerate(members):
            res, tot = ss_res[row], ss_tot[row]
            fits[i] = DecayFit(
                rate=rates[row],
                limit=centers[i],
                r_squared=1.0 if tot == 0.0 else 1.0 - res / tot,
                n_samples=length,
                window=window,
            )
    for _ in range(deficient):
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    return fits


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def window_mask(times: np.ndarray, window) -> np.ndarray:
    """The samples of ``times`` inside the inclusive ``window = (lo, hi)`` of finite bounds."""
    lo, hi = require_interval("window", window)
    return (times >= lo) & (times <= hi)


def _tail_means(block: np.ndarray) -> tuple[np.ndarray, int]:
    """Mean of each row's last 10% of samples (at least one), and how many that is."""
    tail = max(1, int(math.ceil(0.1 * block.shape[-1])))
    return np.add.reduce(block[..., -tail:], axis=-1) / tail, tail


@dataclass(frozen=True)
class ComponentRate:
    """Per-component rate entry; times and rates are gain-scaled."""

    index: int
    d_value: float
    tied: bool
    fitted_rate: float
    theoretical_rate: float
    fitted_limit: float
    theoretical_limit: float
    relative_rate_error: Optional[float]
    r_squared: float
    n_samples: int


@dataclass(frozen=True)
class SeriesRate:
    """Rate entry for a derived series (tied-set sum, state sum)."""

    label: str
    fitted_rate: float
    theoretical_rate: Optional[float]
    fitted_limit: float
    theoretical_limit: float
    relative_rate_error: Optional[float]
    r_squared: float


@dataclass(frozen=True, eq=False)
class RateReport:
    """Rates of every component plus the tied-set and total sums."""

    components: tuple[ComponentRate, ...]
    tied_sum: Optional[SeriesRate]
    total_sum: Optional[SeriesRate]
    gamma: float
    window: tuple[float, float]


def default_fit_window(scaled_times: np.ndarray) -> tuple[float, float]:
    """Last half of the horizon, excluding the final 2%."""
    end = float(scaled_times[-1])
    if not end > 0.0:
        raise ValueError("the run spans no time, so there is nothing to fit")
    return (0.5 * end, 0.98 * end)


def rate_report(
    model: ModelSpec, traj: Trajectory, window: Optional[tuple[float, float]] = None
) -> RateReport:
    """Fit decay rates on a trajectory and compare with theory.

    Component i with weight below d_1 decays to zero at the gain-scaled
    rate ``alpha (1 - d_i / d_1)``; tied-leading components approach
    ``x_i(0) / (alpha sigma_1)`` and their theoretical rate is recorded
    as zero with no relative error.  The residual of the state sum from
    ``beta d_1 / alpha`` decays at ``alpha (1 - d'_2 / d_1)``, fitted
    here as the ``total-sum`` series (and the tied-set sum as
    ``tied-sum``).

    Every series is fitted in one call of ``fit_decay_rates`` on the
    samples inside ``window``, an inclusive interval of gain-scaled time:
    the n components, then the tied-set sum and the state sum (these two
    only when some path is not tied; otherwise they have no rate).  A
    given window with a bound that is not finite, with ``lo >= hi`` or
    one that selects no sample raises ``ValueError``; the default,
    ``default_fit_window``, lies inside the horizon and is taken as is.
    Fits that run out of usable samples inside the window, for instance
    on a chattering signum run or a run of a step or two, are reported
    with NaN rates rather than aborting the report.
    """
    require_paths(traj, model)
    paths, n, tied = model.paths, model.n, model.paths.tied
    scaled = model.gamma * traj.times
    # window once for every fit: one time vector and one contiguous row per component
    given = window is not None
    window = window if given else default_fit_window(scaled)
    mask = window_mask(scaled, window)
    if given and not mask.any():
        lo, hi = window
        raise ValueError(
            f"window = {float(lo)!r}, {float(hi)!r} selects no sample of the run, "
            f"whose gain-scaled horizon is {scaled[-1]:.12g}"
        )
    t = scaled[mask]
    windowed = traj.states[mask]
    x0, scale = traj.states[0], model.mu[0]
    sigma1 = float(np.sum(x0[:tied])) / (model.beta * paths.d_distinct[0])
    # the theory of every row: the n components, then the tied-set sum and the state sum
    sum_rate = None
    if paths.d_distinct.size > 1:
        sum_rate = model.alpha * (1.0 - paths.d_distinct[1] / paths.d_distinct[0])
    rate_theory = [0.0] * tied + (model.alpha * (1.0 - paths.d[tied:] / paths.d[0])).tolist()
    rate_theory += [sum_rate] * 2
    limit_theory = (x0[:tied] / (model.alpha * sigma1)).tolist() + [0.0] * (n - tied) + [scale] * 2
    rows = np.empty((n + 2, t.size))
    rows[:n] = windowed.T
    rows[n] = paths.tied_sum(windowed)
    rows[n + 1] = traj.sums[mask]
    # the sums are centered on the theoretical limit, since the decay-rate statement is
    # about the distance from the true limit; when every path ties they are not fitted
    fitted = n if sum_rate is None else n + 2
    fits = fit_decay_rates(t, rows[:fitted], [None] * tied + limit_theory[tied:fitted])
    fits += [None] * (n + 2 - fitted)
    tail_means = _tail_means(rows)[0].tolist()

    entries = []
    for i, fit in enumerate(fits):
        if i >= n and (not t.size or isinstance(fit, FitError)):
            # no sum entry for a window with no sample (the default can fall between the
            # two samples of one step) or a fit that ran out of samples
            entries.append(None)
            continue
        ok = isinstance(fit, DecayFit)
        fitted_rate, r_squared = (fit.rate, fit.r_squared) if ok else (math.nan, math.nan)
        if ok and i < n:
            fitted_limit = fit.limit
        else:
            # no fitted limit: a sum or a tied component still reports its tail mean
            fitted_limit = tail_means[i] if t.size and (i < tied or i >= n) else math.nan
        rate = rate_theory[i]
        rel = abs(fitted_rate - rate) / rate if i >= tied and math.isfinite(fitted_rate) else None
        values = (fitted_rate, rate, fitted_limit, limit_theory[i], rel, r_squared)
        if i < n:
            n_samples = fit.n_samples if ok else 0
            entries.append(ComponentRate(i, float(paths.d[i]), i < tied, *values, n_samples))
        else:
            entries.append(SeriesRate(("tied-sum", "total-sum")[i - n], *values))

    return RateReport(
        components=tuple(entries[:n]),
        tied_sum=entries[n],
        total_sum=entries[n + 1],
        gamma=model.gamma,
        window=(float(window[0]), float(window[1])),
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Outcome of the long-run limit verification on one trajectory."""

    status: VerificationStatus
    settled: bool
    settle_change: float
    zero_ok: bool
    max_other: float
    zero_threshold: float
    sum_ok: bool
    tied_sum_final: float
    expected_sum: float
    sum_tolerance: float
    tied_indices: tuple[int, ...]
    envelope_ok: Optional[bool]
    envelope: Optional[SumBoundsReport]


def verify_convergence(traj: Trajectory, model: ModelSpec) -> ConvergenceReport:
    """Check the long-run limit statement on a finished run.

    Three checks: every component off the tied-leading set is below
    ``ZERO_THRESHOLD_FACTOR * beta d_1 / alpha`` at the final time; the
    tied-set sum is within ``SUM_TOLERANCE_FACTOR * beta d_1 / alpha`` of
    ``beta d_1 / alpha``; and, for the identity-sum model, the state sum
    stayed inside its envelope.  If the sum is still moving by
    ``SETTLE_RTOL`` or more over the last 10% of the horizon, or the run
    has a single sample and so shows no movement at all, the verdict is
    inconclusive rather than a verdict on an unfinished transient.
    """
    require_paths(traj, model)
    scale = model.mu[0]
    sum_tolerance = SUM_TOLERANCE_FACTOR * scale
    tail = max(2, int(math.ceil(0.1 * traj.sums.size)))
    window = traj.sums[-tail:]
    settle_change = float((np.max(window) - np.min(window)) / abs(traj.sums[-1]))
    settled = window.size >= 2 and settle_change < SETTLE_RTOL

    tied = model.paths.tied
    final = traj.final_state
    zero_threshold = ZERO_THRESHOLD_FACTOR * scale
    max_other = float(np.max(final[tied:])) if tied < model.n else 0.0
    zero_ok = max_other < zero_threshold

    tied_sum_final = float(np.sum(final[:tied]))
    sum_ok = abs(tied_sum_final - scale) <= sum_tolerance

    envelope = None
    envelope_ok: Optional[bool] = None
    if model.phi_kind is PhiKind.SUM and model.g_kind is GKind.IDENTITY:
        envelope = check_sum_bounds(traj, model)
        envelope_ok = envelope.within

    if not settled:
        status = VerificationStatus.INCONCLUSIVE
    elif zero_ok and sum_ok and envelope_ok is not False:
        status = VerificationStatus.PASS
    else:
        status = VerificationStatus.FAIL
    return ConvergenceReport(
        status=status,
        settled=settled,
        settle_change=settle_change,
        zero_ok=zero_ok,
        max_other=max_other,
        zero_threshold=float(zero_threshold),
        sum_ok=sum_ok,
        tied_sum_final=tied_sum_final,
        expected_sum=float(scale),
        sum_tolerance=float(sum_tolerance),
        tied_indices=tuple(range(tied)),
        envelope_ok=envelope_ok,
        envelope=envelope,
    )


@dataclass(frozen=True)
class RankEntry:
    """Time to threshold for one run, in both time scales."""

    label: str
    rank: int
    tau_scaled: float
    tau_time: float
    limit: float
    reached: bool


@dataclass(frozen=True, eq=False)
class VariantRanking:
    """Runs ordered by gain-scaled time to threshold."""

    entries: tuple[RankEntry, ...]
    threshold: float


def compare_variants(runs: Sequence[tuple[str, ModelSpec, Trajectory]]) -> VariantRanking:
    """Rank runs by how fast the leading component reaches its limit.

    For each run the limit is the equilibrium value ``beta d_1 / alpha``
    of its model, and the crossing time is the first sample with
    ``|x_1(t) - limit| < RANK_THRESHOLD * limit``; runs that never cross get
    infinity.  Ranking is on gain-scaled time, the scale in which runs
    with different gains are comparable; ties share a rank.

    All runs must share the time grid, the initial state, the number of
    paths and the weight vector (the models themselves may differ), and
    each trajectory must have its model's number of paths.
    """
    if not runs:
        raise ValueError("need at least one run to rank")
    label0, model0, traj0 = runs[0]
    require_paths(traj0, model0)
    for label, model, traj in runs[1:]:
        if traj.n != traj0.n:
            raise ValueError(f"run {label!r} has {traj.n} paths, run {label0!r} has {traj0.n}")
        require_paths(traj, model)
        if not np.array_equal(traj.times, traj0.times):
            raise ValueError(f"run {label!r} has a different time grid")
        if not np.allclose(traj.states[0], traj0.states[0], rtol=1e-12, atol=0.0):
            raise ValueError(f"run {label!r} has a different initial state")
        if not np.allclose(model.paths.d, model0.paths.d, rtol=1e-12, atol=0.0):
            raise ValueError(f"run {label!r} has different preference weights")

    crossings = []
    for label, model, traj in runs:
        limit = model.mu[0]
        inside = np.abs(traj.states[:, 0] - limit) < RANK_THRESHOLD * limit
        reached = bool(inside.any())
        tau_time = float(traj.times[inside.argmax()]) if reached else math.inf
        crossings.append((label, model.gamma * tau_time, tau_time, limit, reached))
    # stable: tied runs keep the caller's order, and each ranks after the strictly earlier runs
    crossings.sort(key=lambda crossing: crossing[1])
    taus = [crossing[1] for crossing in crossings]
    entries = tuple(
        RankEntry(label, 1 + taus.index(tau_scaled), tau_scaled, *rest)
        for label, tau_scaled, *rest in crossings
    )
    return VariantRanking(entries=entries, threshold=RANK_THRESHOLD)
