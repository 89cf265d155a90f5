"""Rate fitting, limit verification and variant ranking tests."""

import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import antdyn.analysis
from antdyn import (
    FitError,
    IntegrationError,
    PositivityPolicy,
    Scheme,
    Trajectory,
    VerificationStatus,
    check_sum_bounds,
    compare_variants,
    default_fit_window,
    fit_decay_rate,
    fit_decay_rates,
    integrate,
    rate_report,
    sample_exact,
    verify_convergence,
)
from antdyn.analysis import MIN_FIT_SAMPLES, DecayFit
from antdyn.models import TIE_RTOL

from helpers import make_model


def make_trajectory(states, dt):
    return Trajectory(states=np.asarray(states, dtype=float), scheme=Scheme.EULER, dt=dt)


# -- decay fitting ------------------------------------------------------


def test_fit_recovers_pure_exponential():
    t = np.linspace(0.0, 12.0, 400)
    fit = fit_decay_rate(t, 3.7 * np.exp(-0.85 * t))
    assert fit.rate == pytest.approx(0.85, rel=1e-10)
    assert fit.limit == 0.0
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_samples == 400


def test_fit_with_known_nonzero_limit():
    t = np.linspace(0.0, 10.0, 300)
    values = 2.5 + 0.9 * np.exp(-1.3 * t)
    fit = fit_decay_rate(t, values, limit=2.5)
    assert fit.rate == pytest.approx(1.3, rel=1e-9)
    assert fit.limit == 2.5


def test_fit_estimates_limit_from_tail():
    # the limit estimate is biased by ~e^{-0.9 T}, which leaks into the
    # late residuals; the horizon must be long enough to dilute that
    t = np.linspace(0.0, 20.0, 2000)
    values = 5.0 + np.exp(-t)
    fit = fit_decay_rate(t, values, limit=None)
    assert fit.limit == pytest.approx(5.0, abs=1e-7)
    assert fit.rate == pytest.approx(1.0, rel=0.05)


def test_fit_window_selects_samples():
    # the window is rate_report's: every fit sees only the samples inside it
    t = np.arange(500) * 0.04
    traj = make_trajectory(np.column_stack([np.full(500, 1.0), np.exp(-0.5 * t)]), 0.04)
    entry = rate_report(make_model([1, 2]), traj, window=(5.0, 15.0)).components[1]
    assert entry.n_samples == np.count_nonzero((t >= 5.0) & (t <= 15.0))
    assert entry.fitted_rate == pytest.approx(0.5, rel=1e-10)
    # numpy scalars are named as plain floats
    with pytest.raises(ValueError, match=re.escape("got (5.0, 5.0)") + "$"):
        rate_report(make_model([1, 2]), traj, window=(np.float64(5.0), np.float64(5.0)))
    with pytest.raises(ValueError, match="^window = 100.0, 200.0 selects no sample"):
        rate_report(make_model([1, 2]), traj, window=(np.float64(100.0), np.float64(200.0)))
    # so are bounds that are not finite
    for window, shown in [((0.0, math.inf), "(0.0, inf)"), ((math.nan, 15.0), "(nan, 15.0)")]:
        message = re.escape(f"window must be finite, got {shown}") + "$"
        with pytest.raises(ValueError, match=message):
            rate_report(make_model([1, 2]), traj, window=window)


def test_fit_truncates_at_dead_samples():
    t = np.linspace(0.0, 10.0, 100)
    values = np.exp(-t)
    values[60:] = 0.0  # an integrator that bottomed out
    fit = fit_decay_rate(t, values)
    assert fit.n_samples == 60
    assert fit.rate == pytest.approx(1.0, rel=1e-9)


def test_fit_needs_enough_samples():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(FitError, match="usable samples"):
        fit_decay_rate(t, np.exp(-t))
    with pytest.raises(ValueError, match="1-D"):
        fit_decay_rate(t, np.exp(-t)[:3])


def test_default_fit_window_fractions():
    window = default_fit_window(np.linspace(0.0, 100.0, 11))
    assert window == (50.0, 98.0)


def reference_fit(times, values, limit=0.0):
    """The fit as numpy's own wrappers compute it: np.mean, np.polyfit and np.sum."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    if limit is None:
        tail = max(1, int(math.ceil(0.1 * t.size)))
        limit = float(np.mean(v[-tail:])) if t.size else 0.0  # no samples: nothing to fit
        t = t[:-tail]
        v = v[:-tail]
    residual = v - limit
    bad = v <= 0.0 if limit == 0.0 else residual == 0.0
    if np.any(bad):
        t = t[: int(np.argmax(bad))]
        residual = residual[: int(np.argmax(bad))]
    if t.size < MIN_FIT_SAMPLES:
        raise FitError(
            f"only {t.size} usable samples after truncation, need at least {MIN_FIT_SAMPLES}"
        )
    log_residual = np.log(np.abs(residual))
    slope, intercept = np.polyfit(t, log_residual, 1)
    predicted = slope * t + intercept
    ss_res = float(np.sum((log_residual - predicted) ** 2))
    ss_tot = float(np.sum((log_residual - np.mean(log_residual)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(-slope),
        limit=float(limit),
        r_squared=r_squared,
        n_samples=int(t.size),
        window=(float(t[0]), float(t[-1])),
    )


def outcome(fit, *args, **kwargs):
    """The fit, or the type and message of the error it raised."""
    try:
        return fit(*args, **kwargs)
    except (FitError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def fit_inputs(draw):
    """Noisy decays on irregular grids, toward 0, an estimated limit or a known one,
    with dead samples and too few samples (none too)."""
    m = draw(st.integers(0, 60))
    start = draw(st.floats(0.0, 50.0))
    times = start + np.cumsum(draw(st.lists(st.floats(1e-3, 2.0), min_size=m, max_size=m)))
    noise = np.array(draw(st.lists(st.floats(-1e-2, 1e-2), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["zero", "estimated", "known"]))
    level = 0.0 if kind == "zero" else 10.0 ** draw(st.floats(-3.0, 3.0))
    amplitude = 10.0 ** draw(st.floats(-6.0, 6.0))
    decay = np.exp(-draw(st.floats(1e-3, 3.0)) * (times - start))
    values = level + amplitude * decay * (1.0 + noise)
    dead = draw(st.none() | st.integers(0, max(m - 1, 0)))
    if dead is not None and m:
        # an integrator that bottomed out, or a residual that reached exactly 0
        values[dead:] = draw(st.sampled_from([0.0, -1e-12])) if kind == "zero" else level
    limit = {"zero": 0.0, "estimated": None, "known": level}[kind]
    return times, values, limit


@settings(max_examples=300, deadline=None)
@given(fit_inputs())
def test_fit_is_bitwise_numpys_polyfit(inputs):
    times, values, limit = inputs
    expected = outcome(reference_fit, times, values, limit=limit)
    assert outcome(fit_decay_rate, times, values, limit=limit) == expected


def test_fit_warns_like_polyfit_on_a_degenerate_grid():
    times = np.full(12, 3.0)  # one time: the [t, 1] design matrix has rank 1
    values = np.exp(-np.arange(12.0))
    with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
        expected = reference_fit(times, values)
    with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
        assert fit_decay_rate(times, values) == expected


@st.composite
def stacked_fit_inputs(draw):
    """Rows of one grid toward 0, an estimated limit or a known one, each with its
    own dead samples, so that the rows fall into several usable lengths and at
    least one row is too short to fit."""
    m = draw(st.integers(3 * MIN_FIT_SAMPLES, 80))
    start = draw(st.floats(0.0, 50.0))
    times = start + np.cumsum(draw(st.lists(st.floats(1e-3, 2.0), min_size=m, max_size=m)))
    cap = m - math.ceil(0.1 * m)  # the usable length of an estimated row with no dead sample
    kinds = st.sampled_from(["zero", "estimated", "known"])
    # one row dies too early to fit (a known center is hit exactly, while the tail
    # mean of an estimated row may miss it by an ulp), one partway and one never
    specs = [
        (draw(st.integers(0, MIN_FIT_SAMPLES - 1)), draw(st.sampled_from(["zero", "known"]))),
        (draw(st.integers(MIN_FIT_SAMPLES, cap - 1)), draw(kinds)),
        (None, draw(kinds)),
    ]
    specs += draw(st.lists(st.tuples(st.none() | st.integers(0, m - 1), kinds), max_size=5))
    rows, limits = [], []
    for dead, kind in draw(st.permutations(specs)):
        noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1e-2, 1e-2, m)
        level = 0.0 if kind == "zero" else 10.0 ** draw(st.floats(-3.0, 3.0))
        amplitude = 10.0 ** draw(st.floats(-6.0, 6.0))
        decay = np.exp(-draw(st.floats(1e-3, 3.0)) * (times - start))
        values = level + amplitude * decay * (1.0 + noise)
        if dead is not None:
            values[dead:] = draw(st.sampled_from([0.0, -1e-12])) if kind == "zero" else level
        rows.append(values)
        limits.append({"zero": 0.0, "estimated": None, "known": level}[kind])
    return times, np.array(rows), limits


@settings(max_examples=300, deadline=None)
@given(stacked_fit_inputs())
def test_stacked_fit_is_bitwise_numpys_polyfit_row_by_row(inputs):
    times, rows, limits = inputs
    expected = [outcome(reference_fit, times, row, limit=lim) for row, lim in zip(rows, limits)]
    lengths = {fit.n_samples for fit in expected if isinstance(fit, DecayFit)}
    assume(len(lengths) >= 2)  # a residual that underflows to zero can merge two lengths
    assert any(not isinstance(fit, DecayFit) for fit in expected)
    got = [
        fit if isinstance(fit, DecayFit) else (type(fit), str(fit))
        for fit in fit_decay_rates(times, rows, limits)
    ]
    assert got == expected


def test_stacked_fit_edge_blocks():
    times = np.linspace(0.0, 5.0, 40)
    assert fit_decay_rates(times, np.empty((0, 40)), []) == []
    (empty,) = fit_decay_rates([], np.empty((1, 0)), [None])
    assert isinstance(empty, FitError) and str(empty).startswith("only 0 usable samples")
    with pytest.raises(ValueError, match="one limit per row"):
        fit_decay_rates(times, np.ones((2, 40)), [0.0])
    with pytest.raises(ValueError, match="one column per time"):
        fit_decay_rates(times, np.ones((2, 39)), [0.0, 0.0])
    # one time: every row's design matrix has rank 1, and each row warns once
    flat = np.full(12, 3.0)
    rows = np.exp(-np.outer([1.0, 2.0, 3.0], np.arange(12.0)))
    with pytest.warns(np.exceptions.RankWarning) as record:
        fits = fit_decay_rates(flat, rows, [0.0, 0.0, 0.0])
    assert len(record) == 3
    with pytest.warns(np.exceptions.RankWarning):
        assert fits == [reference_fit(flat, row) for row in rows]


# -- rate reports -------------------------------------------------------


def ten_path_model(alpha=1.0, beta=1.0, gamma=10.0):
    return make_model(range(1, 11), alpha=alpha, beta=beta, gamma=gamma)


def test_rate_report_matches_theory_on_exact_samples():
    # horizon tau <= 60: past tau ~ 74 the sum residual is below the
    # double-precision noise floor and the fit sees only rounding noise
    model = ten_path_model()
    x0 = np.arange(1, 11) * 0.1
    traj = sample_exact(model, x0, 0.02, 300)
    report = rate_report(model, traj)
    assert report.gamma == 10.0
    assert report.window == pytest.approx((30.0, 58.8))
    for comp in report.components:
        if comp.tied:
            assert comp.index == 0
            assert comp.theoretical_rate == 0.0
            assert comp.relative_rate_error is None
            assert comp.fitted_limit == pytest.approx(1.0, rel=1e-9)
        else:
            expected = 1.0 * (1.0 - comp.d_value / 1.0)
            assert comp.theoretical_rate == pytest.approx(expected, rel=1e-12)
            assert comp.relative_rate_error < 1e-6
            assert comp.r_squared > 1.0 - 1e-9
    # single leader: tied-set sum is the leading component itself
    assert report.tied_sum.fitted_limit == pytest.approx(1.0, rel=1e-9)
    assert report.total_sum.theoretical_rate == pytest.approx(0.5)
    # the sum residual still carries the next-slowest mode inside this
    # window, so its fitted rate is only ~1% accurate
    assert report.total_sum.relative_rate_error < 0.02
    assert report.total_sum.theoretical_limit == pytest.approx(1.0)


def test_rate_report_tied_leaders():
    model = make_model([1, 1, 1, 2, 3], alpha=0.5, beta=1.0, gamma=2.0)
    x0 = np.array([0.2, 0.3, 0.4, 0.8, 1.0])
    traj = sample_exact(model, x0, 0.05, 1500)
    report = rate_report(model, traj)
    sigma1 = (0.2 + 0.3 + 0.4) / (model.beta * 1.0)
    for comp in report.components[:3]:
        assert comp.tied
        assert comp.theoretical_limit == pytest.approx(x0[comp.index] / (0.5 * sigma1))
        assert comp.fitted_limit == pytest.approx(comp.theoretical_limit, rel=1e-6)
    assert report.tied_sum.fitted_limit == pytest.approx(2.0, rel=1e-6)
    assert report.tied_sum.theoretical_rate == pytest.approx(0.5 * (1.0 - 0.5))


def test_rate_report_theory_when_the_shortest_length_is_not_one():
    # every other theory test has a shortest length of 1, where d_1 = 1 hides a
    # product written for a quotient (d_i * d_1 == d_i / d_1)
    lengths = (2.0, 2.0, 3.0, 5.0)
    model = make_model(lengths, alpha=0.5, beta=1.5, gamma=1.0)
    x0 = np.array([0.3, 0.7, 0.4, 0.9])
    report = rate_report(model, sample_exact(model, x0, 0.05, 400))
    exactly = {"rel": 1e-14, "abs": 0.0}
    sigma1 = (x0[0] + x0[1]) / (1.5 / 2.0)
    assert [comp.tied for comp in report.components] == [True, True, False, False]
    for comp, length in zip(report.components, lengths):
        if comp.tied:
            expected = x0[comp.index] / (0.5 * sigma1)
            assert comp.theoretical_limit == pytest.approx(expected, **exactly)
        else:
            expected = 0.5 * (1.0 - 2.0 / length)
            assert comp.theoretical_rate == pytest.approx(expected, **exactly)
    for series in (report.tied_sum, report.total_sum):
        assert series.theoretical_rate == pytest.approx(0.5 * (1.0 - 2.0 / 3.0), **exactly)


def test_rates_are_gain_scaled():
    # the same flow sampled on one gain-scaled grid through two gains
    x0 = np.arange(1, 11) * 0.1
    fast = ten_path_model(gamma=10.0)
    slow = ten_path_model(gamma=1.0)
    traj_fast = sample_exact(fast, x0, 0.02, 1000)
    traj_slow = sample_exact(slow, x0, 0.2, 1000)
    assert np.allclose(traj_fast.states, traj_slow.states, rtol=1e-9)
    report_fast = rate_report(fast, traj_fast)
    report_slow = rate_report(slow, traj_slow)
    for a, b in zip(report_fast.components, report_slow.components):
        if not a.tied:
            assert a.fitted_rate == pytest.approx(b.fitted_rate, rel=1e-9)
            assert a.theoretical_rate == b.theoretical_rate


def test_rate_report_survives_dead_components():
    states = np.column_stack([np.full(200, 2.0), np.zeros(200)])
    traj = make_trajectory(states, 0.05)
    report = rate_report(make_model([1, 2]), traj)
    dead = report.components[1]
    assert np.isnan(dead.fitted_rate)
    assert dead.n_samples == 0
    assert report.components[0].fitted_limit == pytest.approx(2.0)


def test_rate_report_all_tied_has_no_sum_rate():
    model = make_model([2, 2], alpha=1.0, beta=1.0, gamma=1.0)
    traj = integrate(model, [0.4, 0.9], 0.05, 400)
    report = rate_report(model, traj)
    assert report.total_sum.theoretical_rate is None
    assert np.isnan(report.total_sum.fitted_rate)
    assert report.total_sum.theoretical_limit == pytest.approx(0.5)


def test_rate_report_of_a_one_step_run_fits_nothing():
    # the default window falls between the two samples of one step
    nan = "nan"

    def fields(entry):
        return [nan if isinstance(v, float) and math.isnan(v) else v for v in astuple(entry)]

    model = make_model([1, 1, 2], alpha=0.5, gamma=2.0)
    report = rate_report(model, integrate(model, [0.2, 0.3, 0.4], 0.1, 1))
    assert [fields(c) for c in report.components] == [
        [0, 1.0, True, nan, 0.0, nan, 0.8, None, nan, 0],
        [1, 1.0, True, nan, 0.0, nan, 1.2, None, nan, 0],
        [2, 0.5, False, nan, 0.25, nan, 0.0, None, nan, 0],
    ]
    assert (report.tied_sum, report.total_sum) == (None, None)
    assert (report.gamma, report.window) == (2.0, (0.1, 0.196))
    all_tied = make_model([2, 2], alpha=0.5, gamma=2.0)
    report = rate_report(all_tied, integrate(all_tied, [0.4, 0.9], 0.1, 1))
    assert [fields(c) for c in report.components] == [
        [0, 0.5, True, nan, 0.0, nan, 0.3076923076923077, None, nan, 0],
        [1, 0.5, True, nan, 0.0, nan, 0.6923076923076923, None, nan, 0],
    ]
    assert (report.tied_sum, report.total_sum) == (None, None)
    assert (report.gamma, report.window) == (2.0, (0.1, 0.196))


def assert_report_is_its_fits(model, traj, window=None):
    """Every fitted entry of the report is ``fit_decay_rate`` on the samples in its window."""
    report = rate_report(model, traj, window=window)
    scaled = model.gamma * traj.times
    lo, hi = report.window
    inside = (scaled >= lo) & (scaled <= hi)
    t = scaled[inside]
    for comp in report.components:
        limit = None if comp.tied else 0.0
        fit = outcome(fit_decay_rate, t, traj.states[inside, comp.index], limit=limit)
        if isinstance(fit, DecayFit):
            got = (comp.fitted_rate, comp.fitted_limit, comp.r_squared, comp.n_samples)
            assert got == (fit.rate, fit.limit, fit.r_squared, fit.n_samples)
        else:
            assert fit[0] is FitError and np.isnan(comp.fitted_rate) and comp.n_samples == 0
    scale = model.beta * model.paths.d[0] / model.alpha
    tied_series = traj.states[:, list(range(model.paths.tied))].sum(axis=1)
    for entry, series in ((report.tied_sum, tied_series), (report.total_sum, traj.sums)):
        if entry is not None and entry.theoretical_rate is None:
            continue  # all paths tied: the sums are reported, not fitted
        fit = outcome(fit_decay_rate, t, series[inside], limit=scale)
        if entry is None:
            assert fit[0] is FitError
        else:
            assert (entry.fitted_rate, entry.r_squared) == (fit.rate, fit.r_squared)


VARIANTS = [(g, phi) for g in ("identity", "tanh", "signum") for phi in ("sum", "max")]


@st.composite
def reported_runs(draw):
    """Euler and RK4 runs of all six variants and exact identity-sum samples, with
    ties and near-ties, steps coarse enough that the clamp pins components at its
    floor, and default or drawn fit windows."""
    n = draw(st.integers(2, 6))
    lengths = draw(st.lists(st.floats(1.0, 10.0), min_size=n, max_size=n))
    for i in range(1, n):
        spread = draw(st.sampled_from([None, None, 0.0, 0.5, 2.0]))
        if spread is not None:  # tie length i to an earlier one, exactly or within a few TIE_RTOL
            lengths[i] = lengths[draw(st.integers(0, i - 1))] * (1.0 + spread * TIE_RTOL)
    g, phi = draw(st.sampled_from(VARIANTS))
    gains = st.floats(0.2, 2.0)
    model = make_model(
        lengths, alpha=draw(gains), beta=draw(gains), gamma=draw(gains), phi=phi, g=g
    )
    x0 = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    # fine steps, or steps coarse enough that components overshoot zero
    dt = draw(st.floats(0.005, 0.5) | st.floats(1.0, 3.0)) / (model.gamma * model.alpha)
    steps = draw(st.integers(4 * MIN_FIT_SAMPLES, 300))
    if (g, phi) == ("identity", "sum") and draw(st.booleans()):
        traj = sample_exact(model, x0, dt, steps)
    else:
        scheme = draw(st.sampled_from([Scheme.EULER, Scheme.RK4]))
        policy = PositivityPolicy.CLAMP_EPSILON
        try:
            traj = integrate(model, x0, dt, steps, scheme=scheme, positivity=policy)
        except IntegrationError:
            assume(False)
    window = None
    if draw(st.booleans()):
        end = float(model.gamma * traj.times[-1])
        lo = draw(st.floats(0.0, 0.9)) * end
        window = (lo, lo + draw(st.floats(0.05, 1.0)) * end)
    return model, traj, window


@settings(max_examples=300, deadline=None)
@given(reported_runs())
def test_rate_report_entries_are_the_fits_on_whole_arrays(run):
    assert_report_is_its_fits(*run)


@st.composite
def windowed_runs(draw):
    """A reported run with a window that is inverted, zero-width, past the horizon,
    strictly between two samples, around a single sample or ordinary."""
    model, traj, _ = draw(reported_runs())
    scaled = model.gamma * traj.times
    end = float(scaled[-1])
    kinds = ["inverted", "zero-width", "past", "between", "single", "ordinary"]
    kind = draw(st.sampled_from(kinds))
    if kind == "inverted":
        hi = draw(st.floats(0.0, 1.0)) * end
        return model, traj, (hi + draw(st.floats(1e-6, 1.0)) * end, hi)
    if kind == "zero-width":
        lo = draw(st.sampled_from([float(t) for t in scaled]) | st.floats(0.0, end))
        return model, traj, (lo, lo)
    if kind == "past":
        lo = end * (1.0 + draw(st.floats(1e-9, 1.0)))
        return model, traj, (lo, lo + draw(st.floats(1e-6, 1.0)) * end)
    if kind in ("between", "single"):
        k = draw(st.integers(0, scaled.size - 2))
        a, b = float(scaled[k]), float(scaled[k + 1])
        f, g = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=2, max_size=2, unique=True)))
        if kind == "single":  # the inclusive end holds sample k + 1 alone
            return model, traj, (a + f * (b - a), b)
        return model, traj, (a + f * (b - a), a + g * (b - a))
    lo = draw(st.floats(0.0, 0.9)) * end
    return model, traj, (lo, lo + draw(st.floats(0.05, 1.0)) * end)


@settings(max_examples=300, deadline=None)
@given(windowed_runs())
def test_rate_report_rejects_exactly_the_windows_that_select_no_sample(run):
    model, traj, (lo, hi) = run
    scaled = model.gamma * traj.times
    if lo < hi and ((scaled >= lo) & (scaled <= hi)).any():
        assert_report_is_its_fits(model, traj, (lo, hi))
    else:
        with pytest.raises(ValueError) as info:
            rate_report(model, traj, window=(lo, hi))
        assert f"{lo!r}, {hi!r}" in str(info.value)


def test_rate_report_entries_are_the_fits_on_pinned_and_tied_runs():
    # Euler with dt * gamma * |g(a_2)| = 1.5 * 0.9 > 1 pins x_2 at the clamp floor
    pinned = make_model([1.0, 10.0])
    traj = integrate(pinned, [0.5, 0.5], 1.5, 500, positivity=PositivityPolicy.CLAMP_EPSILON)
    assert traj.positivity_violated
    assert_report_is_its_fits(pinned, traj)
    tied = make_model([1, 1, 1, 2, 3], alpha=0.5, gamma=2.0)
    assert_report_is_its_fits(tied, sample_exact(tied, [0.2, 0.3, 0.4, 0.8, 1.0], 0.05, 1500))
    all_tied = make_model([2, 2])
    assert_report_is_its_fits(all_tied, integrate(all_tied, [0.4, 0.9], 0.05, 400))
    # from 8 tied paths on, a sum over a slice would round differently
    for ties in (8, 12):
        many = make_model([1] * ties + [2, 3], alpha=0.5, gamma=2.0)
        x0 = np.linspace(0.1, 1.0, ties + 2)
        assert_report_is_its_fits(many, sample_exact(many, x0, 0.05, 1500))


def test_rate_report_fits_each_series_once_through_the_module(monkeypatch):
    # one stacked fit per report, looked up through this module attribute
    calls = []
    fit = antdyn.analysis.fit_decay_rates

    def counting_fit(times, rows, limits):
        calls.append(len(rows))
        return fit(times, rows, limits)

    monkeypatch.setattr(antdyn.analysis, "fit_decay_rates", counting_fit)
    model = ten_path_model()
    traj = sample_exact(model, np.arange(1, 11) * 0.1, 0.02, 300)
    rate_report(model, traj)
    assert calls == [model.n + 2]  # every component, the tied-set sum and the total
    calls.clear()
    with pytest.raises(ValueError, match="selects no sample"):
        rate_report(model, traj, window=(100.0, 200.0))
    assert not calls  # rejected before any fit
    all_tied = make_model([2, 2])
    rate_report(all_tied, integrate(all_tied, [0.4, 0.9], 0.05, 400))
    assert calls == [all_tied.n]  # the sums are reported, not fitted


# -- limit verification -------------------------------------------------


def fig_style_run(steps=2000):
    model = ten_path_model()
    traj = integrate(model, np.arange(1, 11) * 0.1, 0.02, steps)
    return model, traj


def test_verify_passes_on_converged_run():
    model, traj = fig_style_run()
    report = verify_convergence(traj, model)
    assert report.status is VerificationStatus.PASS
    assert report.settled and report.zero_ok and report.sum_ok
    assert report.tied_indices == (0,)
    assert report.tied_sum_final == pytest.approx(1.0, abs=1e-2)
    assert report.expected_sum == 1.0
    assert report.envelope_ok is True
    assert report.envelope.within


def test_verify_inconclusive_while_transient_still_moving():
    model, traj = fig_style_run(steps=60)
    report = verify_convergence(traj, model)
    assert report.status is VerificationStatus.INCONCLUSIVE
    assert not report.settled


def test_verify_fails_on_wrong_limit():
    model, traj = fig_style_run()
    scaled = make_trajectory(traj.states * 1.3, traj.dt)
    report = verify_convergence(scaled, model)
    assert report.settled
    assert not report.sum_ok
    assert report.status is VerificationStatus.FAIL
    # the other checks pass, so the tied-set sum alone decides the verdict
    assert report.zero_ok and report.envelope_ok


def test_verify_fails_on_surviving_component():
    states = np.column_stack([np.full(500, 1.0), np.full(500, 0.5)])
    report = verify_convergence(make_trajectory(states, 0.08), make_model([1, 2]))
    assert not report.zero_ok
    assert report.max_other == 0.5
    assert report.status is VerificationStatus.FAIL


def test_verify_fails_on_envelope_violation_alone():
    model, traj = fig_style_run()
    states = traj.states.copy()
    states[1000, 0] += 5.0  # spike the sum outside the envelope, far from the tail
    report = verify_convergence(make_trajectory(states, traj.dt), model)
    assert report.settled and report.zero_ok and report.sum_ok
    assert report.envelope_ok is False
    assert report.status is VerificationStatus.FAIL


def test_verify_skips_envelope_for_other_variants():
    model = make_model(range(1, 11), alpha=0.1, beta=0.1, gamma=10.0, g="tanh")
    traj = integrate(model, np.arange(1, 11) * 0.1, 0.02, 2000)
    report = verify_convergence(traj, model)
    assert report.envelope is None
    assert report.envelope_ok is None
    assert report.status is VerificationStatus.PASS


# -- variant ranking ----------------------------------------------------


def crossing_run(gamma, crossing_time, dt, steps):
    model = make_model([1, 2], gamma=gamma)
    times = np.arange(steps + 1) * dt
    x1 = 1.0 + np.exp(-np.log(20.0) * times / crossing_time)
    states = np.column_stack([x1, np.full(times.size, 0.5)])
    return model, make_trajectory(states, dt)


def test_ranking_uses_gain_scaled_time():
    model_a, traj_a = crossing_run(gamma=1.0, crossing_time=3.0, dt=0.01, steps=800)
    model_b, traj_b = crossing_run(gamma=4.0, crossing_time=1.5, dt=0.01, steps=800)
    ranking = compare_variants([("a", model_a, traj_a), ("b", model_b, traj_b)])
    assert ranking.threshold == 0.05
    first, second = ranking.entries
    # b crosses earlier on the clock but a wins once gains are factored out
    assert first.label == "a" and first.rank == 1
    assert first.tau_time == pytest.approx(3.0, abs=0.02)
    assert first.tau_scaled == pytest.approx(3.0, abs=0.02)
    assert second.label == "b" and second.rank == 2
    assert second.tau_time == pytest.approx(1.5, abs=0.02)
    assert second.tau_scaled == pytest.approx(6.0, abs=0.08)
    assert all(e.reached and e.limit == 1.0 for e in ranking.entries)


def test_ranking_ties_share_rank_and_stragglers_rank_last():
    model, traj = crossing_run(gamma=1.0, crossing_time=2.0, dt=0.01, steps=500)
    straggler_states = np.column_stack([np.full(501, 3.0), np.full(501, 0.5)])
    straggler_states[0, 0] = traj.states[0, 0]
    straggler = make_trajectory(straggler_states, 0.01)
    ranking = compare_variants(
        [("x", model, traj), ("y", model, traj), ("z", model, straggler)]
    )
    ranks = {e.label: e.rank for e in ranking.entries}
    assert ranks == {"x": 1, "y": 1, "z": 3}
    laggard = ranking.entries[-1]
    assert laggard.label == "z"
    assert not laggard.reached
    assert laggard.tau_scaled == float("inf")


def test_ranking_keeps_the_callers_order_among_tied_runs():
    model, traj = crossing_run(gamma=1.0, crossing_time=2.0, dt=0.01, steps=500)
    ranking = compare_variants([("y", model, traj), ("x", model, traj)])
    assert [(e.label, e.rank) for e in ranking.entries] == [("y", 1), ("x", 1)]


def test_ranking_crossing_is_strictly_inside_the_threshold():
    # mu_1 = beta d_1 / alpha = 20 and RANK_THRESHOLD * mu_1 == 1.0 exactly, so 21.0
    # lies on the threshold: the run crosses at sample 2, not 1
    model = make_model([1, 2], alpha=1.0, beta=20.0)
    assert model.mu[0] == 20.0 and antdyn.analysis.RANK_THRESHOLD * model.mu[0] == 1.0
    traj = make_trajectory([[25.0, 0.5], [21.0, 0.5], [20.5, 0.5]], 0.1)
    (entry,) = compare_variants([("edge", model, traj)]).entries
    assert entry.reached
    assert entry.tau_time == traj.times[2]


def test_a_trajectory_is_judged_only_against_a_model_of_its_paths():
    two = make_trajectory(np.column_stack([np.full(201, 1.0), np.full(201, 1e-9)]), 0.05)
    for lengths in ([1, 2, 3], [1, 1, 2]):
        three = make_model(lengths)
        for call in (
            lambda: verify_convergence(two, three),
            lambda: check_sum_bounds(two, three),
            lambda: rate_report(three, two),
            lambda: compare_variants([("a", three, two)]),
            lambda: compare_variants([("a", make_model([1, 2]), two), ("b", three, two)]),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "trajectory has 2 paths, model has 3"
    # a run whose path count differs from the first run's is named
    model3 = make_model([1, 2, 3])
    traj3 = make_trajectory(np.full((201, 3), 0.5), 0.05)
    with pytest.raises(ValueError) as info:
        compare_variants([("a", make_model([1, 2]), two), ("b", model3, traj3)])
    assert str(info.value) == "run 'b' has 3 paths, run 'a' has 2"


def test_ranking_rejects_incomparable_runs():
    model, traj = crossing_run(gamma=1.0, crossing_time=1.0, dt=0.01, steps=100)
    with pytest.raises(ValueError, match="at least one"):
        compare_variants([])
    _, other = crossing_run(gamma=1.0, crossing_time=1.0, dt=0.02, steps=100)
    with pytest.raises(ValueError, match="time grid"):
        compare_variants([("a", model, traj), ("b", model, other)])
    shifted = make_trajectory(traj.states + 0.1, 0.01)
    with pytest.raises(ValueError, match="initial state"):
        compare_variants([("a", model, traj), ("b", model, shifted)])
    other_model = make_model([1, 3], gamma=1.0)
    with pytest.raises(ValueError, match="weights"):
        compare_variants([("a", model, traj), ("b", other_model, traj)])
