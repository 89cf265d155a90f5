"""Acceptance suite: seven end-to-end checks at fixed tolerances.

Each test prints one ``criterion N: PASS/FAIL`` line straight through
pytest's capture, so a plain ``pytest -v`` run shows every verdict with
its measured numbers.  Tolerances and time budgets are part of the
acceptance conditions and are asserted, not just reported.
"""

import time

import numpy as np
import pytest

from antdyn import (
    FFunction,
    GKind,
    PhiKind,
    Scheme,
    StabilityLabel,
    check_sum_bounds,
    compare_variants,
    equilibrium_report,
    exact_state,
    integrate,
    jacobian,
    rate_report,
    sample_exact,
    vector_field,
)
from antdyn.presets import PRESETS

from helpers import make_model


def verdict(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def ten_paths_biased_start():
    return make_model(range(1, 11), 1.0, 1.0, 10.0), np.arange(1, 11) * 0.1


def test_criterion_1_shortest_path_convergence(capsys):
    model, x0 = ten_paths_biased_start()
    start = time.perf_counter()
    traj = integrate(model, x0, 0.02, 2000)
    elapsed = time.perf_counter() - start
    target = np.zeros(10)
    target[0] = model.beta * model.paths.d[0] / model.alpha
    gap = float(np.max(np.abs(traj.final_state - target)))
    passed = gap < 1e-2 and elapsed < 1.0
    verdict(
        capsys, 1, passed,
        f"final-state gap {gap:.3e} (tol 1e-2), runtime {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_tied_shortest_sum_and_ratios(capsys):
    lengths = [1, 1, 1] + list(range(2, 9))
    model = make_model(lengths, 0.1, 0.1, 10.0)
    x0 = np.arange(1, 11) * 0.1
    start = time.perf_counter()
    traj = integrate(model, x0, 0.02, 2000)
    elapsed = time.perf_counter() - start
    tied_sum = float(traj.final_state[:3].sum())
    sum_gap = abs(tied_sum - 1.0)
    ratio_gap = 0.0
    for i, j in ((1, 0), (2, 0), (2, 1)):
        before = x0[i] / x0[j]
        after = traj.final_state[i] / traj.final_state[j]
        ratio_gap = max(ratio_gap, abs(after / before - 1.0))
    passed = sum_gap < 1e-2 and ratio_gap < 1e-3 and elapsed < 1.0
    verdict(
        capsys, 2, passed,
        f"tied-sum gap {sum_gap:.3e} (tol 1e-2), ratio drift {ratio_gap:.3e} "
        f"(tol 1e-3), runtime {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_integrators_agree_with_closed_form(capsys):
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst_rk4 = 0.0
    ratios = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        model = make_model(rng.uniform(0.5, 5.0, n), 1.0, 1.0, 1.0)
        x0 = rng.uniform(0.1, 2.0, n)
        F = FFunction.from_model(model, x0)
        rk4 = integrate(model, x0, 1e-3, 10000, scheme=Scheme.RK4)
        for t in (1.0, 5.0, 10.0):
            exact = exact_state(F, model, x0, t).x
            gap = float(np.max(np.abs(rk4.states[round(t / 1e-3)] - exact)))
            worst_rk4 = max(worst_rk4, gap)
        exact_t1 = exact_state(F, model, x0, 1.0).x
        euler_gaps = []
        for dt in (0.02, 0.01):
            final = integrate(model, x0, dt, round(1.0 / dt)).final_state
            euler_gaps.append(float(np.max(np.abs(final - exact_t1))))
        ratios.append(euler_gaps[0] / euler_gaps[1])
    elapsed = time.perf_counter() - start
    ratio_lo, ratio_hi = min(ratios), max(ratios)
    passed = (
        worst_rk4 < 1e-6
        and all(1.7 <= r <= 2.3 for r in ratios)
        and elapsed < 30.0
    )
    verdict(
        capsys, 3, passed,
        f"worst RK4 gap {worst_rk4:.2e} (tol 1e-6), Euler gap ratios "
        f"[{ratio_lo:.2f}, {ratio_hi:.2f}] (range [1.7, 2.3]), "
        f"runtime {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_4_decay_rates_match_theory(capsys):
    model, x0 = ten_paths_biased_start()
    start = time.perf_counter()
    # horizon tau <= 60: past tau ~ 74 the sum residual drops below the
    # double-precision noise floor around its limit and no slope survives
    traj = sample_exact(model, x0, 0.02, 300)
    report = rate_report(model, traj)
    elapsed = time.perf_counter() - start
    worst_component = max(
        comp.relative_rate_error for comp in report.components if not comp.tied
    )
    sum_error = report.total_sum.relative_rate_error
    passed = worst_component <= 0.05 and sum_error <= 0.20 and elapsed < 10.0
    verdict(
        capsys, 4, passed,
        f"worst component-rate error {worst_component:.2e} (tol 5e-2), "
        f"sum-residual rate error {sum_error:.2e} (tol 2e-1), "
        f"runtime {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_5_stability_classification(capsys):
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    label_failures = 0
    worst_spectrum = 0.0
    for _ in range(100):
        alpha, beta = 10.0 ** rng.uniform(-2.0, 2.0, 2)
        while True:
            d = np.sort(rng.uniform(0.2, 3.0, 5))[::-1]
            if np.min((d[:-1] - d[1:]) / d[:-1]) > 1e-9:
                break
        model = make_model(1.0 / d, float(alpha), float(beta), 1.0)
        report = equilibrium_report(model)
        ok = report.labels[0] is StabilityLabel.LOCALLY_ASYMPTOTICALLY_STABLE and all(
            label is StabilityLabel.UNSTABLE for label in report.labels[1:]
        )
        label_failures += 0 if ok else 1
        expected = model.alpha * (model.paths.d / model.paths.d[0] - 1.0)
        expected[0] = -model.alpha
        gap = float(np.max(np.abs(report.spectra[0] - expected) / np.abs(expected)))
        worst_spectrum = max(worst_spectrum, gap)
    elapsed = time.perf_counter() - start
    passed = label_failures == 0 and worst_spectrum <= 1e-9 and elapsed < 5.0
    verdict(
        capsys, 5, passed,
        f"label failures {label_failures}/100, worst spectrum error "
        f"{worst_spectrum:.2e} (tol 1e-9 relative), runtime {elapsed:.1f}s (budget 5s)",
    )


def test_criterion_6_invariants_and_jacobian(capsys):
    positive = True
    envelopes = True
    for preset in PRESETS.values():
        if preset.kind != "trajectory":
            continue
        for _, model in preset.runs:
            traj = integrate(model, preset.x0, preset.dt, preset.steps)
            positive = positive and bool(np.all(traj.states > 0.0))
            if model.g_kind is GKind.IDENTITY and model.phi_kind is PhiKind.SUM:
                envelopes = envelopes and check_sum_bounds(traj, model).within

    rng = np.random.default_rng(5)
    worst_jacobian = 0.0
    for g in ("identity", "tanh"):
        for phi in ("sum", "max"):
            for _ in range(5):
                n = int(rng.integers(2, 6))
                model = make_model(
                    rng.uniform(0.5, 4.0, n),
                    float(rng.uniform(0.2, 2.0)),
                    float(rng.uniform(0.2, 2.0)),
                    float(rng.uniform(0.5, 3.0)),
                    phi=phi,
                    g=g,
                )
                x = rng.uniform(0.2, 2.0, n)
                x[int(rng.integers(0, n))] += 1.5
                J = jacobian(model, x)
                fd = np.empty_like(J)
                for j in range(n):
                    h = 1e-6 * max(1.0, abs(x[j]))
                    up, down = x.copy(), x.copy()
                    up[j] += h
                    down[j] -= h
                    fd[:, j] = (vector_field(model, up) - vector_field(model, down)) / (2 * h)
                gap = float(np.max(np.abs(J - fd)) / np.max(np.abs(J)))
                worst_jacobian = max(worst_jacobian, gap)

    passed = positive and envelopes and worst_jacobian < 1e-6
    verdict(
        capsys, 6, passed,
        f"positivity on all preset runs: {positive}, envelopes: {envelopes}, "
        f"worst Jacobian-vs-FD relative gap {worst_jacobian:.2e} (tol 1e-6)",
    )


def test_criterion_7_variant_ordering(capsys):
    preset = PRESETS["comparison-fig4"]
    runs = [
        (label, model, integrate(model, preset.x0, preset.dt, preset.steps))
        for label, model in preset.runs
    ]
    ranking = compare_variants(runs)
    tau = {entry.label: entry.tau_scaled for entry in ranking.entries}
    max_vs_sum = tau["identity-max"] <= tau["identity-sum"]
    fastest = min(ranking.entries, key=lambda e: e.rank)
    signum_first = fastest.label.startswith("signum")
    all_reached = all(entry.reached for entry in ranking.entries)
    passed = max_vs_sum and signum_first and all_reached
    verdict(
        capsys, 7, passed,
        f"max-saturation vs sum {tau['identity-max']:.2f} <= {tau['identity-sum']:.2f}: "
        f"{max_vs_sum}, fastest variant {fastest.label!r} (signum expected), "
        f"all reached threshold: {all_reached}",
    )
