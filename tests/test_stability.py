"""Equilibrium, Jacobian and classification tests.

Jacobians are validated against central finite differences of the
vector field, and the read-off equilibrium spectra against a dense
eigensolver run on the full Jacobian.  Both oracles are independent of
the implementation under test.
"""

import numpy as np
import pytest

from antdyn import (
    GKind,
    ModelSpec,
    NondifferentiablePointError,
    PathSystem,
    StabilityLabel,
    UnsupportedDerivativeError,
    classify,
    equilibrium_report,
    find_equilibria,
    jacobian,
    spectrum_at_equilibrium,
    vector_field,
)


def make_model(lengths, alpha=1.0, beta=1.0, gamma=1.0, phi="sum", g="identity"):
    return ModelSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_kind=phi,
        g_kind=g,
        paths=PathSystem.from_lengths(lengths),
    )


def fd_jacobian(model, x, h=1e-6):
    n = x.size
    J = np.empty((n, n))
    for j in range(n):
        hj = h * max(1.0, abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += hj
        down[j] -= hj
        J[:, j] = (vector_field(model, up) - vector_field(model, down)) / (2.0 * hj)
    return J


# -- equilibria ---------------------------------------------------------


def test_equilibrium_scales_and_residuals():
    for phi in ("sum", "max"):
        for g in ("identity", "tanh", "signum"):
            model = make_model([1, 2, 4], alpha=0.3, beta=1.7, gamma=2.0, phi=phi, g=g)
            eqs = find_equilibria(model)
            assert [eq.index for eq in eqs] == [0, 1, 2]
            for eq in eqs:
                expected = model.beta * model.paths.d[eq.index] / model.alpha
                assert eq.mu == pytest.approx(expected, rel=1e-14)
                assert np.count_nonzero(eq.point) == 1
                assert eq.point[eq.index] == eq.mu
                assert eq.residual <= 1e-12 * model.gamma * model.beta * model.paths.d[0]


# -- Jacobian -----------------------------------------------------------


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(23)
    for phi in ("sum", "max"):
        for g in ("identity", "tanh"):
            for _ in range(10):
                n = int(rng.integers(2, 6))
                model = make_model(
                    rng.uniform(0.5, 4.0, n),
                    alpha=float(rng.uniform(0.2, 2.0)),
                    beta=float(rng.uniform(0.2, 2.0)),
                    gamma=float(rng.uniform(0.5, 3.0)),
                    phi=phi,
                    g=g,
                )
                x = rng.uniform(0.2, 2.0, n)
                x[int(rng.integers(0, n))] += 1.5  # keep the maximizer unique
                J = jacobian(model, x)
                scale = np.max(np.abs(J))
                assert np.allclose(J, fd_jacobian(model, x), rtol=1e-6, atol=1e-6 * scale)


def test_jacobian_identity_sum_matrix_form():
    # gamma * (-alpha I + beta phi D + beta D x grad_phi^T), written out
    rng = np.random.default_rng(29)
    model = make_model([1, 2, 3], alpha=1.2, beta=0.9, gamma=4.0)
    for _ in range(10):
        x = rng.uniform(0.1, 2.0, 3)
        total = x.sum()
        D = np.diag(model.paths.d)
        grad = np.full(3, -1.0 / total**2)
        expected = model.gamma * (
            -model.alpha * np.eye(3)
            + (model.beta / total) * D
            + model.beta * np.outer(D @ x, grad)
        )
        assert np.allclose(jacobian(model, x), expected, rtol=1e-13)


def test_jacobian_two_path_worked_example():
    model = make_model([1, 2])
    at_first = jacobian(model, np.array([1.0, 0.0]))
    assert np.allclose(at_first, [[-1.0, -1.0], [0.0, -0.5]], atol=1e-14)
    at_second = jacobian(model, np.array([0.0, 0.5]))
    assert np.allclose(at_second, [[1.0, 0.0], [-1.0, -1.0]], atol=1e-14)


def test_jacobian_unsupported_points():
    with pytest.raises(UnsupportedDerivativeError):
        jacobian(make_model([1, 2], g="signum"), np.array([0.5, 0.5]))
    with pytest.raises(NondifferentiablePointError):
        jacobian(make_model([1, 2], phi="max"), np.array([0.7, 0.7]))


# -- spectra and labels -------------------------------------------------


def test_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(31)
    for phi in ("sum", "max"):
        for g in ("identity", "tanh"):
            for _ in range(8):
                n = int(rng.integers(2, 6))
                model = make_model(
                    rng.uniform(0.5, 4.0, n),
                    alpha=float(rng.uniform(0.2, 2.0)),
                    beta=float(rng.uniform(0.2, 2.0)),
                    gamma=float(rng.uniform(0.5, 3.0)),
                    phi=phi,
                    g=g,
                )
                for eq in find_equilibria(model):
                    dense = np.sort(np.linalg.eigvals(jacobian(model, eq.point)).real)
                    read_off = np.sort(spectrum_at_equilibrium(model, eq))
                    assert np.allclose(read_off, dense, rtol=1e-9, atol=1e-12)


def test_spectrum_closed_form_identity():
    model = make_model([1, 2, 5], alpha=0.8, beta=1.3, gamma=2.0)
    d = model.paths.d
    eqs = find_equilibria(model)
    for k, eq in enumerate(eqs):
        expected = model.gamma * model.alpha * (d / d[k] - 1.0)
        expected[k] = -model.gamma * model.alpha
        assert np.allclose(spectrum_at_equilibrium(model, eq), expected, rtol=1e-13)


def test_spectrum_signum_unsupported():
    model = make_model([1, 2], g="signum")
    with pytest.raises(UnsupportedDerivativeError):
        spectrum_at_equilibrium(model, find_equilibria(model)[0])
    with pytest.raises(UnsupportedDerivativeError):
        equilibrium_report(model)


def test_classify_sign_conventions():
    spectra = [
        np.array([-1.0, -2.0]),
        np.array([-1.0, 3.0]),
        np.array([0.0, -1.0]),
        np.array([-1e-9, -1.0]),  # exactly at the tolerance: not strictly below
        np.array([1e-12, -1.0]),
    ]
    labels = classify(spectra, tol=1e-9)
    assert labels == [
        StabilityLabel.LOCALLY_ASYMPTOTICALLY_STABLE,
        StabilityLabel.UNSTABLE,
        StabilityLabel.MARGINAL,
        StabilityLabel.MARGINAL,
        StabilityLabel.MARGINAL,
    ]


def test_report_shortest_path_is_the_stable_one():
    for phi in ("sum", "max"):
        for g in ("identity", "tanh"):
            model = make_model([1, 2, 3, 7], alpha=0.4, beta=2.0, phi=phi, g=g)
            report = equilibrium_report(model)
            assert report.labels[0] is StabilityLabel.LOCALLY_ASYMPTOTICALLY_STABLE
            assert all(lb is StabilityLabel.UNSTABLE for lb in report.labels[1:])
            assert report.tol == 1e-9
            assert report.notes == ()


def test_report_tied_leaders_are_marginal_with_note():
    model = make_model([1, 1, 2])
    report = equilibrium_report(model)
    assert report.labels[0] is StabilityLabel.MARGINAL
    assert report.labels[1] is StabilityLabel.MARGINAL
    assert report.labels[2] is StabilityLabel.UNSTABLE
    # the tie contributes an exactly zero eigenvalue
    assert 0.0 in spectrum_at_equilibrium(model, find_equilibria(model)[0])
    assert any("sum" in note for note in report.notes)
