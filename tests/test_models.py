"""Data model and vector-field tests.

The vector field is checked against two independent re-implementations:
the matrix form of the identity-sum dynamics and a plain elementwise
loop covering every response/saturation combination.
"""

import numpy as np
import pytest

from antdyn import (
    DomainError,
    GKind,
    ModelSpec,
    NondifferentiablePointError,
    PathSystem,
    PhiKind,
    UnsupportedDerivativeError,
    g_eval,
    g_prime,
    phi_eval,
    phi_grad,
    vector_field,
)
from antdyn.models import require_admissible


def make_model(lengths, alpha=1.0, beta=1.0, gamma=1.0, phi="sum", g="identity"):
    return ModelSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_kind=phi,
        g_kind=g,
        paths=PathSystem.from_lengths(lengths),
    )


def test_path_system_sorts_weights_nonincreasing():
    ps = PathSystem.from_lengths([3.0, 1.0, 2.0])
    assert np.allclose(ps.d, [1.0, 0.5, 1.0 / 3.0])
    assert list(ps.order) == [1, 2, 0]
    assert ps.n == 3
    assert ps.lengths == (3.0, 1.0, 2.0)


def test_path_system_round_trip_permutation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 9)
        lengths = rng.uniform(0.2, 5.0, n)
        ps = PathSystem.from_lengths(lengths)
        values = rng.normal(size=n)
        assert np.array_equal(ps.to_user(ps.to_canonical(values)), values)
        # canonical order carries the sorted weights
        assert np.all(np.diff(ps.d) <= 0)
        assert np.allclose(ps.to_canonical(1.0 / lengths), ps.d)


def test_path_system_groups_exact_ties():
    ps = PathSystem.from_lengths([2.0, 2.0, 1.0])
    assert np.allclose(ps.d, [1.0, 0.5, 0.5])
    assert ps.groups == ((0,), (1, 2))
    assert np.allclose(ps.d_distinct, [1.0, 0.5])
    # stable sort: tied user paths keep their relative order
    assert list(ps.order) == [2, 0, 1]


def test_path_system_all_tied_single_group():
    ps = PathSystem.from_lengths([4.0, 4.0, 4.0])
    assert ps.groups == ((0, 1, 2),)
    assert ps.d_distinct.size == 1


def test_path_system_rejects_bad_lengths():
    with pytest.raises(ValueError):
        PathSystem.from_lengths([])
    with pytest.raises(ValueError, match="length 1"):
        PathSystem.from_lengths([1.0, -2.0])
    with pytest.raises(ValueError, match="length 0"):
        PathSystem.from_lengths([np.nan, 1.0])
    with pytest.raises(ValueError):
        PathSystem.from_lengths([[1.0, 2.0]])


def test_reorder_rejects_wrong_size():
    ps = PathSystem.from_lengths([1.0, 2.0])
    with pytest.raises(ValueError):
        ps.to_canonical([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ps.to_user([1.0])


def test_model_spec_coerces_and_validates():
    model = make_model([1, 2], phi="max", g="tanh")
    assert model.phi_kind is PhiKind.MAX
    assert model.g_kind is GKind.TANH
    assert model.label == "tanh-max"
    assert model.n == 2
    for bad in ({"alpha": 0.0}, {"beta": -1.0}, {"gamma": np.inf}):
        with pytest.raises(ValueError):
            make_model([1, 2], **bad)
    with pytest.raises(ValueError):
        make_model([1, 2], phi="median")


def test_require_admissible():
    assert np.array_equal(require_admissible([0.0, 1.0]), [0.0, 1.0])
    with pytest.raises(DomainError, match=r"component 1 is negative \(-0\.5\)"):
        require_admissible([1.0, -0.5])
    with pytest.raises(DomainError, match="component 0"):
        require_admissible([np.nan, 1.0])
    with pytest.raises(DomainError, match="identically zero"):
        require_admissible([0.0, 0.0])


def test_phi_eval_matches_direct_formulas():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.uniform(0.05, 4.0, rng.integers(1, 7))
        assert phi_eval(PhiKind.SUM, x) == pytest.approx(1.0 / x.sum(), rel=1e-15)
        assert phi_eval(PhiKind.MAX, x) == pytest.approx(1.0 / x.max(), rel=1e-15)


def central_difference(f, x, h=1e-6):
    grad = np.empty(x.size)
    for j in range(x.size):
        hj = h * max(1.0, abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j] += hj
        down[j] -= hj
        grad[j] = (f(up) - f(down)) / (2.0 * hj)
    return grad


def test_phi_grad_matches_finite_differences():
    rng = np.random.default_rng(13)
    for kind in (PhiKind.SUM, PhiKind.MAX):
        for _ in range(15):
            x = rng.uniform(0.1, 3.0, 5)
            x[rng.integers(0, 5)] += 1.0  # unique maximizer for phi=max
            fd = central_difference(lambda s: phi_eval(kind, s), x)
            assert np.allclose(phi_grad(kind, x), fd, rtol=1e-6, atol=1e-9)


def test_phi_grad_max_tie_raises():
    with pytest.raises(NondifferentiablePointError, match=r"\[0, 2\]"):
        phi_grad(PhiKind.MAX, [2.0, 1.0, 2.0])
    # sum has no kink at ties
    phi_grad(PhiKind.SUM, [2.0, 1.0, 2.0])


def test_g_eval_shapes_and_values():
    a = np.array([-2.0, 0.0, 0.7])
    assert np.array_equal(g_eval(GKind.IDENTITY, a), a)
    assert np.allclose(g_eval(GKind.TANH, a), np.tanh(a))
    assert np.array_equal(g_eval(GKind.SIGNUM, a), [-1.0, 0.0, 1.0])


def test_g_prime_identity_tanh_and_signum():
    a = np.linspace(-3, 3, 13)
    assert np.array_equal(g_prime(GKind.IDENTITY, a), np.ones_like(a))
    fd = (np.tanh(a + 1e-6) - np.tanh(a - 1e-6)) / 2e-6
    assert np.allclose(g_prime(GKind.TANH, a), fd, rtol=1e-8, atol=1e-10)
    with pytest.raises(UnsupportedDerivativeError):
        g_prime(GKind.SIGNUM, a)


def test_vector_field_matches_matrix_form_identity_sum():
    # gamma * (-alpha I + (beta / sum x) D) x, written out with matmul
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = rng.integers(1, 7)
        model = make_model(rng.uniform(0.4, 4.0, n), alpha=1.3, beta=0.7, gamma=2.5)
        x = rng.uniform(0.05, 2.0, n)
        matrix = -model.alpha * np.eye(n) + (model.beta / x.sum()) * np.diag(model.paths.d)
        assert np.allclose(vector_field(model, x), model.gamma * matrix @ x, rtol=1e-13)


def test_vector_field_matches_elementwise_loop_all_variants():
    rng = np.random.default_rng(19)
    for phi in ("sum", "max"):
        for g in ("identity", "tanh", "signum"):
            model = make_model([1.0, 2.0, 5.0], alpha=0.8, beta=1.1, gamma=3.0, phi=phi, g=g)
            for _ in range(10):
                x = rng.uniform(0.05, 2.0, 3)
                sat = 1.0 / x.sum() if phi == "sum" else 1.0 / x.max()
                expected = np.empty(3)
                for i in range(3):
                    arg = -model.alpha + model.beta * sat * model.paths.d[i]
                    if g == "identity":
                        resp = arg
                    elif g == "tanh":
                        resp = np.tanh(arg)
                    else:
                        resp = float(np.sign(arg))
                    expected[i] = model.gamma * resp * x[i]
                assert np.allclose(vector_field(model, x), expected, rtol=1e-14)


def test_vector_field_validation():
    model = make_model([1.0, 2.0])
    with pytest.raises(DomainError):
        vector_field(model, [-0.1, 1.0])
    with pytest.raises(ValueError, match="shape"):
        vector_field(model, [1.0, 1.0, 1.0])
