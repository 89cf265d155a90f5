"""Data model and vector-field tests.

The vector field is checked against two independent re-implementations:
the matrix form of the identity-sum dynamics and a plain elementwise
loop covering every response/saturation combination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn import (
    DomainError,
    GKind,
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
from antdyn.models import TIE_RTOL, require_admissible, require_positive_state, rhs
from antdyn.stability import jacobian

from helpers import make_model


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
        back = np.empty(n)
        back[ps.order] = ps.to_canonical(values)
        assert np.array_equal(back, values)
        # canonical order carries the sorted weights
        assert np.all(np.diff(ps.d) <= 0)
        assert np.allclose(ps.to_canonical(1.0 / lengths), ps.d)


def test_path_system_groups_exact_ties():
    ps = PathSystem.from_lengths([2.0, 2.0, 1.0])
    assert np.allclose(ps.d, [1.0, 0.5, 0.5])
    assert ps.group.tolist() == [0, 1, 1]
    assert ps.tied == 1
    assert np.allclose(ps.d_distinct, [1.0, 0.5])
    # stable sort: tied user paths keep their relative order
    assert list(ps.order) == [2, 0, 1]


def test_path_system_all_tied_single_group():
    ps = PathSystem.from_lengths([4.0, 4.0, 4.0])
    assert ps.group.tolist() == [0, 0, 0]
    assert ps.tied == 3
    assert ps.d_distinct.size == 1


def reference_groups(d):
    """The tie groups of sorted weights, one comparison at a time."""
    groups = [[0]]
    for k in range(1, d.size):
        if d[k - 1] - d[k] <= TIE_RTOL * d[k - 1]:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


@st.composite
def tied_lengths(draw):
    """1 to 32 lengths with exact ties and chains of near-ties at 0.5 to 2 TIE_RTOL."""
    n = draw(st.integers(1, 32))
    lengths = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    for i in range(1, n):
        kind = draw(st.sampled_from(["free", "exact", "near"]))
        if kind == "exact":
            lengths[i] = lengths[draw(st.integers(0, i - 1))]
        elif kind == "near":  # each link of the chain is relative to the previous length
            lengths[i] = lengths[i - 1] * (1.0 + draw(st.floats(0.5, 2.0)) * TIE_RTOL)
    return lengths


@settings(max_examples=300, deadline=None)
@given(tied_lengths())
def test_path_system_groups_match_the_pairwise_loop(lengths):
    ps = PathSystem.from_lengths(lengths)
    groups = reference_groups(ps.d)
    assert ps.group.tolist() == [k for k, members in enumerate(groups) for _ in members]
    assert ps.d_distinct.tolist() == [ps.d[members[0]] for members in groups]
    assert ps.tied == len(groups[0])


def test_model_mu_is_the_equilibrium_scale_computed_once():
    model = make_model([1.0, 3.0, 7.0], alpha=0.3, beta=1.7)
    assert model.mu.tolist() == [model.beta * d / model.alpha for d in model.paths.d]
    assert model.mu is model.mu


def test_path_system_rejects_bad_lengths():
    with pytest.raises(ValueError):
        PathSystem.from_lengths([])
    with pytest.raises(ValueError, match="length 1"):
        PathSystem.from_lengths([1.0, -2.0])
    with pytest.raises(ValueError, match="length 0"):
        PathSystem.from_lengths([np.nan, 1.0])
    # the first offender is named, with a plain float
    with pytest.raises(ValueError, match=r"^length 1 is inf; lengths must be finite and positive$"):
        PathSystem.from_lengths([1.0, np.inf, 0.0])
    with pytest.raises(ValueError):
        PathSystem.from_lengths([[1.0, 2.0]])


def test_reorder_rejects_wrong_size():
    ps = PathSystem.from_lengths([1.0, 2.0])
    with pytest.raises(ValueError):
        ps.to_canonical([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ps.to_canonical([1.0])


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
    # the first offender is named, whichever kind it is
    with pytest.raises(DomainError, match=r"^component 1 is -inf$"):
        require_admissible([1.0, -np.inf, -0.5])
    with pytest.raises(DomainError, match=r"^component 2 is negative \(-0\.5\)$"):
        require_admissible([1.0, 0.0, -0.5, np.nan])
    with pytest.raises(DomainError, match=r"^component 1 of x0 is 0\.0; must be strictly positive$"):
        require_positive_state([1.0, 0.0, np.nan], 3)
    with pytest.raises(DomainError, match="identically zero"):
        require_admissible([0.0, 0.0])


def test_a_state_that_is_not_1d_is_refused_with_its_shape():
    model = make_model([1, 2])
    cases = [
        (lambda: phi_eval("sum", -1.0), "()"),
        (lambda: phi_eval("sum", 2.0), "()"),
        (lambda: phi_eval("sum", [[1.0, -1.0], [1.0, 1.0]]), "(2, 2)"),
        (lambda: phi_grad("max", [[1.0, 2.0]]), "(1, 2)"),
        (lambda: vector_field(model, [[1.0, -1.0]]), "(1, 2)"),
        (lambda: jacobian(model, np.array([[1.0, 2.0]])), "(1, 2)"),
        (lambda: require_admissible(np.ones((2, 1, 2))), "(2, 1, 2)"),
    ]
    for call, shape in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is ValueError
        assert str(info.value) == f"a state must be 1-D, got shape {shape}"


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


def test_rhs_on_rows_equals_rhs_on_each_row():
    # a batch of states is one reduction per row; each row must be bitwise
    # what the single-state call gives, over the pairwise-summation sizes
    rng = np.random.default_rng(3)
    for n in range(1, 65):
        rows = rng.uniform(0.01, 2.0, size=(3, 2, n))
        lengths = rng.uniform(1.0, 10.0, size=n)
        for phi in ("sum", "max"):
            for g in ("identity", "tanh", "signum"):
                f = rhs(make_model(lengths, alpha=0.7, gamma=1.5, phi=phi, g=g))
                batch = f(rows)
                assert batch.shape == rows.shape
                for index in np.ndindex(rows.shape[:-1]):
                    assert np.array_equal(batch[index], f(rows[index])), (n, phi, g, index)

    # a row block, one model per row: a block of one kind (one run over all
    # its rows) and a mixed one, each row bitwise what its own model gives
    kinds = [(phi, g) for phi in ("sum", "max") for g in ("identity", "tanh", "signum")]
    for n in range(1, 65):
        x = rng.uniform(0.01, 2.0, size=(12, n))
        for block_kinds in ([kinds[n % 6]] * 12, kinds[::-1] + kinds):
            models = [
                make_model(rng.uniform(1.0, 10.0, n), *rng.uniform(0.2, 2.0, 3), phi=phi, g=g)
                for phi, g in block_kinds
            ]
            f = rhs(models)
            block = f(x)
            for i, model in enumerate(models):
                assert np.array_equal(block[i], rhs(model)(x[i])), (n, block_kinds[i], i)
            out = np.empty_like(x)
            assert f(x, out) is out
            assert np.array_equal(out, block)


def float_reference(model, x):
    """The right-hand side in numpy's scalar arithmetic, at any point of any sign."""
    reduce = np.add.reduce if model.phi_kind is PhiKind.SUM else np.maximum.reduce
    a = model.beta * (1.0 / reduce(x)) * model.paths.d - model.alpha
    return model.gamma * g_eval(model.g_kind, a) * x


@pytest.mark.parametrize("n", [1, 8, 9, 32])
@pytest.mark.parametrize("phi", list(PhiKind))
@pytest.mark.parametrize("g", list(GKind))
def test_rhs_out_is_bitwise_the_fresh_result(g, phi, n):
    # from n = 8 on numpy sums with eight accumulators, not one after another
    rng = np.random.default_rng(n)
    model = make_model(rng.uniform(1.0, 10.0, n), alpha=0.7, beta=1.3, gamma=1.5, phi=phi, g=g)
    f = rhs(model)
    rows = rng.uniform(0.01, 2.0, size=(5, n))
    out = np.empty(n)
    for x in rows:
        assert f(x, out) is out
        assert np.array_equal(out, f(x))
        assert np.array_equal(out, float_reference(model, x))
    batch_out = np.empty_like(rows)
    assert f(rows, batch_out) is batch_out
    for x, row in zip(rows, batch_out):
        assert np.array_equal(row, f(x))

    # Stage points outside the domain give what the floats give, bit for
    # bit and signed zeros included: a zero saturation of either sign gives
    # an infinite phi of that sign, not an exception.
    outside = [np.zeros(n), np.full(n, -0.0), -rows[0]]
    if n > 1:
        outside.append(np.r_[1.0, -1.0, np.zeros(n - 2)])  # sum +0
        outside.append(np.r_[0.0, -rows[0, 1:]])  # maximum +0
        outside.append(np.r_[-0.0, -rows[0, 1:]])  # maximum -0
    with np.errstate(all="ignore"):
        for x in outside:
            assert f(x, out).tobytes() == float_reference(model, x).tobytes()
        if n > 1 and g == GKind.IDENTITY:
            assert np.isinf(f(outside[3 if phi == PhiKind.SUM else 4])).any()
