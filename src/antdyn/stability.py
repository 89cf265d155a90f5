"""Equilibria, Jacobians and local stability classification.

Every model has exactly one equilibrium per path, of the form
``mu_i * e_i`` with ``phi(mu_i e_i) = alpha / (beta d_i)``.  Both
shipped saturations, reciprocal sum and reciprocal max, equal ``1 / mu``
along an axis, so the scale has the closed form ``mu_i = beta d_i / alpha``.

At an equilibrium the Jacobian has a single nontrivial row, so its
spectrum can be read off exactly instead of going through a dense
eigensolver.  ``jacobian`` itself returns the true derivative of the
vector field at an arbitrary admissible point and is validated against
central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .models import (
    GKind,
    ModelSpec,
    g_eval,
    g_prime,
    phi_eval,
    phi_grad,
    require_admissible,
)

CLASSIFY_TOL = 1e-9


class StabilityLabel(str, Enum):
    LOCALLY_ASYMPTOTICALLY_STABLE = "locally-asymptotically-stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True, eq=False)
class Equilibrium:
    """Single-axis equilibrium ``mu * e_index`` (canonical index)."""

    index: int
    mu: float
    point: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """All equilibria of a model with spectra and stability labels.

    ``spectra`` and ``labels`` are None for the signum response, which
    has no linearization; a note says so.
    """

    equilibria: tuple[Equilibrium, ...]
    spectra: Optional[tuple[np.ndarray, ...]]
    labels: Optional[tuple[StabilityLabel, ...]]
    notes: tuple[str, ...]


def find_equilibria(model: ModelSpec) -> list[Equilibrium]:
    """All equilibria of a model, one per canonical path index.

    Each scale is the closed form ``mu_i = beta d_i / alpha``
    (``model.mu``), which holds for both the sum and the max saturation.
    At ``mu_k e_k``, where phi = ``1 / mu_k``, only component k moves, at
    ``gamma g(a_k) mu_k`` with ``a_k = -alpha + beta (1 / mu_k) d_k``: the
    residual is its magnitude, bit for bit the max-norm of
    :func:`antdyn.models.rhs` there.  For the signum response, whose
    sign() is +-1 for any rounding-level argument, the residual is
    ``|gamma a_k mu_k|``, the switching argument in field units.
    """
    mu = model.mu
    a = -model.alpha + model.beta * (1.0 / mu) * model.paths.d
    g = a if model.g_kind is GKind.SIGNUM else g_eval(model.g_kind, a)
    residuals = np.abs(model.gamma * g * mu)
    points = np.diag(mu)
    return [Equilibrium(i, float(mu[i]), points[i], float(residuals[i])) for i in range(model.n)]


def jacobian(model: ModelSpec, x) -> np.ndarray:
    """Derivative of the vector field at an admissible 1-D state.

    With ``a_i(x) = -alpha + beta phi(x) d_i`` the field is
    ``gamma g(a_i) x_i`` and the derivative is

        J = gamma * (diag(g(a)) + diag(g'(a)) * (beta D x) grad_phi^T)

    which for the identity response reduces to
    ``gamma * (-alpha I + beta phi(x) D + beta D x grad_phi(x)^T)``.

    Raises
    ------
    UnsupportedDerivativeError
        For the signum response (distributional derivative), also at a
        tied maximum of phi=max.
    NondifferentiablePointError
        For phi=max at a tied maximum.
    """
    arr = require_admissible(x)
    saturation = phi_eval(model.phi_kind, arr)
    a = -model.alpha + model.beta * saturation * model.paths.d
    slope = g_prime(model.g_kind, a)  # signum refuses here, before a kink of phi=max can
    grad = phi_grad(model.phi_kind, arr)
    diag = np.diag(g_eval(model.g_kind, a))
    rank_one = (slope * model.beta * model.paths.d * arr)[:, None] * grad[None, :]
    return model.gamma * (diag + rank_one)


def spectrum_at_equilibrium(model: ModelSpec, eq: Equilibrium) -> np.ndarray:
    """Exact Jacobian spectrum at a single-axis equilibrium.

    At ``mu_k e_k`` the Jacobian is diagonal except for row k, so the
    eigenvalues are the diagonal entries: ``gamma * g(alpha (d_j/d_k - 1))``
    for j != k and, in slot k,
    ``gamma * g'(0) * beta d_k mu_k * (grad phi)_k`` with
    ``(grad phi)_k = -1 / mu_k**2``, which evaluates to
    ``-gamma g'(0) alpha`` for both shipped saturations.  For the signum
    response ``g_prime`` raises ``UnsupportedDerivativeError``.
    """
    d = model.paths.d
    k = eq.index
    eigs = model.gamma * g_eval(model.g_kind, model.alpha * (d / d[k] - 1.0))
    grad_k = -1.0 / (eq.mu * eq.mu)
    g_prime_zero = float(g_prime(model.g_kind, 0.0))
    eigs[k] = model.gamma * g_prime_zero * model.beta * d[k] * eq.mu * grad_k
    return eigs


def classify(spectra: Sequence[np.ndarray]) -> list[StabilityLabel]:
    """Label each spectrum by the signs of its real parts.

    All real parts below ``-CLASSIFY_TOL``: locally asymptotically stable.
    Any real part above ``+CLASSIFY_TOL``: unstable.  Otherwise marginal, which is
    also what equilibria of a tied-leading set receive, since the tie
    contributes an exactly zero eigenvalue.
    """
    labels = []
    for spectrum in spectra:
        real = np.real(np.asarray(spectrum))
        if np.all(real < -CLASSIFY_TOL):
            labels.append(StabilityLabel.LOCALLY_ASYMPTOTICALLY_STABLE)
        elif np.any(real > CLASSIFY_TOL):
            labels.append(StabilityLabel.UNSTABLE)
        else:
            labels.append(StabilityLabel.MARGINAL)
    return labels


def equilibrium_report(model: ModelSpec) -> EquilibriumReport:
    """Equilibria with exact spectra and stability labels at ``CLASSIFY_TOL``.

    For the signum response, whose linearization is distributional, the
    report holds the equilibria and a note, and no spectra or labels.
    """
    equilibria = tuple(find_equilibria(model))
    if model.g_kind is GKind.SIGNUM:
        note = "signum response has no linearization; labels unavailable"
        return EquilibriumReport(equilibria, spectra=None, labels=None, notes=(note,))
    spectra = tuple(spectrum_at_equilibrium(model, eq) for eq in equilibria)
    labels = tuple(classify(spectra))
    notes = []
    tied = model.paths.tied
    if tied > 1:
        paths = ", ".join(str(i) for i in range(tied))
        notes.append(
            f"paths {paths} share the largest preference weight: their equilibria are "
            "individually marginal and the long-run statement applies to their sum"
        )
    return EquilibriumReport(equilibria, spectra=spectra, labels=labels, notes=tuple(notes))
