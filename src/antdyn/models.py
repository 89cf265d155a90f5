"""Path systems and ant path-choice vector fields.

A colony distributes pheromone mass over n alternative paths.  Each path
carries a preference weight equal to the reciprocal of its length, and the
state evolves under

    dx_i/dt = gamma * g(-alpha + beta * phi(x) * d_i) * x_i

where phi is a saturation function of the whole state (reciprocal sum or
reciprocal max) and g is an outer response (identity, tanh, or signum).
This module holds the data model plus pointwise evaluation of phi, g and
the full vector field.  Everything downstream (integration, equilibria,
closed forms) builds on these.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "GKind",
    "ModelSpec",
    "NondifferentiablePointError",
    "PathSystem",
    "PhiKind",
    "UnsupportedDerivativeError",
    "g_eval",
    "g_prime",
    "phi_eval",
    "phi_grad",
    "rhs",
    "vector_field",
]

# Relative tolerance for grouping equal preference weights.  Lengths given
# as equal numbers produce bit-identical reciprocals, so exact ties always
# group; the tolerance only matters for independently computed floats.
TIE_RTOL = 1e-12


class DomainError(ValueError):
    """State outside the admissible positive domain."""


class NondifferentiablePointError(ValueError):
    """Gradient requested where the saturation function has a kink."""


class UnsupportedDerivativeError(ValueError):
    """Derivative requested for a response with no pointwise derivative."""


class PhiKind(str, Enum):
    SUM = "sum"
    MAX = "max"


class GKind(str, Enum):
    IDENTITY = "identity"
    TANH = "tanh"
    SIGNUM = "signum"


@dataclass(frozen=True, eq=False)
class PathSystem:
    """Preference weights of a set of paths, in canonical order.

    Weights are reciprocals of the user-given path lengths, stored sorted
    in nonincreasing order so that index 0 is always a shortest path.
    ``order`` maps canonical positions back to user positions:
    ``d[k] == (1 / lengths)[order[k]]``.

    Attributes
    ----------
    lengths : tuple of float
        Path lengths exactly as given, user order.
    d : ndarray
        Preference weights sorted nonincreasing.
    order : ndarray
        Permutation such that ``d = (1/asarray(lengths))[order]``.
    d_distinct : ndarray
        Distinct weight values, strictly decreasing.
    groups : tuple of tuple of int
        Canonical indices sharing each distinct value; the tuples
        partition ``range(n)`` and the first one is the tied-leading set.
    """

    lengths: tuple[float, ...]
    d: np.ndarray
    order: np.ndarray
    d_distinct: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def from_lengths(cls, lengths) -> "PathSystem":
        """Build a path system from positive path lengths.

        Parameters
        ----------
        lengths : sequence of float
            Positive, finite path lengths.  Need not be sorted.
        """
        arr = np.asarray(lengths, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("lengths must be a nonempty 1-D sequence")
        for i, value in enumerate(arr):
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"length {i} is {float(value)}; lengths must be finite and positive")
        recip = 1.0 / arr
        # stable sort keeps user order among exact ties
        order = np.argsort(-recip, kind="stable")
        d = recip[order]
        groups: list[list[int]] = [[0]]
        for k in range(1, d.size):
            if d[k - 1] - d[k] <= TIE_RTOL * d[k - 1]:
                groups[-1].append(k)
            else:
                groups.append([k])
        d_distinct = np.array([d[g[0]] for g in groups])
        return cls(
            lengths=tuple(float(v) for v in arr),
            d=d,
            order=order,
            d_distinct=d_distinct,
            groups=tuple(tuple(g) for g in groups),
        )

    @property
    def n(self) -> int:
        return self.d.size

    def to_canonical(self, values) -> np.ndarray:
        """Reorder a user-order vector into canonical (sorted-d) order."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} values, got shape {arr.shape}")
        return arr[self.order]

    def to_user(self, values) -> np.ndarray:
        """Reorder a canonical-order vector back to user order."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} values, got shape {arr.shape}")
        out = np.empty_like(arr)
        out[self.order] = arr
        return out


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full parameterization of one path-choice model.

    ``alpha`` is the evaporation rate, ``beta`` the deposition rate and
    ``gamma`` a positive time-scale gain applied outside ``g``.
    """

    alpha: float
    beta: float
    gamma: float
    phi_kind: PhiKind
    g_kind: GKind
    paths: PathSystem

    def __post_init__(self):
        object.__setattr__(self, "phi_kind", PhiKind(self.phi_kind))
        object.__setattr__(self, "g_kind", GKind(self.g_kind))
        for name in ("alpha", "beta", "gamma"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.paths.n

    @property
    def label(self) -> str:
        return f"{self.g_kind.value}-{self.phi_kind.value}"


def require_admissible(x) -> np.ndarray:
    """Check that a state lies in the admissible domain.

    Components must be nonnegative with at least one strictly positive
    entry.  Raises :class:`DomainError` naming the offending component.
    """
    arr = np.asarray(x, dtype=float)
    for i, value in enumerate(arr):
        if not np.isfinite(value):
            raise DomainError(f"component {i} is {float(value)}")
        if value < 0.0:
            raise DomainError(f"component {i} is negative ({float(value)})")
    if not np.any(arr > 0.0):
        raise DomainError("state is identically zero; at least one component must be positive")
    return arr


def require_positive_state(x0, n: int) -> np.ndarray:
    """Check an initial state: shape ``(n,)``, every component finite and > 0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, model has {n} paths")
    for i, value in enumerate(x0):
        if not np.isfinite(value) or value <= 0.0:
            raise DomainError(f"component {i} of x0 is {float(value)}; must be strictly positive")
    return x0


# The reduction whose reciprocal is phi, and the elementwise response
# applied in place (identity needs none).
_SATURATION = {PhiKind.SUM: np.add.reduce, PhiKind.MAX: np.maximum.reduce}
_RESPONSE = {GKind.IDENTITY: None, GKind.TANH: np.tanh, GKind.SIGNUM: np.sign}


def phi_eval(phi_kind: PhiKind, x) -> float:
    """Evaluate the saturation function phi at a state.

    ``sum`` gives ``1 / sum(x)``, ``max`` gives ``1 / max(x)``.
    """
    return 1.0 / float(_SATURATION[PhiKind(phi_kind)](require_admissible(x)))


def phi_grad(phi_kind: PhiKind, x) -> np.ndarray:
    """Gradient of phi at a state.

    For ``max`` the maximizer must be unique; at an exact tie the function
    has a kink and :class:`NondifferentiablePointError` is raised.
    """
    arr = require_admissible(x)
    if PhiKind(phi_kind) is PhiKind.SUM:
        total = float(np.sum(arr))
        return np.full(arr.size, -1.0 / (total * total))
    top = float(np.max(arr))
    winners = np.flatnonzero(arr == top)
    if winners.size > 1:
        raise NondifferentiablePointError(
            f"components {winners.tolist()} tie for the maximum; phi=max has no gradient there"
        )
    grad = np.zeros(arr.size)
    grad[winners[0]] = -1.0 / (top * top)
    return grad


def g_eval(g_kind: GKind, a):
    """Apply the outer response g elementwise.  sign(0) is 0."""
    response = _RESPONSE[GKind(g_kind)]
    a = np.array(a, dtype=float)
    return a if response is None else response(a, out=a)


def g_prime(g_kind: GKind, a):
    """Elementwise derivative of g.  Signum has none pointwise."""
    a = np.asarray(a, dtype=float)
    kind = GKind(g_kind)
    if kind is GKind.IDENTITY:
        return np.ones_like(a)
    if kind is GKind.TANH:
        th = np.tanh(a)
        return 1.0 - th * th
    raise UnsupportedDerivativeError(
        "signum has no pointwise derivative; its linearization is distributional"
    )


def rhs(model: ModelSpec):
    """The right-hand side of ``model`` as a function ``f(x)`` of a state.

    The saturation and the response are resolved once, here, so ``f``
    does no checking and no coercion: it expects a float array of shape
    ``(n,)`` in canonical order and returns a fresh array
    ``gamma * g(-alpha + beta * phi(x) * d) * x``.  Outside the domain it
    computes whatever the floats give (a zero sum gives ``inf``), so the
    integrators evaluate stage points unchecked and check each step once
    it is complete.
    """
    reduce = _SATURATION[model.phi_kind]
    response = _RESPONSE[model.g_kind]
    alpha, beta, gamma, d = model.alpha, model.beta, model.gamma, model.paths.d

    def f(x: np.ndarray) -> np.ndarray:
        a = beta * (1.0 / reduce(x)) * d
        a -= alpha
        if response is not None:
            response(a, out=a)
        a *= gamma
        a *= x
        return a

    return f


def vector_field(model: ModelSpec, x) -> np.ndarray:
    """Right-hand side of the path-choice dynamics at an admissible state.

    Parameters
    ----------
    model : ModelSpec
    x : array_like
        Admissible state (see :func:`require_admissible`) in canonical
        (sorted-d) order.

    Returns
    -------
    ndarray
        ``gamma * g(-alpha + beta * phi(x) * d) * x`` componentwise,
        computed by :func:`rhs`.
    """
    arr = require_admissible(x)
    if arr.shape != (model.n,):
        raise ValueError(f"state has shape {arr.shape}, model has {model.n} paths")
    return rhs(model)(arr)
