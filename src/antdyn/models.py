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

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

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
        Distinct weight values, strictly decreasing: the first weight of
        each group.
    group : ndarray of int
        Each component's index in ``d_distinct``, nondecreasing; group 0
        is the tied-leading set.
    """

    lengths: tuple[float, ...]
    d: np.ndarray
    order: np.ndarray
    d_distinct: np.ndarray
    group: np.ndarray

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
        if not (0.0 < arr.min() and arr.max() < math.inf):  # nan fails both
            i = int(np.argmin(np.isfinite(arr) & (arr > 0.0)))
            raise ValueError(f"length {i} is {float(arr[i])}; lengths must be finite and positive")
        recip = 1.0 / arr
        # stable sort keeps user order among exact ties
        order = np.argsort(-recip, kind="stable")
        d = recip[order]
        # a weight starts a new group unless it ties with its predecessor (ties chain)
        starts = np.ones(d.size, dtype=bool)
        starts[1:] = ~(d[:-1] - d[1:] <= TIE_RTOL * d[:-1])
        return cls(
            lengths=tuple(float(v) for v in arr),
            d=d,
            order=order,
            d_distinct=d[starts],
            group=np.cumsum(starts) - 1,
        )

    @property
    def n(self) -> int:
        return self.d.size

    @cached_property
    def tied(self) -> int:
        """Size of the tied-leading set: canonical indices ``0 .. tied - 1``."""
        return int(np.searchsorted(self.group, 1))

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
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))

    @property
    def n(self) -> int:
        return self.paths.n

    @property
    def label(self) -> str:
        return f"{self.g_kind.value}-{self.phi_kind.value}"

    @cached_property
    def mu(self) -> np.ndarray:
        """Equilibrium scales ``mu_i = beta d_i / alpha``: path i's equilibrium is ``mu_i e_i``."""
        return self.beta * self.paths.d / self.alpha


def require_positive(name: str, value) -> float:
    """Check a rate or step size: a finite float > 0, returned as a float."""
    value = float(value)
    if not 0.0 < value < math.inf:  # nan fails both
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def require_admissible(x) -> np.ndarray:
    """Check that a state lies in the admissible domain.

    Components must be nonnegative with at least one strictly positive
    entry.  Raises :class:`DomainError` naming the offending component.
    """
    arr = np.asarray(x, dtype=float)
    # nan fails both comparisons; an empty state reads as identically zero
    top = arr.max(initial=-math.inf)
    if not (0.0 <= arr.min(initial=math.inf) and top < math.inf):
        for i, value in enumerate(arr):
            if not np.isfinite(value):
                raise DomainError(f"component {i} is {float(value)}")
            if value < 0.0:
                raise DomainError(f"component {i} is negative ({float(value)})")
    if not top > 0.0:
        raise DomainError("state is identically zero; at least one component must be positive")
    return arr


def require_positive_state(x0, n: int) -> np.ndarray:
    """Check an initial state: shape ``(n,)``, every component finite and > 0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, model has {n} paths")
    if not (0.0 < x0.min() and x0.max() < math.inf):  # nan fails both
        i = int(np.argmin(np.isfinite(x0) & (x0 > 0.0)))
        raise DomainError(f"component {i} of x0 is {float(x0[i])}; must be strictly positive")
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


def rhs(model: ModelSpec | Sequence[ModelSpec]):
    """The right-hand side of ``model`` as a function ``f(x, out=None)`` of a state.

    The saturation, the response and the constants are bound once, here,
    so ``f`` does no checking and no coercion: it expects a float array
    of shape ``(n,)`` or ``(..., n)`` in canonical order and writes
    ``gamma * g(-alpha + beta * phi(x) * d) * x`` into ``out`` (a fresh
    array when ``out`` is None), which it returns.  ``out`` must have the
    shape of ``x`` and must not alias it.  A batch of states is one
    reduction per row along the last axis, and each row equals the result
    for that row alone.  Outside the domain it computes whatever the
    floats give (a zero sum gives ``inf``), so the integrators evaluate
    stage points unchecked and check each step once it is complete.

    ``model`` may also be a sequence of models that share one ``n``.
    Then ``f`` takes states of shape ``(B, n)``, row ``i`` belonging to
    ``model[i]``, and binds per-row ``alpha`` and ``gamma`` rows, a
    ``beta`` column and the ``(B, n)`` weight block.  Each run of
    consecutive rows that share a saturation reduces in one call on its
    slice, and each run that shares a non-identity response responds in
    one, so models sorted by (saturation, response) make the fewest
    calls.  Every row rounds exactly as ``rhs(model[i])`` on that row
    alone.

    A single state reduces into a 0-d buffer bound here, and a row block
    into a ``(B,)`` one, so ``f`` belongs to one caller at a time: bind it
    once per model, and do not call it reentrantly.
    """
    if not isinstance(model, ModelSpec):
        return _rhs_rows(model)
    reduce = _SATURATION[model.phi_kind]
    response = _RESPONSE[model.g_kind]
    alpha, beta, gamma, d = model.alpha, model.beta, model.gamma, model.paths.d
    # numpy combines two short arrays faster than an array and a float, but
    # broadcasting a row over a batch is slower than a float
    alpha_row, gamma_row = np.full(model.n, alpha), np.full(model.n, gamma)
    total = np.empty(())
    # bound ufuncs with a positional out: the cheapest call numpy offers
    multiply, subtract = np.multiply, np.subtract

    def f(x: np.ndarray, out=None) -> np.ndarray:
        if x.ndim == 1:
            if out is None:
                out = np.empty(x.size)
            s = float(reduce(x, -1, None, total))
            try:
                out.fill(beta * (1.0 / s))
            except ZeroDivisionError:  # numpy's 1 / 0, where Python raises
                out.fill(beta * math.copysign(math.inf, s))
            multiply(out, d, out)
            a, c = alpha_row, gamma_row
        else:  # a batch: one value per row, as a column that broadcasts
            out = multiply(beta * (1.0 / reduce(x, -1)[..., None]), d, out)
            a, c = alpha, gamma
        subtract(out, a, out)
        if response is not None:
            response(out, out)
        multiply(out, c, out)
        return multiply(out, x, out)

    return f


def _runs(kinds, table):
    """``(slice, function)`` for each run of equal consecutive kinds, skipping identity."""
    runs, start = [], 0
    for kind, group in itertools.groupby(kinds):
        stop = start + len(list(group))
        if table[kind] is not None:
            runs.append((slice(start, stop), table[kind]))
        start = stop
    return runs


def require_rows(models) -> tuple[ModelSpec, ...]:
    """Check models meant as the rows of one block: at least one, all of one ``n``."""
    models = tuple(models)
    if not models:
        raise ValueError("a row block needs at least one model")
    sizes = [m.n for m in models]
    if min(sizes) != max(sizes):
        raise ValueError(f"the models of a row block must share one number of paths, got {sizes}")
    return models


def _rhs_rows(models):
    """The row-block kernel of :func:`rhs`, one model per row."""
    models = require_rows(models)
    rows, n = len(models), models[0].n
    alpha, gamma = (
        np.repeat([getattr(m, name) for m in models], n).reshape(rows, n)
        for name in ("alpha", "gamma")
    )
    beta = np.array([m.beta for m in models])
    d = np.stack([m.paths.d for m in models])
    one = np.ones(rows)
    total = np.empty(rows)
    column = total[:, None]
    reductions = [
        (sl, reduce, total[sl]) for sl, reduce in _runs([m.phi_kind for m in models], _SATURATION)
    ]
    responses = _runs([m.g_kind for m in models], _RESPONSE)
    divide, multiply, subtract = np.divide, np.multiply, np.subtract

    def f(x: np.ndarray, out=None) -> np.ndarray:
        for sl, reduce, part in reductions:
            reduce(x[sl], -1, None, part)
        # beta * (1 / s) per row, rounded as the one-row kernel rounds it
        divide(one, total, total)
        multiply(total, beta, total)
        out = multiply(column, d, out)
        subtract(out, alpha, out)
        for sl, response in responses:
            part = out[sl]
            response(part, part)
        multiply(out, gamma, out)
        return multiply(out, x, out)

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
