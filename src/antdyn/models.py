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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

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
        i = first_nonpositive(arr)
        if i is not None:
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

    def tied_sum(self, states: np.ndarray) -> np.ndarray:
        """The sum of the tied-leading components of each row of a ``(m, n)`` block."""
        # an index array, not a slice: a slice sums each row pairwise, which rounds
        # differently once 8 paths tie
        return states[:, np.arange(self.tied)].sum(axis=1)

    def to_canonical(self, values) -> np.ndarray:
        """Reorder a user-order vector into canonical (sorted-d) order."""
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} values, got shape {arr.shape}")
        return arr[self.order]


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
    """Check a rate or step size: a finite float > 0 (not a bool), returned as a float."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not 0.0 < value < math.inf:  # nan fails both
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def require_interval(name: str, pair) -> tuple[float, float]:
    """Check an interval ``(lo, hi)``: both finite and ``lo < hi``, returned as floats."""
    lo, hi = float(pair[0]), float(pair[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite, got {(lo, hi)!r}")
    if not lo < hi:
        raise ValueError(f"{name} must satisfy lo < hi, got {(lo, hi)!r}")
    return lo, hi


def require_admissible(x) -> np.ndarray:
    """Check that a 1-D state lies in the admissible domain.

    Components must be finite and nonnegative with at least one strictly
    positive entry.  A state that is not 1-D raises ``ValueError`` naming
    its shape; an inadmissible one raises :class:`DomainError` naming the
    first offending component.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"a state must be 1-D, got shape {arr.shape}")
    # nan fails both comparisons; an empty state reads as identically zero
    top = arr.max(initial=-math.inf)
    if not (0.0 <= arr.min(initial=math.inf) and top < math.inf):
        i = int(np.argmin(np.isfinite(arr) & (arr >= 0.0)))
        value = float(arr[i])
        if not math.isfinite(value):
            raise DomainError(f"component {i} is {value}")
        raise DomainError(f"component {i} is negative ({value})")
    if not top > 0.0:
        raise DomainError("state is identically zero; at least one component must be positive")
    return arr


def first_nonpositive(x: np.ndarray) -> Optional[int]:
    """Flat index of the first entry of ``x`` that is not finite and > 0, or None if none is."""
    if 0.0 < x.min() and x.max() < math.inf:  # nan fails both
        return None
    return int(np.argmin(np.isfinite(x) & (x > 0.0)))


def require_positive_state(x0, n: int) -> np.ndarray:
    """Check an initial state: shape ``(n,)``, every component finite and > 0."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, model has {n} paths")
    i = first_nonpositive(x0)
    if i is not None:
        raise DomainError(f"component {i} of x0 is {float(x0[i])}; must be strictly positive")
    return x0


# The reduction whose reciprocal is phi, and the elementwise response
# applied in place (identity needs none).
_SATURATION = {PhiKind.SUM: np.add.reduce, PhiKind.MAX: np.maximum.reduce}
_RESPONSE = {GKind.IDENTITY: None, GKind.TANH: np.tanh, GKind.SIGNUM: np.sign}


def phi_eval(phi_kind: PhiKind, x) -> float:
    """Evaluate the saturation function phi at a 1-D state.

    ``sum`` gives ``1 / sum(x)``, ``max`` gives ``1 / max(x)``.
    """
    return 1.0 / float(_SATURATION[PhiKind(phi_kind)](require_admissible(x)))


def phi_grad(phi_kind: PhiKind, x) -> np.ndarray:
    """Gradient of phi at a 1-D state.

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
    """The right-hand side of ``model`` as a function ``f(x, out=None)`` of a state.

    The saturation, the response and the constants are bound once, here,
    so ``f`` does no checking and no coercion: it expects a float array
    in canonical order and writes ``gamma * g(-alpha + beta * phi(x) * d) * x``
    into ``out`` (a fresh array when ``out`` is None), which it returns.
    ``out`` must have the shape of ``x`` and must not alias it.  Outside
    the domain it computes whatever the floats give (a zero sum gives
    ``inf``), so the integrators evaluate stage points unchecked and check
    each step once it is complete.  ``f`` has two paths:

    - *One state,* shape ``(n,)``: its saturation reduces into a 0-d
      buffer bound here and turns into a Python float, and the rest runs
      in place on ``(n,)`` arrays.  This is the integrators' path, the
      cheapest for one state; bind ``f`` once per run, and do not call it
      reentrantly.
    - *A block* of states, shape ``(..., n)``, such as a phase grid: one
      reduction and one response over the whole block, with the floats
      and the ``(n,)`` weights broadcast over it.

    Either way each state rounds exactly as ``f`` of that state alone.
    Some runs step without this kernel, in Python floats, by the rule that
    :mod:`antdyn._scalar` states.
    """
    reduce, response = _SATURATION[model.phi_kind], _RESPONSE[model.g_kind]
    alpha, beta, gamma, d = model.alpha, model.beta, model.gamma, model.paths.d
    # bound ufuncs with a positional out: the cheapest call numpy offers
    multiply, reciprocal, subtract = np.multiply, np.reciprocal, np.subtract

    def block(x: np.ndarray, out=None) -> np.ndarray:
        total = reduce(x, -1)
        # beta * (1 / s) per state, rounded as the single-state path rounds it
        reciprocal(total, total)
        multiply(total, beta, total)
        out = multiply(total[..., None], d, out)
        subtract(out, alpha, out)
        if response is not None:
            response(out, out)
        multiply(out, gamma, out)
        return multiply(out, x, out)

    # numpy combines two short arrays faster than an array and a float
    alpha_row, gamma_row = np.full(model.n, alpha), np.full(model.n, gamma)
    single = np.empty(())

    def f(x: np.ndarray, out=None) -> np.ndarray:
        if x.ndim != 1:
            return block(x, out)
        if out is None:
            out = np.empty(x.size)
        s = float(reduce(x, -1, None, single))
        try:
            out.fill(beta * (1.0 / s))
        except ZeroDivisionError:  # numpy's 1 / 0, where Python raises
            out.fill(beta * math.copysign(math.inf, s))
        multiply(out, d, out)
        subtract(out, alpha_row, out)
        if response is not None:
            response(out, out)
        multiply(out, gamma_row, out)
        return multiply(out, x, out)

    return f


def vector_field(model: ModelSpec, x) -> np.ndarray:
    """Right-hand side of the path-choice dynamics at an admissible 1-D state.

    Parameters
    ----------
    model : ModelSpec
    x : array_like
        Admissible 1-D state (see :func:`require_admissible`) of ``n``
        components in canonical (sorted-d) order.

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
