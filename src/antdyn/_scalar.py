"""Single runs of a few paths, stepped in Python floats.

The rule for a single run, stated here once: :func:`antdyn.simulate.integrate`
steps a run of at most ``SCALAR_PATHS`` (12) paths with the identity or
signum response here, under either saturation and either scheme; every
other run, every tanh run and every :func:`~antdyn.simulate.integrate_rows`
block of two or more models steps through the numpy kernel
(:func:`antdyn.models.rhs`).  For a handful of paths, the numpy calls of
that loop cost far more than their arithmetic: a Python-float step takes
about a third of the time of a numpy one at 2 paths, and Python's cost
grows with n while numpy's barely does, so the two cross near 12 paths.
Tanh stays on numpy because ``math.tanh`` and ``np.tanh`` round
differently.

Both paths give the same trajectory, bit for bit.  Python floats are
IEEE doubles too, and each operation below is the one the numpy kernel
performs, on the same operands and in the same order, so every value
rounds as it does there.  ``np.sign`` is spelled with comparisons.  The
one reduction whose order numpy chooses, the saturation sum, follows
numpy's pairwise order (:func:`pairwise_sum`); a maximum is exact in any
order.  A block that fails the integrator's finiteness and sign check,
or meets a zero saturation (where Python raises and numpy divides to an
infinity), hands the run to the numpy loop from that block on.

This module lives apart from ``simulate`` to keep that module's syntax
tree small: without cached bytecode, every fresh interpreter compiles
the package, and the largest module's syntax tree sets the peak memory
of that import.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .models import GKind, PhiKind

# Most paths a run may have and still be stepped here, by the rule above.
SCALAR_PATHS = 12


def pairwise_sum(x) -> float:
    """Sum fewer than 16 floats bit for bit as ``np.add.reduce`` sums a contiguous array.

    That is numpy's pairwise summation, which adds fewer than 8 terms left
    to right.  From 8 terms on it keeps eight accumulators, each adding
    every eighth term, and joins them as a balanced tree before adding the
    terms past the last full eight left to right; below 16 terms the
    accumulators are the first eight terms themselves.
    """
    if len(x) < 8:
        return reduce(add, x, 0.0)
    tree = ((x[0] + x[1]) + (x[2] + x[3])) + ((x[4] + x[5]) + (x[6] + x[7]))
    return reduce(add, x[8:], tree)


def scalar_stepper(model, dt: float, euler: bool):
    """The Python-float stepper of a single run, or None if the module's rule keeps it on numpy.

    The stepper, ``advance(states, start, stop)``, steps on from
    ``states[start - 1]`` and writes steps ``start .. stop - 1`` into
    ``states``; it returns False, writing nothing, if a saturation is
    zero, where Python raises and numpy divides to an infinity.  Each
    step it stores is bit for bit the numpy kernel's.  Outside the
    domain the two can part ways (Python's ``max`` skips a nan, numpy's
    propagates it), but only on a step whose new state holds a nan
    either way, so a block that passes the integrator's finiteness check
    is one the numpy kernel would also have written.
    """
    if model.n > SCALAR_PATHS or model.g_kind is GKind.TANH:
        return None
    total = pairwise_sum if model.phi_kind is PhiKind.SUM else max
    alpha, beta, gamma = model.alpha, model.beta, model.gamma
    d = model.paths.d.tolist()
    half, sixth = 0.5 * dt, dt / 6.0

    # f(y) is rhs(model)(y), and euler_step(x) is x + f(x) * dt with f inlined
    if model.g_kind is GKind.IDENTITY:

        def f(y):
            c = beta * (1.0 / total(y))
            return [(c * di - alpha) * gamma * yi for di, yi in zip(d, y)]

        def euler_step(x):
            c = beta * (1.0 / total(x))
            return [xi + (c * di - alpha) * gamma * xi * dt for di, xi in zip(d, x)]

    else:
        # np.sign: 1, -1, or a itself, which is +0.0 or nan (c * di - alpha
        # is never -0.0, since alpha > 0)

        def f(y):
            c = beta * (1.0 / total(y))
            return [
                (1.0 if (a := c * di - alpha) > 0.0 else -1.0 if a < 0.0 else a) * gamma * yi
                for di, yi in zip(d, y)
            ]

        def euler_step(x):
            c = beta * (1.0 / total(x))
            return [
                xi
                + (1.0 if (a := c * di - alpha) > 0.0 else -1.0 if a < 0.0 else a) * gamma * xi * dt
                for di, xi in zip(d, x)
            ]

    def rk4_step(x):
        k1 = f(x)
        k2 = f([xi + half * k for xi, k in zip(x, k1)])
        k3 = f([xi + half * k for xi, k in zip(x, k2)])
        k4 = f([xi + dt * k for xi, k in zip(x, k3)])
        # ((k2 + k3) * 2 + k1 + k4) * (dt / 6), doubling by an exact add
        return [
            xi + ((t := b + c) + t + a + e) * sixth for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
        ]

    step = euler_step if euler else rk4_step

    def advance(states, start: int, stop: int) -> bool:
        x = states[start - 1].tolist()
        flat = []
        try:
            for _ in range(start, stop):
                x = step(x)
                flat += x
        except ZeroDivisionError:
            return False
        states[start:stop].reshape(-1)[:] = flat
        return True

    return advance
