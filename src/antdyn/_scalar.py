"""Single runs of a few paths, stepped in Python floats by generated code.

The rule for a single run, stated here once: :func:`antdyn.simulate.integrate`
steps a run here if it has at most the paths that ``SCALAR_PATHS`` allows
its scheme and response, under either saturation:

=======  ==================  ====
scheme   identity or signum  tanh
=======  ==================  ====
Euler    24                  14
RK4      32                  20
=======  ==================  ====

Every other run steps through the numpy kernel
(:func:`antdyn.models.rhs`).  For a handful of paths, the numpy calls of
that loop cost far more than their arithmetic.  The stepper here is
straight-line Python, generated once per shape: each state component is
a local variable, and a step makes no call but, under tanh, one
``np.tanh`` per stage on a row its arguments are packed into.  Its cost
grows with n while numpy's barely does.
A 2,000-step run, its compile included, crosses numpy between 24 and 28
paths (Euler) and between 32 and 40 (RK4); warm, a tanh run crosses near
18 paths (Euler) and 22 (RK4).  Each limit sits at or below its crossing,
which leaves room for the compile, and RK4's 32 also bounds the memory
that compiling a shape takes.

Both paths give the same trajectory, bit for bit.  Python floats are
IEEE doubles too, and each operation below is the one the numpy kernel
performs, on the same operands and in the same order, so every value
rounds as it does there.  ``np.sign`` is spelled with comparisons, and
``np.tanh`` runs in place on a row of the stage's n arguments, as in the
numpy loop; it gives an element the same value whatever the array's
length and the element's place in it.  The one reduction whose order
numpy chooses, the saturation sum, is spelled in numpy's pairwise order
(:func:`_pairwise`); a maximum is exact in any order.  At a zero
saturation, where Python raises, the stepper takes numpy's ``1 / 0``, an
infinity.  A run keeps the stepper it starts with: after a block fails
the integrator's check, the same stepper steps the run on one checked
step at a time.

The source of a stepper (:func:`_source`) is spelled from ``n``, the
response, the saturation and the scheme alone; the model's values are
bound as default arguments, so models of one shape share one code
object, compiled once per process.  This is the one module that
compiles code.

This module lives apart from ``simulate`` to keep that module's syntax
tree small: without cached bytecode, every fresh interpreter compiles
the package, and the largest module's syntax tree sets the peak memory
of that import.
"""

from __future__ import annotations

import math
import struct
from functools import cache
from types import FunctionType

import numpy as np

from .models import GKind, PhiKind

# The most paths a run may have and still be stepped here, by the rule
# above, keyed by (euler, tanh): the scheme, and whether the response is tanh.
SCALAR_PATHS = {(True, False): 24, (True, True): 14, (False, False): 32, (False, True): 20}

# {d}: the weights' names; {x}: the state's names; {steps}: one step's
# statements, which update the state's names in place.  The arguments
# after (states, start, stop) are bound per model as defaults; ``work``
# is tanh's row of n floats.
_TEMPLATE = """\
def advance(states, start, stop, alpha, beta, gamma, dt, half, sixth, work, {d}):
    ({x},) = states[start - 1].tolist()
    flat = []
    for _ in range(start, stop):
{steps}
        flat += ({x},)
    states[start:stop].reshape(-1)[:] = flat
"""

# c = beta * (1 / s), and numpy's 1 / 0 = inf where Python raises: a zero
# saturation is +0, since no state or stage point ever holds -0 (x + y is
# -0 only if both are)
_COEFFICIENT = ["try:", "    c = beta * (1 / s)", "except ZeroDivisionError:", "    c = beta * inf"]


def _pairwise(terms: list[str]) -> str:
    """Sum ``terms`` as ``np.add.reduce`` sums a contiguous array of fewer than 128.

    That is numpy's pairwise summation, which adds fewer than 8 terms left
    to right.  From 8 terms on it keeps eight accumulators, each adding
    every eighth term left to right, and joins them as a balanced tree
    before adding the terms past the last full eight left to right.
    """
    n = len(terms)
    assert n < 128  # from 128 terms on, numpy splits the sum in halves first
    if n < 8:
        return " + ".join(terms)
    full = n - n % 8
    r = [" + ".join(terms[j:full:8]) for j in range(8)]
    if full > 8:
        r = [f"({a})" for a in r]
    tree = f"((({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]})))"
    return " + ".join([tree, *terms[full:]])


def _source(n: int, g_kind: GKind, phi_kind: PhiKind, euler: bool) -> str:
    """The source of the stepper of one shape: ``def advance(...)``, spelled from the shape alone.

    Every step is ``rhs(model)`` and the scheme of the numpy loop with
    each array operation but tanh written out per component, with ``c =
    beta * (1 / s)`` at saturation ``s``.  The source holds no float: an
    int operand converts exactly, and the model's values are arguments.
    """
    def coefficient(y: str) -> list[str]:
        """Statements that set ``c`` from the saturation of state ``y``, and under tanh ``t0 ..``."""
        names = [f"{y}{i}" for i in range(n)]
        if phi_kind is PhiKind.SUM:
            lines = [f"s = {_pairwise(names)}"]
        else:
            lines = [f"s = {names[0]}"] + [f"if {v} > s: s = {v}" for v in names[1:]]
        lines += _COEFFICIENT
        if g_kind is GKind.TANH:
            # rhs's subtract, then its np.tanh in place on an (n,) row; pack
            # copies each double's bits into the row for less than numpy's
            # assignment of a tuple costs
            a = ", ".join(f"c * d{i} - alpha" for i in range(n))
            t = ", ".join(f"t{i}" for i in range(n))
            lines += [f"pack(work, 0, {a})", f"({t},) = tanh(work, work).tolist()"]
        return lines

    def k(i: int, y: str) -> str:
        """Component ``i`` of ``rhs(model)`` at state ``y``, given ``c``."""
        if g_kind is GKind.IDENTITY:
            return f"(c * d{i} - alpha) * gamma * {y}{i}"
        if g_kind is GKind.TANH:
            return f"t{i} * gamma * {y}{i}"
        # np.sign(b - alpha) * gamma at b = c * di: b - alpha rounds to the
        # sign of the exact difference, and is +0 or nan when neither
        # comparison holds (never -0, since alpha > 0), which sign() and
        # the gain leave as they are
        g = f"gamma if (b := c * d{i}) > alpha else -gamma if b < alpha else b - alpha"
        return f"({g}) * {y}{i}"

    if euler:
        lines = coefficient("x") + [f"x{i} += {k(i, 'x')} * dt" for i in range(n)]
    else:
        # k1 in p, k2 + k3 in q, the stage points in y; the result is
        # x + ((k2 + k3) * 2 + k1 + k4) * (dt / 6), doubling by an exact add
        lines = coefficient("x")
        for i in range(n):
            lines += [f"p{i} = {k(i, 'x')}", f"y{i} = x{i} + half * p{i}"]
        lines += coefficient("y")
        for i in range(n):
            lines += [f"q{i} = {k(i, 'y')}", f"y{i} = x{i} + half * q{i}"]
        lines += coefficient("y")
        for i in range(n):
            lines += [f"k = {k(i, 'y')}", f"y{i} = x{i} + dt * k", f"q{i} += k"]
        lines += coefficient("y")
        lines += [f"x{i} += (q{i} + q{i} + p{i} + {k(i, 'y')}) * sixth" for i in range(n)]
    return _TEMPLATE.format(
        d=", ".join(f"d{i}" for i in range(n)),
        x=", ".join(f"x{i}" for i in range(n)),
        steps="\n".join(" " * 8 + line for line in lines),
    )


@cache
def _compiled(n: int, g_kind: GKind, phi_kind: PhiKind, euler: bool) -> FunctionType:
    """The stepper of one shape, with no values bound: compiled once per process.

    ``SCALAR_PATHS`` allows 292 shapes in all, so the cache stays small.
    """
    pack = struct.Struct(f"{n}d").pack_into  # the n doubles of tanh's row, native layout
    namespace: dict = {"inf": math.inf, "tanh": np.tanh, "pack": pack}
    exec(compile(_source(n, g_kind, phi_kind, euler), f"<advance {n}>", "exec"), namespace)
    return namespace["advance"]


def scalar_stepper(model, dt: float, euler: bool):
    """The Python-float stepper of a single run, or None if the module's rule keeps it on numpy.

    The stepper, ``advance(states, start, stop)``, steps on from
    ``states[start - 1]`` and writes steps ``start .. stop - 1`` into
    ``states``, as the numpy loop's stepper does.  From a checked state,
    finite and nonnegative, one step of each gives the same bits or fails
    the integrator's check with the same error.  Past a failing step the
    two can part ways (a comparison skips a nan, numpy's maximum
    propagates it), but the integrator discards those steps.
    """
    if model.n > SCALAR_PATHS[euler, model.g_kind is GKind.TANH]:
        return None
    template = _compiled(model.n, model.g_kind, model.phi_kind, euler)
    bound = (model.alpha, model.beta, model.gamma, dt, 0.5 * dt, dt / 6.0, np.empty(model.n))
    return FunctionType(
        template.__code__, template.__globals__, "advance", (*bound, *model.paths.d.tolist())
    )
