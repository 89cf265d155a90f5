"""Helpers shared by the test modules."""

from antdyn import ModelSpec, PathSystem, simulate
from antdyn._scalar import scalar_stepper


def make_model(lengths, alpha=1.0, beta=1.0, gamma=1.0, phi="sum", g="identity"):
    return ModelSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_kind=phi,
        g_kind=g,
        paths=PathSystem.from_lengths(lengths),
    )


def spy_on_steppers(monkeypatch):
    """Record ``(stepper, steps)`` for each block a run steps: ``"python"`` or ``"numpy"``."""
    blocks = []

    def spying(kind, make):
        def made(*args):
            advance = make(*args)
            if advance is None:
                return None

            def spied(states, start, stop):
                blocks.append((kind, stop - start))
                advance(states, start, stop)

            return spied

        return made

    monkeypatch.setattr(simulate, "scalar_stepper", spying("python", scalar_stepper))
    monkeypatch.setattr(simulate, "_numpy_stepper", spying("numpy", simulate._numpy_stepper))
    return blocks
