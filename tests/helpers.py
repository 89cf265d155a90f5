"""Helpers shared by the test modules."""

from antdyn import ModelSpec, PathSystem


def make_model(lengths, alpha=1.0, beta=1.0, gamma=1.0, phi="sum", g="identity"):
    return ModelSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_kind=phi,
        g_kind=g,
        paths=PathSystem.from_lengths(lengths),
    )
