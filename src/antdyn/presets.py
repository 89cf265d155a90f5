"""Canonical experiment presets and phase-portrait grids.

``PRESETS`` holds every preset by name, in listing order.  A preset
bundles a model family with what is sampled from it: an initial state
and step schedule for an :class:`ExperimentPreset`, a direction-field
grid for a :class:`PhasePreset`.  Each class names its ``kind`` and
writes its own artifacts (trajectory and rate CSVs or a field grid, and
an SVG figure), and ``run_preset`` adds the plain-text report.
Everything here is deterministic, so rerunning a preset reproduces its
files byte for byte.

The ten-path presets share the classic setup, which is the default of
:class:`ExperimentPreset`: path lengths 1..10 (so preference weights 1,
1/2, ..., 1/10), the initial state biased toward the longer paths,
x(0) = (0.1, 0.2, ..., 1.0), and 2000 Euler steps of 0.02.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import compare_variants, rate_report, verify_convergence
from .models import ModelSpec, PathSystem, PhiKind, require_interval, rhs
from .reporting import (
    compose_report,
    equilibria_lines,
    grid_csv,
    model_lines,
    ranking_lines,
    rates_csv,
    rates_table,
    render_kv,
    resolve_out_root,
    verification_lines,
    write_text_atomic,
)
from .simulate import integrate_rows, write_trajectory_csv
from .stability import equilibrium_report
from .svgfig import Series, line_figure, quiver_figure

SPURIOUS_SPEED_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ExperimentPreset:
    """A fixed simulation experiment: one or more models, shared schedule.

    A preset of several runs draws their shortest-path components in one
    comparison figure; a single run draws every component, plus the sum
    of the tied-leading paths when more than one path shares the largest
    weight.
    """

    name: str
    description: str
    runs: tuple[tuple[str, ModelSpec], ...]
    x0: np.ndarray = field(default_factory=lambda: np.arange(1, 11) * 0.1)
    dt: float = 0.02
    steps: int = 2000

    kind: ClassVar[str] = "trajectory"

    def write(self, out_dir: Path, steps: Optional[int]):
        """Integrate every run as one row block and write its CSVs and the figure.

        ``steps`` overrides :attr:`steps` unless it is None.  Returns the
        report's preamble pairs, its sections and the written paths.
        """
        steps = self.steps if steps is None else steps
        labels, models = zip(*self.runs)
        runs = list(zip(labels, models, integrate_rows(models, self.x0, self.dt, steps)))
        sections = []
        paths = []
        for label, model, traj in runs:
            rates = rate_report(model, traj)
            paths.append(write_trajectory_csv(traj, out_dir / f"trajectory-{label}.csv"))
            paths.append(write_text_atomic(out_dir / f"rates-{label}.csv", rates_csv(rates)))
            sections += [
                (f"model:{label}", model_lines(model)),
                (f"verification:{label}", verification_lines(verify_convergence(traj, model))),
                (f"rates:{label}", rates_table(rates)),
                (f"equilibria:{label}", equilibria_lines(equilibrium_report(model))),
            ]
        if len(runs) > 1:
            sections.append(("ranking", ranking_lines(compare_variants(runs))))
        paths.append(write_text_atomic(out_dir / "figure.svg", _figure_for(self, runs)))
        preamble = [
            ("dt", self.dt),
            ("steps", steps),
            ("horizon", self.dt * steps),
            ("x0", ", ".join(f"{v:.12g}" for v in self.x0)),
        ]
        return preamble, sections, paths


@dataclass(frozen=True, eq=False)
class PhasePreset:
    """A fixed two-path direction-field experiment on :func:`phase_grid`'s default grid."""

    name: str
    description: str
    model: ModelSpec

    kind: ClassVar[str] = "phase"

    def write(self, out_dir: Path, steps: Optional[int]):
        """Sample and scan the field and write its grid and figure.

        A phase preset has no step schedule, so ``steps`` must be None.
        Returns the same three parts as :meth:`ExperimentPreset.write`.
        """
        if steps is not None:
            raise ValueError(f"preset {self.name!r} has no step schedule to override")
        grid = phase_grid(self.model)
        report = equilibrium_report(self.model)
        clean, offending = spurious_equilibria_scan(grid, report.equilibria)
        paths = write_phase_artifacts(
            grid, report.equilibria, out_dir, title=self.name, caption=self.description
        )
        preamble = [
            ("bounds", f"{grid.axis[0]:.12g} .. {grid.axis[-1]:.12g}"),
            ("resolution", grid.axis.size),
        ]
        sections = [
            ("model", model_lines(self.model)),
            ("equilibria", equilibria_lines(report)),
            (
                "field-scan",
                render_kv(
                    [
                        ("spurious_minima", len(offending)),
                        ("clean", clean),
                        ("tie_nodes", int(np.sum(grid.tie))),
                    ]
                ),
            ),
        ]
        return preamble, sections, paths


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Vector-field samples on a regular, square two-path grid.

    Both coordinates run over the one ``axis``: node ``(i, j)`` is
    ``(axis[i], axis[j])``, and ``u``, ``v``, ``speed`` and ``tie`` are
    ``(len(axis), len(axis))`` arrays indexed that way.
    :func:`phase_grid` checks every node's field for finiteness, so the
    figure and CSV writers take the grid as it is.  ``tie`` marks nodes
    on the diagonal where phi=max has a kink; the field itself is still
    well defined there.
    """

    axis: np.ndarray
    u: np.ndarray
    v: np.ndarray
    speed: np.ndarray
    tie: np.ndarray


def _model(alpha, beta, gamma, phi, g, lengths=range(1, 11)) -> ModelSpec:
    return ModelSpec(alpha, beta, gamma, phi, g, PathSystem.from_lengths(lengths))


PRESETS = {
    preset.name: preset
    for preset in (
        ExperimentPreset(
            "eigenant-fig1",
            "identity response, reciprocal-sum saturation, ten paths, biased start",
            (("identity-sum", _model(1.0, 1.0, 10.0, "sum", "identity")),),
        ),
        ExperimentPreset(
            "tanh-sum-fig2",
            "tanh response, reciprocal-sum saturation, ten paths, biased start",
            (("tanh-sum", _model(0.1, 0.1, 10.0, "sum", "tanh")),),
        ),
        # The source material states both gains for the signum run, so both
        # ship as named presets.
        ExperimentPreset(
            "signum-sum-fig3",
            "signum response with gain 0.5, reciprocal-sum saturation, ten paths",
            (("signum-sum", _model(0.1, 0.1, 0.5, "sum", "signum")),),
        ),
        ExperimentPreset(
            "signum-sum-fig3-gamma1",
            "signum response with gain 1, reciprocal-sum saturation, ten paths",
            (("signum-sum", _model(0.1, 0.1, 1.0, "sum", "signum")),),
        ),
        ExperimentPreset(
            "comparison-fig4",
            "shortest-path component across all six response/saturation variants",
            (
                ("identity-sum", _model(1.0, 1.0, 10.0, "sum", "identity")),
                ("identity-max", _model(1.0, 1.0, 10.0, "max", "identity")),
                ("tanh-sum", _model(0.1, 0.1, 10.0, "sum", "tanh")),
                ("tanh-max", _model(0.1, 0.1, 10.0, "max", "tanh")),
                ("signum-sum", _model(0.1, 0.1, 1.0, "sum", "signum")),
                ("signum-max", _model(0.1, 0.1, 1.0, "max", "signum")),
            ),
        ),
        ExperimentPreset(
            "tied-shortest-fig5",
            "three tied shortest paths; their sum carries the invariant limit",
            (
                (
                    "identity-sum",
                    _model(0.1, 0.1, 10.0, "sum", "identity", [1, 1, 1, *range(2, 9)]),
                ),
            ),
        ),
        PhasePreset(
            "phase-eigenant",
            "two-path direction field, identity response, reciprocal sum",
            _model(1.0, 1.0, 1.0, "sum", "identity", [1, 2]),
        ),
        PhasePreset(
            "phase-maxant",
            "two-path direction field, identity response, reciprocal max",
            _model(1.0, 1.0, 1.0, "max", "identity", [1, 2]),
        ),
    )
}


def preset_names() -> list[str]:
    return list(PRESETS)


def get_preset(name: str) -> Union[ExperimentPreset, PhasePreset]:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(PRESETS)}")
    return PRESETS[name]


def phase_grid(
    model: ModelSpec,
    bounds: Optional[tuple[float, float]] = None,
    resolution: int = 21,
) -> PhaseGrid:
    """Sample the vector field on a regular grid over a two-path model.

    ``bounds`` is the common (low, high) range of both axes; the default
    is ``(0.01, 1.5 * beta * d_1 / alpha)``.  Both bounds must be finite
    and the low bound strictly positive: both axes share it, so a zero low
    bound would put the origin, where the saturation is undefined, on the
    grid.  ``resolution``, the number of nodes on each axis, is an
    integer of at least 2.  The whole grid is one call of the :func:`rhs`
    kernel, and a field that is not finite at some node (bounds so small
    that the saturation overflows) raises ``ValueError`` naming that node.
    """
    if model.n != 2:
        raise ValueError(f"phase grids are for two-path models, got n={model.n}")
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if bounds is None:
        bounds = (0.01, 1.5 * model.beta * model.paths.d[0] / model.alpha)
    lo, hi = require_interval("bounds", bounds)
    if lo < 0.0:
        raise ValueError("bounds must stay in the nonnegative quadrant")
    if lo == 0.0:
        raise ValueError("grid would contain the origin; raise the lower bound above 0")
    axis = np.linspace(lo, hi, resolution)
    with np.errstate(all="ignore"):  # checked below, node by node
        field = rhs(model)(np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1))
    bad = np.argwhere(~np.isfinite(field).all(axis=-1))
    if bad.size:
        raise ValueError(f"vector field is not finite at node {tuple(axis[bad[0]].tolist())}")
    u, v = field[..., 0], field[..., 1]
    tie = np.zeros((resolution, resolution), dtype=bool)
    if model.phi_kind is PhiKind.MAX:
        tie = axis[:, None] == axis
    return PhaseGrid(axis=axis, u=u, v=v, speed=np.hypot(u, v), tie=tie)


def spurious_equilibria_scan(grid: PhaseGrid, equilibria) -> tuple[bool, list[tuple[int, int]]]:
    """Check that near-zero speed minima only occur next to true equilibria.

    Returns (clean, offending nodes in row-major order).  A node is
    suspicious when no neighbour is strictly slower, its speed is below
    1e-8 and it lies farther than one grid cell from every analytic
    equilibrium.
    """
    speed = grid.speed
    # each node's 3x3 neighbourhood, padded with inf past the edges; the
    # node itself is never strictly slower than itself
    around = sliding_window_view(np.pad(speed, 1, constant_values=np.inf), (3, 3))
    suspicious = (speed < SPURIOUS_SPEED_TOL) & ~(around < speed[..., None, None]).any(axis=(2, 3))
    axis = grid.axis
    cell = axis[1] - axis[0]
    for eq in equilibria:
        near = np.abs(eq.point[:, None] - axis) <= cell
        suspicious &= ~(near[0][:, None] & near[1])
    offending = [(int(i), int(j)) for i, j in np.argwhere(suspicious)]
    return (not offending, offending)


def write_phase_artifacts(grid: PhaseGrid, equilibria, out_dir, title: str, caption=None):
    """Write ``field-grid.csv`` and a quiver ``figure.svg`` marking each equilibrium.

    The figure is rendered before either file is written, so an axis it
    cannot draw raises with nothing written.  Returns the CSV and SVG
    paths.
    """
    markers = [
        (float(eq.point[0]), float(eq.point[1]), f"mu_{eq.index + 1}") for eq in equilibria
    ]
    svg = quiver_figure(
        grid.axis, grid.u, grid.v, markers,
        title=title, xlabel="x_1", ylabel="x_2", caption=caption,
    )
    csv_path = write_text_atomic(out_dir / "field-grid.csv", grid_csv(grid))
    return csv_path, write_text_atomic(out_dir / "figure.svg", svg)


def _figure_for(preset: ExperimentPreset, runs) -> str:
    if len(runs) > 1:
        series = [
            Series(label=label, x=model.gamma * traj.times, y=traj.states[:, 0])
            for label, model, traj in runs
        ]
        xlabel, ylabel = "gain-scaled time", "shortest-path concentration x_1"
    else:
        ((_, model, traj),) = runs
        series = [
            Series(label=f"x_{i + 1}", x=traj.times, y=traj.states[:, i]) for i in range(traj.n)
        ]
        if model.paths.tied > 1:
            series.append(
                Series(label="tied sum", x=traj.times, y=model.paths.tied_sum(traj.states))
            )
        xlabel, ylabel = "time", "concentration"
    return line_figure(
        series, title=preset.name, xlabel=xlabel, ylabel=ylabel, caption=preset.description
    )


def run_preset(name: str, out_root=None, steps: Optional[int] = None) -> tuple[Path, ...]:
    """Run a named preset, write its artifact bundle and return the written paths.

    Artifacts land in ``<out_root>/<name>/``; the root defaults to the
    ``ANTDYN_OUT`` environment variable and then the working directory.
    ``steps`` overrides the preset's step count (trajectory presets only).
    The preset's ``write`` method writes its data files and figure and
    hands back the report's parts.  The paths come in the order written:
    per run the trajectory CSV and then the rates CSV, or
    ``field-grid.csv`` for a phase preset, then ``figure.svg`` and last
    ``report.txt``.
    """
    preset = get_preset(name)
    out_dir = resolve_out_root(out_root) / name
    preamble, sections, paths = preset.write(out_dir, steps)
    head = render_kv([("preset", preset.name), ("description", preset.description), *preamble])
    report = write_text_atomic(out_dir / "report.txt", compose_report([(None, head), *sections]))
    return (*paths, report)
