"""Canonical experiment presets and phase-portrait grids.

Each preset bundles a model family, initial state and step schedule, and
``run_preset`` materializes it into a directory of artifacts: trajectory
and rate CSVs, an SVG figure and a plain-text report.  Everything here
is deterministic, so rerunning a preset reproduces its files byte for
byte.

The ten-path presets share the classic setup: path lengths 1..10 (so
preference weights 1, 1/2, ..., 1/10) and the initial state biased
toward the longer paths, x(0) = (0.1, 0.2, ..., 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .analysis import VariantRanking, compare_variants, rate_report, verify_convergence
from .models import GKind, ModelSpec, PathSystem, PhiKind, vector_field
from .reporting import (
    compose_report,
    equilibria_lines,
    grid_csv,
    model_lines,
    rates_csv,
    rates_table,
    render_kv,
    render_table,
    resolve_out_root,
    verification_lines,
    write_text_atomic,
)
from .simulate import integrate, write_trajectory_csv
from .stability import find_equilibria
from .svgfig import Series, line_figure, quiver_figure

__all__ = [
    "DEFAULT_STEPS",
    "ExperimentPreset",
    "PhaseGrid",
    "PhasePreset",
    "PresetResult",
    "get_preset",
    "phase_grid",
    "preset_names",
    "run_preset",
    "spurious_equilibria_scan",
    "write_phase_artifacts",
]

DEFAULT_DT = 0.02
DEFAULT_STEPS = 2000

SPURIOUS_SPEED_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ExperimentPreset:
    """A fixed simulation experiment: one or more models, shared schedule."""

    name: str
    description: str
    runs: tuple[tuple[str, ModelSpec], ...]
    x0: np.ndarray
    dt: float
    steps: int
    panels: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class PhasePreset:
    """A fixed two-path direction-field experiment."""

    name: str
    description: str
    model: ModelSpec
    bounds: tuple[float, float]
    resolution: int


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Vector-field samples on a regular two-path grid.

    ``tie`` marks nodes on the diagonal where phi=max has a kink; the
    field itself is still well defined there.
    """

    x1: np.ndarray
    x2: np.ndarray
    u: np.ndarray
    v: np.ndarray
    speed: np.ndarray
    tie: np.ndarray


@dataclass(frozen=True, eq=False)
class PresetResult:
    """Artifacts and in-memory results of one preset run."""

    name: str
    out_dir: object
    csv_paths: tuple[object, ...]
    svg_path: object
    report_path: object
    trajectories: dict
    verifications: dict
    rates: dict
    ranking: Optional[VariantRanking]
    grid: Optional[PhaseGrid]


def _model(alpha, beta, gamma, phi, g, lengths) -> ModelSpec:
    return ModelSpec(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_kind=PhiKind(phi),
        g_kind=GKind(g),
        paths=PathSystem.from_lengths(lengths),
    )


def _build_presets() -> dict:
    ten = list(range(1, 11))
    bias = np.arange(1, 11) * 0.1
    tied_lengths = [1, 1, 1] + list(range(2, 9))
    presets = {}

    presets["eigenant-fig1"] = ExperimentPreset(
        name="eigenant-fig1",
        description="identity response, reciprocal-sum saturation, ten paths, biased start",
        runs=(("identity-sum", _model(1.0, 1.0, 10.0, "sum", "identity", ten)),),
        x0=bias,
        dt=DEFAULT_DT,
        steps=DEFAULT_STEPS,
        panels=("states",),
    )
    presets["tanh-sum-fig2"] = ExperimentPreset(
        name="tanh-sum-fig2",
        description="tanh response, reciprocal-sum saturation, ten paths, biased start",
        runs=(("tanh-sum", _model(0.1, 0.1, 10.0, "sum", "tanh", ten)),),
        x0=bias,
        dt=DEFAULT_DT,
        steps=DEFAULT_STEPS,
        panels=("states",),
    )
    # The source material states both gains for the signum run, so both
    # ship as named presets.
    presets["signum-sum-fig3"] = ExperimentPreset(
        name="signum-sum-fig3",
        description="signum response with gain 0.5, reciprocal-sum saturation, ten paths",
        runs=(("signum-sum", _model(0.1, 0.1, 0.5, "sum", "signum", ten)),),
        x0=bias,
        dt=DEFAULT_DT,
        steps=DEFAULT_STEPS,
        panels=("states",),
    )
    presets["signum-sum-fig3-gamma1"] = ExperimentPreset(
        name="signum-sum-fig3-gamma1",
        description="signum response with gain 1, reciprocal-sum saturation, ten paths",
        runs=(("signum-sum", _model(0.1, 0.1, 1.0, "sum", "signum", ten)),),
        x0=bias,
        dt=DEFAULT_DT,
        steps=DEFAULT_STEPS,
        panels=("states",),
    )
    presets["comparison-fig4"] = ExperimentPreset(
        name="comparison-fig4",
        description="shortest-path component across all six response/saturation variants",
        runs=(
            ("identity-sum", _model(1.0, 1.0, 10.0, "sum", "identity", ten)),
            ("identity-max", _model(1.0, 1.0, 10.0, "max", "identity", ten)),
            ("tanh-sum", _model(0.1, 0.1, 10.0, "sum", "tanh", ten)),
            ("tanh-max", _model(0.1, 0.1, 10.0, "max", "tanh", ten)),
            ("signum-sum", _model(0.1, 0.1, 1.0, "sum", "signum", ten)),
            ("signum-max", _model(0.1, 0.1, 1.0, "max", "signum", ten)),
        ),
        x0=bias,
        dt=DEFAULT_DT,
        steps=DEFAULT_STEPS,
        panels=("comparison",),
    )
    presets["tied-shortest-fig5"] = ExperimentPreset(
        name="tied-shortest-fig5",
        description="three tied shortest paths; their sum carries the invariant limit",
        runs=(("identity-sum", _model(0.1, 0.1, 10.0, "sum", "identity", tied_lengths)),),
        x0=bias,
        dt=DEFAULT_DT,
        steps=DEFAULT_STEPS,
        panels=("states", "tied-sum"),
    )
    return presets


def _build_phase_presets() -> dict:
    presets = {}
    presets["phase-eigenant"] = PhasePreset(
        name="phase-eigenant",
        description="two-path direction field, identity response, reciprocal sum",
        model=_model(1.0, 1.0, 1.0, "sum", "identity", [1, 2]),
        bounds=(0.01, 1.5),
        resolution=21,
    )
    presets["phase-maxant"] = PhasePreset(
        name="phase-maxant",
        description="two-path direction field, identity response, reciprocal max",
        model=_model(1.0, 1.0, 1.0, "max", "identity", [1, 2]),
        bounds=(0.01, 1.5),
        resolution=21,
    )
    return presets


PRESETS = _build_presets()
PHASE_PRESETS = _build_phase_presets()


def preset_names() -> list[str]:
    return list(PRESETS) + list(PHASE_PRESETS)


def get_preset(name: str) -> Union[ExperimentPreset, PhasePreset]:
    if name in PRESETS:
        return PRESETS[name]
    if name in PHASE_PRESETS:
        return PHASE_PRESETS[name]
    known = ", ".join(preset_names())
    raise ValueError(f"unknown preset {name!r}; known presets: {known}")


def phase_grid(
    model: ModelSpec,
    bounds: Optional[tuple[float, float]] = None,
    resolution: int = 21,
) -> PhaseGrid:
    """Sample the vector field on a regular grid over a two-path model.

    ``bounds`` is the common (low, high) range of both axes; the default
    is ``(0.01, 1.5 * beta * d_1 / alpha)``.  The low bound must be
    strictly positive: both axes share it, so a zero low bound would put
    the origin, where the saturation is undefined, on the grid.
    """
    if model.n != 2:
        raise ValueError(f"phase grids are for two-path models, got n={model.n}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if bounds is None:
        bounds = (0.01, 1.5 * model.beta * model.paths.d[0] / model.alpha)
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got {bounds!r}")
    if lo < 0.0:
        raise ValueError("bounds must stay in the nonnegative quadrant")
    axis = np.linspace(lo, hi, resolution)
    if lo == 0.0:
        raise ValueError("grid would contain the origin; raise the lower bound above 0")
    u = np.empty((resolution, resolution))
    v = np.empty((resolution, resolution))
    tie = np.zeros((resolution, resolution), dtype=bool)
    for i, a in enumerate(axis):
        for j, b in enumerate(axis):
            f = vector_field(model, np.array([a, b]))
            u[i, j], v[i, j] = f[0], f[1]
            if model.phi_kind is PhiKind.MAX and a == b:
                tie[i, j] = True
    return PhaseGrid(
        x1=axis.copy(),
        x2=axis.copy(),
        u=u,
        v=v,
        speed=np.hypot(u, v),
        tie=tie,
    )


def spurious_equilibria_scan(grid: PhaseGrid, equilibria) -> tuple[bool, list[tuple[int, int]]]:
    """Check that near-zero speed minima only occur next to true equilibria.

    Returns (clean, offending nodes).  A node is suspicious when it is a
    local minimum of the speed with speed below 1e-8 and farther than one
    grid cell from every analytic equilibrium.
    """
    res_x, res_y = grid.speed.shape
    cell_x = grid.x1[1] - grid.x1[0]
    cell_y = grid.x2[1] - grid.x2[0]
    offending = []
    for i in range(res_x):
        for j in range(res_y):
            s = grid.speed[i, j]
            if s >= SPURIOUS_SPEED_TOL:
                continue
            neighbors = [
                grid.speed[a, b]
                for a in range(max(i - 1, 0), min(i + 2, res_x))
                for b in range(max(j - 1, 0), min(j + 2, res_y))
                if (a, b) != (i, j)
            ]
            if any(nb < s for nb in neighbors):
                continue
            point = np.array([grid.x1[i], grid.x2[j]])
            near = any(
                abs(eq.point[0] - point[0]) <= cell_x and abs(eq.point[1] - point[1]) <= cell_y
                for eq in equilibria
            )
            if not near:
                offending.append((i, j))
    return (not offending, offending)


def write_phase_artifacts(grid: PhaseGrid, equilibria, out_dir, title: str, caption=None):
    """Write ``field-grid.csv`` and a quiver ``figure.svg`` marking each equilibrium.

    Returns the CSV and SVG paths.
    """
    csv_path = out_dir / "field-grid.csv"
    write_text_atomic(csv_path, grid_csv(grid))
    markers = [
        (float(eq.point[0]), float(eq.point[1]), f"mu_{eq.index + 1}") for eq in equilibria
    ]
    svg_path = out_dir / "figure.svg"
    write_text_atomic(
        svg_path,
        quiver_figure(
            grid.x1, grid.x2, grid.u, grid.v, markers,
            title=title, xlabel="x_1", ylabel="x_2", caption=caption,
        ),
    )
    return csv_path, svg_path


def _figure_for(preset: ExperimentPreset, trajectories: dict) -> str:
    if "comparison" in preset.panels:
        series = []
        for label, model in preset.runs:
            traj = trajectories[label]
            series.append(Series(label=label, x=model.gamma * traj.times, y=traj.states[:, 0]))
        return line_figure(
            series,
            title=preset.name,
            xlabel="gain-scaled time",
            ylabel="shortest-path concentration x_1",
            caption=preset.description,
        )
    label, model = preset.runs[0]
    traj = trajectories[label]
    series = [
        Series(label=f"x_{i + 1}", x=traj.times, y=traj.states[:, i]) for i in range(traj.n)
    ]
    if "tied-sum" in preset.panels:
        tied = list(model.paths.groups[0])
        series.append(
            Series(label="tied sum", x=traj.times, y=traj.states[:, tied].sum(axis=1))
        )
    return line_figure(
        series,
        title=preset.name,
        xlabel="time",
        ylabel="concentration",
        caption=preset.description,
    )


def _run_trajectory_preset(
    preset: ExperimentPreset, out_dir, steps: Optional[int]
) -> PresetResult:
    steps = preset.steps if steps is None else int(steps)
    trajectories = {}
    verifications = {}
    rates = {}
    csv_paths = []
    sections = [
        (
            None,
            render_kv(
                [
                    ("preset", preset.name),
                    ("description", preset.description),
                    ("dt", preset.dt),
                    ("steps", steps),
                    ("horizon", preset.dt * steps),
                    ("x0", ", ".join(f"{v:.12g}" for v in preset.x0)),
                ]
            ),
        )
    ]
    for label, model in preset.runs:
        traj = integrate(model, preset.x0, preset.dt, steps)
        trajectories[label] = traj
        path = out_dir / f"trajectory-{label}.csv"
        write_trajectory_csv(traj, path)
        csv_paths.append(path)
        verifications[label] = verify_convergence(traj, model)
        rates[label] = rate_report(model, traj)
        rates_path = out_dir / f"rates-{label}.csv"
        write_text_atomic(rates_path, rates_csv(rates[label]))
        csv_paths.append(rates_path)
        sections.append((f"model:{label}", model_lines(model)))
        sections.append((f"verification:{label}", verification_lines(verifications[label])))
        sections.append((f"rates:{label}", rates_table(rates[label])))
        sections.append((f"equilibria:{label}", equilibria_lines(model)))

    ranking = None
    if len(preset.runs) > 1:
        ranking = compare_variants(
            [(label, model, trajectories[label]) for label, model in preset.runs]
        )
        rows = [
            (e.rank, e.label, e.tau_scaled, e.tau_time, e.limit, e.reached)
            for e in ranking.entries
        ]
        lines = render_table(
            ("rank", "run", "tau_scaled", "tau_time", "limit", "reached"), rows
        )
        lines.append(f"threshold = {ranking.threshold:.12g}")
        sections.append(("ranking", lines))

    svg_path = out_dir / "figure.svg"
    write_text_atomic(svg_path, _figure_for(preset, trajectories))
    report_path = out_dir / "report.txt"
    write_text_atomic(report_path, compose_report(sections))
    return PresetResult(
        name=preset.name,
        out_dir=out_dir,
        csv_paths=tuple(csv_paths),
        svg_path=svg_path,
        report_path=report_path,
        trajectories=trajectories,
        verifications=verifications,
        rates=rates,
        ranking=ranking,
        grid=None,
    )


def _run_phase_preset(preset: PhasePreset, out_dir) -> PresetResult:
    grid = phase_grid(preset.model, bounds=preset.bounds, resolution=preset.resolution)
    equilibria = find_equilibria(preset.model)
    clean, offending = spurious_equilibria_scan(grid, equilibria)
    csv_path, svg_path = write_phase_artifacts(
        grid, equilibria, out_dir, title=preset.name, caption=preset.description
    )
    sections = [
        (
            None,
            render_kv(
                [
                    ("preset", preset.name),
                    ("description", preset.description),
                    ("bounds", f"{preset.bounds[0]:.12g} .. {preset.bounds[1]:.12g}"),
                    ("resolution", preset.resolution),
                ]
            ),
        ),
        ("model", model_lines(preset.model)),
        ("equilibria", equilibria_lines(preset.model)),
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
    report_path = out_dir / "report.txt"
    write_text_atomic(report_path, compose_report(sections))
    return PresetResult(
        name=preset.name,
        out_dir=out_dir,
        csv_paths=(csv_path,),
        svg_path=svg_path,
        report_path=report_path,
        trajectories={},
        verifications={},
        rates={},
        ranking=None,
        grid=grid,
    )


def run_preset(name: str, out_root=None, steps: Optional[int] = None) -> PresetResult:
    """Run a named preset and write its artifact bundle.

    Artifacts land in ``<out_root>/<name>/``; the root defaults to the
    ``ANTDYN_OUT`` environment variable and then the working directory.
    ``steps`` overrides the preset's step count (trajectory presets only).
    """
    preset = get_preset(name)
    out_dir = resolve_out_root(out_root) / name
    if isinstance(preset, PhasePreset):
        if steps is not None:
            raise ValueError(f"preset {name!r} has no step schedule to override")
        return _run_phase_preset(preset, out_dir)
    return _run_trajectory_preset(preset, out_dir, steps)
