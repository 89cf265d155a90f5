"""Preset registry, artifact bundles and phase-grid tests."""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn import (
    GKind,
    ModelSpec,
    PathSystem,
    PhiKind,
    find_equilibria,
    get_preset,
    phase_grid,
    preset_names,
    run_preset,
    spurious_equilibria_scan,
    vector_field,
)
from antdyn import presets
from antdyn.presets import PRESETS, SPURIOUS_SPEED_TOL, PhaseGrid
from antdyn.reporting import write_text_atomic
from antdyn.stability import Equilibrium

from helpers import spy_on_steppers

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden_artifacts.json"

REQUIRED = [
    "eigenant-fig1",
    "tanh-sum-fig2",
    "signum-sum-fig3",
    "comparison-fig4",
    "tied-shortest-fig5",
    "phase-eigenant",
    "phase-maxant",
]


def test_registry_names_and_lookup():
    names = preset_names()
    for name in REQUIRED:
        assert name in names
    assert "signum-sum-fig3-gamma1" in names
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("figure-9000")


def test_registry_parameters_spot_checks():
    fig1 = get_preset("eigenant-fig1")
    (label, model), = fig1.runs
    assert label == "identity-sum"
    assert model.alpha == 1.0 and model.beta == 1.0 and model.gamma == 10.0
    assert model.paths.lengths == tuple(float(v) for v in range(1, 11))
    assert np.allclose(fig1.x0, np.arange(1, 11) * 0.1)
    assert fig1.dt == 0.02 and fig1.steps == 2000

    fig3 = get_preset("signum-sum-fig3")
    assert fig3.runs[0][1].gamma == 0.5
    assert get_preset("signum-sum-fig3-gamma1").runs[0][1].gamma == 1.0

    fig4 = get_preset("comparison-fig4")
    assert [label for label, _ in fig4.runs] == [
        "identity-sum",
        "identity-max",
        "tanh-sum",
        "tanh-max",
        "signum-sum",
        "signum-max",
    ]
    for label, model in fig4.runs:
        assert model.label == label

    fig5 = get_preset("tied-shortest-fig5")
    assert fig5.runs[0][1].paths.lengths == (1.0, 1.0, 1.0) + tuple(
        float(v) for v in range(2, 9)
    )
    assert get_preset("phase-maxant").model.phi_kind is PhiKind.MAX


def report_table(report: str, section: str) -> list[dict]:
    """The rows of the pipe-separated table that opens ``[section]``, keyed by header."""
    (chunk,) = [c for c in report.split("\n\n") if c.startswith(f"[{section}]\n")]
    header, *rows = [line for line in chunk.splitlines()[1:] if " | " in line]
    keys = [cell.strip() for cell in header.split(" | ")]
    return [dict(zip(keys, (cell.strip() for cell in row.split(" | ")))) for row in rows]


def test_run_preset_writes_expected_bundle(tmp_path):
    paths = run_preset("eigenant-fig1", out_root=tmp_path, steps=400)
    out_dir = tmp_path / "eigenant-fig1"
    assert paths == tuple(
        out_dir / name
        for name in (
            "trajectory-identity-sum.csv", "rates-identity-sum.csv", "figure.svg", "report.txt"
        )
    )
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "figure.svg",
        "rates-identity-sum.csv",
        "report.txt",
        "trajectory-identity-sum.csv",
    ]
    csv_lines = (out_dir / "trajectory-identity-sum.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x_1,x_2,x_3,x_4,x_5,x_6,x_7,x_8,x_9,x_10,S"
    assert len(csv_lines) == 402
    report = (out_dir / "report.txt").read_text()
    for section in ("[model:identity-sum]", "[verification:identity-sum]",
                    "[rates:identity-sum]", "[equilibria:identity-sum]"):
        assert section in report
    assert "status = pass" in report
    rates_lines = (out_dir / "rates-identity-sum.csv").read_text().splitlines()
    assert rates_lines[0].startswith("path,d,tied,fitted_rate")
    assert len(rates_lines) == 11


def test_run_preset_is_deterministic(tmp_path):
    run_preset("tied-shortest-fig5", out_root=tmp_path / "a", steps=250)
    run_preset("tied-shortest-fig5", out_root=tmp_path / "b", steps=250)
    for path_a in sorted((tmp_path / "a" / "tied-shortest-fig5").iterdir()):
        path_b = tmp_path / "b" / "tied-shortest-fig5" / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_preset_artifacts_match_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    for name in preset_names():
        run_preset(name, out_root=tmp_path)
    actual = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert len(golden) == 40
    drifted = sorted(f for f in golden.keys() | actual.keys() if golden.get(f) != actual.get(f))
    assert not drifted, f"artifacts differ from {GOLDEN.name}: {', '.join(drifted)}"


def test_run_preset_comparison_ranks_all_variants(tmp_path):
    paths = run_preset("comparison-fig4", out_root=tmp_path, steps=600)
    labels = [label for label, _ in get_preset("comparison-fig4").runs]
    assert len(labels) == 6
    out_dir = tmp_path / "comparison-fig4"
    per_run = [f"{kind}-{label}.csv" for label in labels for kind in ("trajectory", "rates")]
    assert paths == tuple(out_dir / name for name in per_run + ["figure.svg", "report.txt"])
    ranking = report_table((out_dir / "report.txt").read_text(), "ranking")
    assert sorted(row["run"] for row in ranking) == sorted(labels)
    assert all(row["reached"] == "yes" for row in ranking)
    assert (out_dir / "figure.svg").read_text().count("polyline") >= 6


@pytest.mark.parametrize(
    "name", [name for name, preset in PRESETS.items() if preset.kind == "trajectory"]
)
def test_a_preset_steps_each_run_alone_in_the_generated_stepper(tmp_path, monkeypatch, name):
    # one integrate call per run, in the preset's order, and every block in
    # Python floats: a preset that drifts onto the numpy loop fails here
    blocks = spy_on_steppers(monkeypatch)
    calls = []
    integrate = presets.integrate

    def spy(model, *args):
        calls.append(model)
        return integrate(model, *args)

    monkeypatch.setattr(presets, "integrate", spy)
    run_preset(name, out_root=tmp_path, steps=40)
    assert calls == [model for _, model in PRESETS[name].runs]
    assert blocks == [("python", 40)] * len(calls)


def test_run_preset_respects_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ANTDYN_OUT", str(tmp_path / "via-env"))
    paths = run_preset("phase-eigenant")
    out_dir = tmp_path / "via-env" / "phase-eigenant"
    assert paths == tuple(out_dir / name for name in ("field-grid.csv", "figure.svg", "report.txt"))
    assert all(path.exists() for path in paths)


def test_artifacts_get_the_mode_of_a_plain_open(tmp_path):
    def plain_mode(directory):
        sibling = directory / "plain-open"
        with open(sibling, "w"):
            pass
        mode = sibling.stat().st_mode & 0o777
        sibling.unlink()
        return mode

    old_umask = os.umask(0o022)  # under which a private 0o600 file differs from a plain one
    try:
        written = [write_text_atomic(tmp_path / "new" / "text.txt", "text\n")]
        written += run_preset("phase-eigenant", out_root=tmp_path)
        written += run_preset("eigenant-fig1", out_root=tmp_path, steps=200)
        for path in written:
            assert path.stat().st_mode & 0o777 == plain_mode(path.parent) == 0o644, path
    finally:
        os.umask(old_umask)
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["text.txt"]


def test_rewritten_artifacts_keep_their_mode(tmp_path):
    # as open(path, "w") does: rewriting truncates the file in place, mode and all
    written = run_preset("phase-eigenant", out_root=tmp_path)
    texts = {path: path.read_text() for path in written}
    for path in written:
        path.chmod(0o600)
    assert run_preset("phase-eigenant", out_root=tmp_path) == written
    for path in written:
        assert path.stat().st_mode & 0o7777 == 0o600, path
        assert path.read_text() == texts[path]
    single = tmp_path / "single.txt"
    write_text_atomic(single, "old\n")
    single.chmod(0o640)
    write_text_atomic(single, "new\n")
    assert single.stat().st_mode & 0o7777 == 0o640
    assert single.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phase-eigenant", "single.txt"]


def test_run_preset_rejects_steps_for_phase(tmp_path):
    with pytest.raises(ValueError, match="no step schedule"):
        run_preset("phase-maxant", out_root=tmp_path, steps=100)


def test_run_preset_refuses_a_step_count_that_is_not_an_integer(tmp_path):
    # the step count reaches require_steps as given, so nothing is written
    for steps in (2.5, True):
        message = re.escape(f"steps must be an integer, got {steps}") + "$"
        with pytest.raises(ValueError, match=message):
            run_preset("eigenant-fig1", out_root=tmp_path, steps=steps)
    assert not any(tmp_path.iterdir())
    report = run_preset("eigenant-fig1", out_root=tmp_path, steps=np.int64(3))[-1]
    assert "\nsteps = 3\n" in report.read_text()


def test_phase_preset_bundle(tmp_path):
    run_preset("phase-maxant", out_root=tmp_path)
    out_dir = tmp_path / "phase-maxant"
    grid_lines = (out_dir / "field-grid.csv").read_text().splitlines()
    assert grid_lines[0] == "x_1,x_2,dx_1,dx_2,speed,tie"
    assert len(grid_lines) == 1 + 21 * 21
    report = (out_dir / "report.txt").read_text()
    assert "clean = yes" in report
    assert "spurious_minima = 0" in report
    svg = (out_dir / "figure.svg").read_text()
    assert "<svg" in svg and "mu_1" in svg


def test_phase_grid_matches_vector_field():
    paths = PathSystem.from_lengths([1, 2.5])
    for phi in PhiKind:
        for g in GKind:
            model = ModelSpec(alpha=0.7, beta=1.3, gamma=2.0, phi_kind=phi, g_kind=g, paths=paths)
            grid = phase_grid(model, bounds=(0.1, 1.3), resolution=9)
            assert np.array_equal(grid.axis, np.linspace(0.1, 1.3, 9))
            for i, a in enumerate(grid.axis):
                for j, b in enumerate(grid.axis):
                    field = vector_field(model, np.array([a, b]))
                    assert grid.u[i, j] == field[0], (model.label, i, j)
                    assert grid.v[i, j] == field[1], (model.label, i, j)
                    assert grid.speed[i, j] == np.hypot(field[0], field[1])
                    # the kink of phi=max sits exactly on the diagonal
                    assert grid.tie[i, j] == (phi is PhiKind.MAX and i == j)


def test_phase_grid_sum_variant_has_no_kinks():
    model = get_preset("phase-eigenant").model
    grid = phase_grid(model, resolution=5)
    assert not grid.tie.any()
    # default bounds end at 1.5x the leading equilibrium scale
    assert grid.axis[-1] == pytest.approx(1.5 * model.beta * model.paths.d[0] / model.alpha)


def test_phase_grid_input_validation():
    model = get_preset("phase-eigenant").model
    with pytest.raises(ValueError, match="origin"):
        phase_grid(model, bounds=(0.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative quadrant"):
        phase_grid(model, bounds=(-0.5, 1.0))
    with pytest.raises(ValueError, match="lo < hi"):
        phase_grid(model, bounds=(1.0, 1.0))
    with pytest.raises(ValueError, match="resolution"):
        phase_grid(model, resolution=1)
    # bounds of any sequence type are named as a pair of plain floats
    with pytest.raises(ValueError, match=re.escape("bounds must be finite, got (0.01, inf)") + "$"):
        phase_grid(model, bounds=[np.float64(0.01), np.inf])
    with pytest.raises(ValueError, match="bounds must be finite"):
        phase_grid(model, bounds=(np.nan, 1.0))
    # the saturation overflows at the lowest node, which the error names
    with pytest.raises(ValueError, match=r"not finite at node \(1e-320, 1e-320\)"):
        phase_grid(model, bounds=(1e-320, 1.0))
    three = get_preset("eigenant-fig1").runs[0][1]
    with pytest.raises(ValueError, match="two-path"):
        phase_grid(three)


def test_phase_grid_resolution_must_be_an_integer():
    model = get_preset("phase-eigenant").model
    for resolution in (2.5, 21.0, True, "21"):
        with pytest.raises(ValueError) as info:
            phase_grid(model, resolution=resolution)
        assert str(info.value) == f"resolution must be an integer, got {resolution!r}"
    # numpy's integers are integers
    assert phase_grid(model, resolution=np.int64(3)).axis.size == 3


def test_spurious_scan_flags_false_equilibria():
    axis = np.linspace(0.1, 0.9, 9)
    speed = np.ones((9, 9))
    speed[4, 4] = 1e-12  # local minimum far from both equilibria
    grid = PhaseGrid(
        axis=axis,
        u=speed.copy(),
        v=np.zeros((9, 9)),
        speed=speed,
        tie=np.zeros((9, 9), dtype=bool),
    )
    model = get_preset("phase-eigenant").model
    clean, offending = spurious_equilibria_scan(grid, find_equilibria(model))
    assert not clean
    assert offending == [(4, 4)]

    near_equilibrium = speed.copy()
    near_equilibrium[4, 4] = 1.0
    near_equilibrium[8, 0] = 1e-12  # node (0.9, 0.1), one cell from (1.0, 0)-ish
    grid2 = PhaseGrid(
        axis=axis,
        u=near_equilibrium.copy(),
        v=np.zeros((9, 9)),
        speed=near_equilibrium,
        tie=np.zeros((9, 9), dtype=bool),
    )
    clean2, offending2 = spurious_equilibria_scan(grid2, find_equilibria(model))
    assert clean2 and offending2 == []


def reference_scan(grid, equilibria):
    """The scan node by node: a speed minimum below the tolerance, far from every equilibrium."""
    res = grid.axis.size
    cell = grid.axis[1] - grid.axis[0]
    offending = []
    for i in range(res):
        for j in range(res):
            s = grid.speed[i, j]
            if s >= SPURIOUS_SPEED_TOL:
                continue
            neighbors = [
                grid.speed[a, b]
                for a in range(max(i - 1, 0), min(i + 2, res))
                for b in range(max(j - 1, 0), min(j + 2, res))
                if (a, b) != (i, j)
            ]
            if any(nb < s for nb in neighbors):
                continue
            point = np.array([grid.axis[i], grid.axis[j]])
            near = any(
                abs(eq.point[0] - point[0]) <= cell and abs(eq.point[1] - point[1]) <= cell
                for eq in equilibria
            )
            if not near:
                offending.append((i, j))
    return (not offending, offending)


def speed_grid(axis, speed):
    zeros = np.zeros(speed.shape)
    return PhaseGrid(axis=axis, u=speed, v=zeros, speed=speed, tie=zeros.astype(bool))


def equilibrium_at(k, x, y):
    return Equilibrium(index=k, mu=0.0, point=np.array([x, y]), residual=0.0)


# few distinct levels, so that plateaus and ties with the tolerance are common
SPEED_LEVELS = (0.0, 1e-12, 3e-9, SPURIOUS_SPEED_TOL, 0.5, 1.0)
# equilibrium offsets from a node, in cells: on it, between nodes, on the
# one-cell boundary, just past it, and far off the grid
CELL_OFFSETS = (0.0, 0.5, 1.0, -1.0, 1.5, -2.5, 40.0)


@st.composite
def scan_cases(draw):
    size = draw(st.integers(2, 7))
    lo = draw(st.floats(0.01, 2.0))
    axis = np.linspace(lo, lo + draw(st.floats(0.1, 5.0)), size)
    cell = axis[1] - axis[0]
    nodes = size * size
    levels = draw(st.lists(st.sampled_from(SPEED_LEVELS), min_size=nodes, max_size=nodes))
    equilibria = []
    for k in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        dx, dy = draw(st.sampled_from(CELL_OFFSETS)), draw(st.sampled_from(CELL_OFFSETS))
        equilibria.append(equilibrium_at(k, axis[i] + dx * cell, axis[j] + dy * cell))
    return speed_grid(axis, np.array(levels).reshape(size, size)), equilibria


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_spurious_scan_matches_node_by_node_reference(case):
    grid, equilibria = case
    assert spurious_equilibria_scan(grid, equilibria) == reference_scan(grid, equilibria)


def test_spurious_scan_edge_corner_and_plateau_minima():
    axis = np.linspace(0.1, 0.6, 6)
    speed = np.ones((6, 6))
    speed[0, 0] = 0.0  # corner
    speed[0, 3] = 1e-12  # edge
    speed[3, 2] = speed[3, 3] = 1e-12  # a plateau: neither is strictly slower
    grid = speed_grid(axis, speed)
    expected = [(0, 0), (0, 3), (3, 2), (3, 3)]
    assert spurious_equilibria_scan(grid, []) == (False, expected)
    # an equilibrium within one cell of the corner, and one off the grid beside the edge
    near = [equilibrium_at(0, 0.15, 0.12), equilibrium_at(1, 0.05, 0.4)]
    assert spurious_equilibria_scan(grid, near) == (False, [(3, 2), (3, 3)])
    assert reference_scan(grid, near) == (False, [(3, 2), (3, 3)])


def test_both_phase_presets_scan_clean():
    phase = {name: preset for name, preset in PRESETS.items() if preset.kind == "phase"}
    assert list(phase) == ["phase-eigenant", "phase-maxant"]
    for name, preset in phase.items():
        grid = phase_grid(preset.model)
        clean, offending = spurious_equilibria_scan(grid, find_equilibria(preset.model))
        assert clean, f"{name}: {offending}"


def test_signum_preset_report_has_no_stability_labels(tmp_path):
    report = run_preset("signum-sum-fig3-gamma1", out_root=tmp_path, steps=300)[-1].read_text()
    assert "n/a (signum)" in report
    assert "no linearization" in report
    (label, model), = get_preset("signum-sum-fig3-gamma1").runs
    assert model.g_kind is GKind.SIGNUM


def test_trajectory_presets_registry_is_consistent():
    for name, preset in PRESETS.items():
        assert preset.name == name
        if preset.kind != "trajectory":
            continue
        assert preset.x0.shape == (preset.runs[0][1].n,)
        for _, model in preset.runs:
            assert model.n == preset.runs[0][1].n
