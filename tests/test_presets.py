"""Preset registry, artifact bundles and phase-grid tests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from antdyn import (
    GKind,
    PhiKind,
    find_equilibria,
    get_preset,
    phase_grid,
    preset_names,
    run_preset,
    spurious_equilibria_scan,
    vector_field,
)
from antdyn.presets import PHASE_PRESETS, PRESETS, PhaseGrid

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


def test_run_preset_writes_expected_bundle(tmp_path):
    result = run_preset("eigenant-fig1", out_root=tmp_path, steps=400)
    assert result.out_dir == tmp_path / "eigenant-fig1"
    names = sorted(p.name for p in result.out_dir.iterdir())
    assert names == [
        "figure.svg",
        "rates-identity-sum.csv",
        "report.txt",
        "trajectory-identity-sum.csv",
    ]
    csv_lines = (result.out_dir / "trajectory-identity-sum.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x_1,x_2,x_3,x_4,x_5,x_6,x_7,x_8,x_9,x_10,S"
    assert len(csv_lines) == 402
    report = (result.out_dir / "report.txt").read_text()
    for section in ("[model:identity-sum]", "[verification:identity-sum]",
                    "[rates:identity-sum]", "[equilibria:identity-sum]"):
        assert section in report
    assert "status = pass" in report
    rates_lines = (result.out_dir / "rates-identity-sum.csv").read_text().splitlines()
    assert rates_lines[0].startswith("path,d,tied,fitted_rate")
    assert len(rates_lines) == 11


def test_run_preset_is_deterministic(tmp_path):
    first = run_preset("tied-shortest-fig5", out_root=tmp_path / "a", steps=250)
    second = run_preset("tied-shortest-fig5", out_root=tmp_path / "b", steps=250)
    for path_a in sorted(first.out_dir.iterdir()):
        path_b = second.out_dir / path_a.name
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
    result = run_preset("comparison-fig4", out_root=tmp_path, steps=600)
    assert len(result.trajectories) == 6
    assert result.ranking is not None
    labels = {entry.label for entry in result.ranking.entries}
    assert labels == {l for l, _ in get_preset("comparison-fig4").runs}
    assert all(entry.reached for entry in result.ranking.entries)
    report = (result.out_dir / "report.txt").read_text()
    assert "[ranking]" in report
    assert (result.out_dir / "figure.svg").read_text().count("polyline") >= 6


def test_run_preset_respects_out_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ANTDYN_OUT", str(tmp_path / "via-env"))
    result = run_preset("phase-eigenant")
    assert result.out_dir == tmp_path / "via-env" / "phase-eigenant"
    assert (result.out_dir / "field-grid.csv").exists()


def test_run_preset_rejects_steps_for_phase(tmp_path):
    with pytest.raises(ValueError, match="no step schedule"):
        run_preset("phase-maxant", out_root=tmp_path, steps=100)


def test_phase_preset_bundle(tmp_path):
    result = run_preset("phase-maxant", out_root=tmp_path)
    grid_lines = (result.out_dir / "field-grid.csv").read_text().splitlines()
    assert grid_lines[0] == "x_1,x_2,dx_1,dx_2,speed,tie"
    assert len(grid_lines) == 1 + 21 * 21
    report = (result.out_dir / "report.txt").read_text()
    assert "clean = yes" in report
    assert "spurious_minima = 0" in report
    svg = (result.out_dir / "figure.svg").read_text()
    assert "<svg" in svg and "mu_1" in svg


def test_phase_grid_matches_vector_field():
    model = PHASE_PRESETS["phase-maxant"].model
    grid = phase_grid(model, bounds=(0.1, 1.3), resolution=7)
    assert np.allclose(grid.x1, np.linspace(0.1, 1.3, 7))
    for i in (0, 3, 6):
        for j in (1, 4):
            field = vector_field(model, np.array([grid.x1[i], grid.x2[j]]))
            assert grid.u[i, j] == field[0]
            assert grid.v[i, j] == field[1]
    assert np.allclose(grid.speed, np.hypot(grid.u, grid.v))
    # the kink of phi=max sits exactly on the diagonal
    assert grid.tie.sum() == 7
    assert all(grid.tie[k, k] for k in range(7))


def test_phase_grid_sum_variant_has_no_kinks():
    model = PHASE_PRESETS["phase-eigenant"].model
    grid = phase_grid(model, resolution=5)
    assert not grid.tie.any()
    # default bounds end at 1.5x the leading equilibrium scale
    assert grid.x1[-1] == pytest.approx(1.5 * model.beta * model.paths.d[0] / model.alpha)


def test_phase_grid_input_validation():
    model = PHASE_PRESETS["phase-eigenant"].model
    with pytest.raises(ValueError, match="origin"):
        phase_grid(model, bounds=(0.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative quadrant"):
        phase_grid(model, bounds=(-0.5, 1.0))
    with pytest.raises(ValueError, match="lo < hi"):
        phase_grid(model, bounds=(1.0, 1.0))
    with pytest.raises(ValueError, match="resolution"):
        phase_grid(model, resolution=1)
    three = get_preset("eigenant-fig1").runs[0][1]
    with pytest.raises(ValueError, match="two-path"):
        phase_grid(three)


def test_spurious_scan_flags_false_equilibria():
    axis = np.linspace(0.1, 0.9, 9)
    speed = np.ones((9, 9))
    speed[4, 4] = 1e-12  # local minimum far from both equilibria
    grid = PhaseGrid(
        x1=axis,
        x2=axis,
        u=speed.copy(),
        v=np.zeros((9, 9)),
        speed=speed,
        tie=np.zeros((9, 9), dtype=bool),
    )
    model = PHASE_PRESETS["phase-eigenant"].model
    clean, offending = spurious_equilibria_scan(grid, find_equilibria(model))
    assert not clean
    assert offending == [(4, 4)]

    near_equilibrium = speed.copy()
    near_equilibrium[4, 4] = 1.0
    near_equilibrium[8, 0] = 1e-12  # node (0.9, 0.1), one cell from (1.0, 0)-ish
    grid2 = PhaseGrid(
        x1=axis,
        x2=axis,
        u=near_equilibrium.copy(),
        v=np.zeros((9, 9)),
        speed=near_equilibrium,
        tie=np.zeros((9, 9), dtype=bool),
    )
    clean2, offending2 = spurious_equilibria_scan(grid2, find_equilibria(model))
    assert clean2 and offending2 == []


def test_both_phase_presets_scan_clean():
    for name, preset in PHASE_PRESETS.items():
        grid = phase_grid(preset.model, bounds=preset.bounds, resolution=preset.resolution)
        clean, offending = spurious_equilibria_scan(grid, find_equilibria(preset.model))
        assert clean, f"{name}: {offending}"


def test_signum_preset_report_has_no_stability_labels(tmp_path):
    result = run_preset("signum-sum-fig3-gamma1", out_root=tmp_path, steps=300)
    report = (result.out_dir / "report.txt").read_text()
    assert "n/a (signum)" in report
    assert "no linearization" in report
    (label, model), = get_preset("signum-sum-fig3-gamma1").runs
    assert model.g_kind is GKind.SIGNUM


def test_trajectory_presets_registry_is_consistent():
    for name, preset in PRESETS.items():
        assert preset.name == name
        assert preset.x0.shape == (preset.runs[0][1].n,)
        for _, model in preset.runs:
            assert model.n == preset.runs[0][1].n
