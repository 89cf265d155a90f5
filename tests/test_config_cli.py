"""Run-file parsing and command-line interface tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import antdyn
from antdyn import ConfigError, RunConfig, load_config, parse_config, render_config
from antdyn.cli import main
from antdyn.presets import PHASE_PRESETS

MINIMAL = """\
[model]
lengths = 1, 2, 3
"""

FULL = """\
[model]
lengths = 1, 2, 4
alpha = 0.5
beta = 1.5
gamma = 2.0
response = tanh
saturation = max

[run]
x0 = 0.3, 0.4, 0.5
dt = 0.01
steps = 500
scheme = rk4
positivity = clamp-epsilon

[outputs]
trajectory = out.csv
source_column = yes

[analysis]
window = 1.0, 9.5
threshold = 0.1
"""


# -- parsing ------------------------------------------------------------


def test_parse_minimal_fills_defaults():
    config = parse_config(MINIMAL)
    assert config.lengths == (1.0, 2.0, 3.0)
    assert config.alpha == 1.0 and config.beta == 1.0 and config.gamma == 1.0
    assert config.response == "identity" and config.saturation == "sum"
    assert config.x0 is None and config.scheme == "euler"
    assert config.dt == 0.02 and config.steps == 2000
    assert config.positivity == "reject"
    assert config.trajectory is None and config.source_column is False
    assert config.window is None and config.threshold == 0.05


def test_parse_full_and_render_round_trip():
    config = parse_config(FULL)
    assert config.response == "tanh" and config.saturation == "max"
    assert config.x0 == (0.3, 0.4, 0.5)
    assert config.window == (1.0, 9.5)
    assert config.source_column is True
    assert parse_config(render_config(config)) == config
    # a sparse config survives the round trip too
    sparse = parse_config(MINIMAL)
    assert parse_config(render_config(sparse)) == sparse


def test_model_and_initial_state_construction():
    config = parse_config(
        "[model]\nlengths = 2, 1\n\n[run]\nx0 = 0.3, 0.7\n"
    )
    model = config.model()
    assert np.allclose(model.paths.d, [1.0, 0.5])
    # x0 is given in user path order; the model state is weight-sorted
    assert np.allclose(config.initial_state(), [0.7, 0.3])
    assert np.allclose(parse_config(MINIMAL).initial_state(), [1.0, 1.0, 1.0])


def test_errors_are_aggregated():
    text = """\
[model]
lengths = 1, 2
alpha = many
response = cubic

[run]
scheme = magic
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    message = str(info.value)
    assert "alpha" in message
    assert "response" in message
    assert "scheme" in message


def test_semantic_errors_are_aggregated():
    # values parse individually, so the second stage sees all of them
    text = """\
[model]
lengths = 1, 2
alpha = -3

[run]
dt = 0

[analysis]
threshold = 1.5
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    message = str(info.value)
    assert "alpha" in message
    assert "dt" in message
    assert "threshold" in message


def test_structural_errors():
    with pytest.raises(ConfigError, match="missing required section"):
        parse_config("[run]\ndt = 0.1\n")
    with pytest.raises(ConfigError, match="lengths: required"):
        parse_config("[model]\nalpha = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
        parse_config(MINIMAL + "\n[misc]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown option 'omega'"):
        parse_config("[model]\nlengths = 1, 2\nomega = 3\n")
    with pytest.raises(ConfigError, match="already exists"):
        parse_config("[model]\nlengths = 1\nalpha = 1\nalpha = 2\n")
    with pytest.raises(ConfigError, match="line"):
        parse_config("lengths = 1, 2\n")


def test_value_errors():
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("[model]\nlengths = 1, 2\nalpha = many\n")
    with pytest.raises(ConfigError, match="finite"):
        parse_config("[model]\nlengths = 1, 2\nalpha = inf\n")
    with pytest.raises(ConfigError, match="comma-separated"):
        parse_config("[model]\nlengths =\n")
    with pytest.raises(ConfigError, match="exactly two"):
        parse_config(MINIMAL + "[analysis]\nwindow = 1, 2, 3\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(MINIMAL + "[run]\nsteps = 2.5\n")
    with pytest.raises(ConfigError, match="yes/no"):
        parse_config(MINIMAL + "[outputs]\nsource_column = maybe\n")


def test_semantic_errors():
    cases = [
        ("[model]\nlengths = 1, -2\n", "positive and finite"),
        ("[model]\nlengths = 1, 2\nbeta = 0\n", "beta"),
        (MINIMAL + "[run]\nx0 = 1, 2\n", "expected 3 entries"),
        (MINIMAL + "[run]\nx0 = 1, 0, 1\n", "must be positive"),
        (MINIMAL + "[run]\ndt = 0\n", "dt"),
        (MINIMAL + "[run]\nsteps = -5\n", "steps"),
        (MINIMAL + "[analysis]\nwindow = 5, 2\n", "strictly before"),
        (MINIMAL + "[analysis]\nthreshold = 1.5\n", "between 0 and 1"),
    ]
    for text, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)


def test_closed_form_schemes_need_the_solvable_variant():
    with pytest.raises(ConfigError, match="requires response=identity"):
        parse_config("[model]\nlengths = 1, 2\nsaturation = max\n\n[run]\nscheme = exact\n")
    bad = "[model]\nlengths = 1, 2\nresponse = tanh\n\n[run]\nscheme = asymptotic\n"
    with pytest.raises(ConfigError, match="asymptotic"):
        parse_config(bad)
    good = "[model]\nlengths = 1, 2\n\n[run]\nscheme = exact\n"
    assert parse_config(good).scheme == "exact"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")
    target = tmp_path / "run.ini"
    target.write_text(MINIMAL)
    assert load_config(target) == parse_config(MINIMAL, origin=str(target))


def test_render_config_formats():
    config = RunConfig(lengths=(1.0, 2.0), trajectory="t.csv", source_column=True)
    text = render_config(config)
    assert "lengths = 1.0, 2.0" in text
    assert "source_column = yes" in text
    assert "x0" not in text
    assert "window" not in text


# -- command line -------------------------------------------------------


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASIC_RUN = """\
[model]
lengths = 1, 2

[run]
x0 = 0.4, 0.8
dt = 0.05
steps = 60
"""


def test_cli_simulate_to_stdout(tmp_path, capsys):
    path = write_config(tmp_path, BASIC_RUN)
    assert main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "t,x_1,x_2,S"
    assert len(lines) == 62


def test_cli_simulate_to_file_and_source_column(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = BASIC_RUN + "\n[outputs]\ntrajectory = data/run.csv\nsource_column = yes\n"
    path = write_config(tmp_path, text)
    assert main(["simulate", str(path)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = (tmp_path / "data" / "run.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,S,source"
    assert lines[1].endswith(",euler")
    # -o overrides the configured path
    assert main(["simulate", str(path), "-o", str(tmp_path / "other.csv")]) == 0
    assert (tmp_path / "other.csv").exists()


def test_cli_equilibria(tmp_path, capsys):
    path = write_config(tmp_path, BASIC_RUN)
    assert main(["equilibria", str(path)]) == 0
    out = capsys.readouterr().out
    assert "locally-asymptotically-stable" in out
    assert "unstable" in out

    signum = write_config(tmp_path, "[model]\nlengths = 1, 2\nresponse = signum\n", name="s.ini")
    assert main(["equilibria", str(signum)]) == 0
    assert "n/a (signum)" in capsys.readouterr().out


def test_cli_rates_on_exact_samples(tmp_path, capsys):
    text = """\
[model]
lengths = 1, 2, 3

[run]
dt = 0.2
steps = 200
scheme = exact
"""
    path = write_config(tmp_path, text)
    assert main(["rates", str(path)]) == 0
    out = capsys.readouterr().out
    assert "theoretical_rate" in out
    assert "fit_window_scaled" in out


def test_cli_verify(tmp_path, capsys):
    text = """\
[model]
lengths = 1, 2
gamma = 5.0

[run]
x0 = 0.4, 0.8
dt = 0.02
steps = 1500
"""
    path = write_config(tmp_path, text)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "status = pass" in out
    assert "envelope_ok = yes" in out


def test_cli_reproduce_and_presets(tmp_path, capsys):
    assert main(["reproduce", "tied-shortest-fig5", "--out", str(tmp_path), "--steps", "250"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path / "tied-shortest-fig5" / "report.txt") in out
    assert (tmp_path / "tied-shortest-fig5" / "figure.svg").exists()

    assert main(["presets"]) == 0
    listing = capsys.readouterr().out
    assert "eigenant-fig1" in listing
    assert "(phase)" in listing

    assert main(["reproduce", "no-such-preset", "--out", str(tmp_path)]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_cli_phase(tmp_path, capsys):
    path = write_config(tmp_path, "[model]\nlengths = 1, 2\n")
    rc = main(["phase", str(path), "--out", str(tmp_path), "--resolution", "5"])
    assert rc == 0
    capsys.readouterr()
    out_dir = tmp_path / "phase-identity-sum"
    grid_lines = (out_dir / "field-grid.csv").read_text().splitlines()
    assert len(grid_lines) == 26
    assert (out_dir / "figure.svg").exists()


def test_cli_phase_matches_phase_preset(tmp_path, capsys):
    preset = PHASE_PRESETS["phase-eigenant"]
    model = preset.model
    path = write_config(
        tmp_path,
        f"[model]\nlengths = {', '.join(repr(v) for v in model.paths.lengths)}\n"
        f"alpha = {model.alpha!r}\nbeta = {model.beta!r}\ngamma = {model.gamma!r}\n"
        f"response = {model.g_kind.value}\nsaturation = {model.phi_kind.value}\n",
    )
    lo, hi = preset.bounds
    argv = ["--out", str(tmp_path), "--bounds", repr(lo), repr(hi)]
    assert main(["phase", str(path), *argv, "--resolution", str(preset.resolution)]) == 0
    assert main(["reproduce", preset.name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    from_cli = (tmp_path / f"phase-{model.label}" / "field-grid.csv").read_bytes()
    assert from_cli == (tmp_path / preset.name / "field-grid.csv").read_bytes()


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.ini")]) == 1
    assert "cannot read" in capsys.readouterr().err
    bad = write_config(tmp_path, "[model]\nlengths = 1, 2\nalpha = -1\n")
    assert main(["simulate", str(bad)]) == 1
    assert "alpha" in capsys.readouterr().err
    assert main([]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cli_numerical_failures_exit_2(tmp_path, capsys):
    blowup = write_config(
        tmp_path,
        """\
[model]
lengths = 1, 2
alpha = 5.0
beta = 0.01
gamma = 10.0

[run]
dt = 1.0
steps = 10
""",
        name="blowup.ini",
    )
    assert main(["simulate", str(blowup)]) == 2
    assert "numerical failure" in capsys.readouterr().err

    out_of_range = write_config(
        tmp_path,
        """\
[model]
lengths = 1, 2
alpha = 100.0
gamma = 10.0

[run]
dt = 2.0
steps = 5
scheme = exact
""",
        name="range.ini",
    )
    assert main(["simulate", str(out_of_range)]) == 2
    assert "asymptotic_state" in capsys.readouterr().err


def test_module_entry_point():
    # the child imports the same antdyn as this process, installed or not
    src = str(Path(antdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "antdyn", "presets"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "comparison-fig4" in proc.stdout
