"""Run-file parsing and command-line interface tests."""

import ast
import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import antdyn
import antdyn.closedform
from antdyn import (
    ConfigError,
    OracleRangeError,
    PathSystem,
    integrate,
    load_config,
    parse_config,
    sample_asymptotic,
    sample_exact,
    trajectory_to_csv,
)
from antdyn.cli import main
from antdyn.presets import get_preset

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
    assert config.window is None


def test_parse_full():
    config = parse_config(FULL)
    assert config.response == "tanh" and config.saturation == "max"
    assert config.x0 == (0.3, 0.4, 0.5)
    assert config.window == (1.0, 9.5)
    assert config.source_column is True


def test_model_and_initial_state_construction():
    config = parse_config(
        "[model]\nlengths = 2, 1\n\n[run]\nx0 = 0.3, 0.7\n"
    )
    model = config.model()
    assert np.allclose(model.paths.d, [1.0, 0.5])
    # x0 is given in user path order; the model state is weight-sorted
    assert np.allclose(config.initial_state(), [0.7, 0.3])
    assert np.allclose(parse_config(MINIMAL).initial_state(), [1.0, 1.0, 1.0])


def test_run_builds_its_path_system_once(tmp_path, monkeypatch):
    build = PathSystem.from_lengths
    calls = []

    def counting(lengths):
        calls.append(lengths)
        return build(lengths)

    monkeypatch.setattr(PathSystem, "from_lengths", counting)
    path = tmp_path / "run.ini"
    path.write_text(FULL)
    config = load_config(path)
    model, x0 = config.model(), config.initial_state()
    assert len(calls) == 1
    assert model.paths is config.paths
    assert np.allclose(x0, [0.3, 0.4, 0.5])
    # the cached system is no field: equality ignores it
    assert config == parse_config(FULL)


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
window = 5, 2
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    message = str(info.value)
    assert "alpha" in message
    assert "dt" in message
    assert "window" in message


def test_aggregated_error_text_lists_problems_in_file_then_field_order():
    text = """\
[misc]
foo = 1

[model]
alpha = many
omega = 3

[run]
steps = 2.5
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text, origin="bad.ini")
    assert str(info.value) == (
        "bad.ini:\n"
        "  unknown section [misc]\n"
        "  [model] unknown option 'omega'\n"
        "  [model] lengths: required option is missing\n"
        "  [model] alpha: expected a number, got 'many'\n"
        "  [run] steps: expected an integer, got '2.5'"
    )
    with pytest.raises(ConfigError) as info:
        parse_config("[run]\ndt = x\nscheme = magic\n", origin="bad.ini")
    assert str(info.value) == (
        "bad.ini:\n"
        "  missing required section [model]\n"
        "  [run] dt: expected a number, got 'x'\n"
        "  [run] scheme: expected one of euler, rk4, exact, asymptotic; got 'magic'"
    )
    # a run file has no defaults: configparser would copy these options into every section
    text = "[DEFAULT]\nalpha = 2\n[model]\nlengths = 1, 2\n[run]\ndt = 0.1\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text, origin="bad.ini")
    assert str(info.value) == "bad.ini:\n  unknown section [DEFAULT]"
    with pytest.raises(ConfigError) as info:
        parse_config("[DEFAULT]\nfoo = 2\n", origin="bad.ini")
    assert str(info.value) == (
        "bad.ini:\n  unknown section [DEFAULT]\n  missing required section [model]"
    )


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


def test_list_items_between_commas_must_be_numbers(tmp_path, capsys):
    cases = [
        ("[model]\nlengths = 1,,2\n", "[model] lengths", "'1,,2'"),
        (MINIMAL + "[run]\nx0 = 0.5, , 0.25,\n", "[run] x0", "'0.5, , 0.25,'"),
        (MINIMAL + "[analysis]\nwindow = 1, , 2\n", "[analysis] window", "'1, , 2'"),
    ]
    for text, option, raw in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text, origin="bad.ini")
        assert str(info.value) == (
            f"bad.ini:\n  {option}: expected a comma-separated list of numbers, got {raw}"
        )
    # an empty value keeps its message
    with pytest.raises(ConfigError) as info:
        parse_config("[model]\nlengths =\n", origin="bad.ini")
    assert str(info.value) == (
        "bad.ini:\n  [model] lengths: expected a comma-separated list of numbers"
    )
    # the CLI refuses the file, which it used to run as a model of two paths
    path = tmp_path / "run.ini"
    path.write_text("[model]\nlengths = 1,,2\n")
    assert main(["simulate", str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {path}:\n  [model] lengths: expected a comma-separated list of numbers, "
        "got '1,,2'\n",
    )


def test_semantic_errors():
    # each failure quotes the model layer's own message after its option
    cases = [
        (
            "[model]\nlengths = 1, -2\n",
            "[model] lengths: length 1 is -2.0; lengths must be finite and positive",
        ),
        (
            "[model]\nlengths = 1, 2\nbeta = 0\n",
            "[model] beta: beta must be finite and positive, got 0.0",
        ),
        (MINIMAL + "[run]\nx0 = 1, 2\n", "[run] x0: x0 has shape (2,), model has 3 paths"),
        (
            MINIMAL + "[run]\nx0 = 1, 0, 1\n",
            "[run] x0: component 1 of x0 is 0.0; must be strictly positive",
        ),
        (MINIMAL + "[run]\ndt = 0\n", "[run] dt: dt must be finite and positive, got 0.0"),
        (MINIMAL + "[run]\nsteps = -5\n", "[run] steps: steps must be nonnegative, got -5"),
        (
            MINIMAL + "[analysis]\nwindow = 5, 2\n",
            "[analysis] window: window must satisfy lo < hi, got (5.0, 2.0)",
        ),
        # a number that is not finite is refused by the same checks
        (
            "[model]\nlengths = 1, nan\n",
            "[model] lengths: length 1 is nan; lengths must be finite and positive",
        ),
        (
            "[model]\nlengths = 1, 2\nalpha = nan\n",
            "[model] alpha: alpha must be finite and positive, got nan",
        ),
        (
            MINIMAL + "[run]\nx0 = 1, inf, 1\n",
            "[run] x0: component 1 of x0 is inf; must be strictly positive",
        ),
        (MINIMAL + "[run]\ndt = -inf\n", "[run] dt: dt must be finite and positive, got -inf"),
        (
            MINIMAL + "[analysis]\nwindow = 0, inf\n",
            "[analysis] window: window must be finite, got (0.0, inf)",
        ),
    ]
    for text, message in cases:
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            parse_config(text)


def test_closed_form_schemes_need_the_solvable_variant():
    solvable = (
        "[run] scheme: the closed form and its expansion exist for the identity response "
        "with phi=sum only"
    )
    max_variant = "[model]\nlengths = 1, 2\nsaturation = max\n\n[run]\nscheme = exact\n"
    with pytest.raises(ConfigError, match=re.escape(f"{solvable}, got g=identity phi=max")):
        parse_config(max_variant)
    bad = "[model]\nlengths = 1, 2\nresponse = tanh\n\n[run]\nscheme = asymptotic\n"
    with pytest.raises(ConfigError, match=re.escape(f"{solvable}, got g=tanh phi=sum")):
        parse_config(bad)
    good = "[model]\nlengths = 1, 2\n\n[run]\nscheme = exact\n"
    assert parse_config(good).scheme == "exact"


def test_semantic_errors_quote_the_model_layer_all_at_once():
    text = """\
[model]
lengths = 3, 0, 1
alpha = 0
beta = -1
response = tanh

[run]
x0 = 0.5, 0.25, -1
dt = -0.5
steps = -3
scheme = exact

[analysis]
window = 5, 2
"""
    with pytest.raises(ConfigError) as info:
        parse_config(text, origin="bad.ini")
    # x0 is named in the order the user wrote it, not the weight-sorted one
    assert str(info.value).splitlines() == [
        "bad.ini:",
        "  [model] lengths: length 1 is 0.0; lengths must be finite and positive",
        "  [model] alpha: alpha must be finite and positive, got 0.0",
        "  [model] beta: beta must be finite and positive, got -1.0",
        "  [run] x0: component 2 of x0 is -1.0; must be strictly positive",
        "  [run] dt: dt must be finite and positive, got -0.5",
        "  [run] steps: steps must be nonnegative, got -3",
        "  [run] scheme: the closed form and its expansion exist for the identity response "
        "with phi=sum only, got g=tanh phi=sum",
        "  [analysis] window: window must satisfy lo < hi, got (5.0, 2.0)",
    ]
    with pytest.raises(ConfigError, match=r"\[analysis\] unknown option 'threshold'"):
        parse_config(MINIMAL + "[analysis]\nthreshold = 0.05\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")
    target = tmp_path / "run.ini"
    target.write_text(MINIMAL)
    assert load_config(target) == parse_config(MINIMAL, origin=str(target))


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


def test_cli_simulate_streams_to_a_stream_without_a_buffer(tmp_path):
    # stdout as the benchmark redirects it: text only, no .buffer; the
    # run's 12,004 cells take several passes of the CSV formatter
    run = BASIC_RUN.replace("steps = 60", "steps = 3000")
    for text, source in [(run, None), (run + "[outputs]\nsource_column = yes\n", "euler")]:
        path = write_config(tmp_path, text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(path)]) == 0
        config = load_config(path)
        traj = integrate(config.model(), config.initial_state(), config.dt, config.steps)
        assert out.getvalue() == trajectory_to_csv(traj, source=source)


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


def test_cli_simulate_asymptotic_writes_the_expansion(tmp_path):
    text = """\
[model]
lengths = 3, 1, 2, 1
alpha = 0.7
gamma = 1.5

[run]
x0 = 0.5, 0.2, 0.9, 0.4
dt = 0.5
steps = 40
scheme = asymptotic

[outputs]
source_column = yes
"""
    path = write_config(tmp_path, text)
    out = tmp_path / "asym.csv"
    assert main(["simulate", str(path), "-o", str(out)]) == 0
    config = load_config(path)
    expected = sample_asymptotic(config.model(), config.initial_state(), config.dt, config.steps)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3,x_4,S,source"
    rows = [line.split(",") for line in lines[1:]]
    assert {row[-1] for row in rows} == {"asymptotic"}
    # 17 significant digits round-trip, so the values must be equal, not close
    values = np.array([[float(v) for v in row[:-1]] for row in rows])
    assert np.array_equal(values[:, 0], expected.times)
    assert np.array_equal(values[:, 1:-1], expected.states)
    assert np.array_equal(values[:, -1], expected.sums)


def test_cli_simulate_asymptotic_warns_where_the_expansion_is_invalid(tmp_path, capsys):
    text = """\
[model]
lengths = 1, 2

[run]
x0 = 0.01, 10
dt = 0.5
steps = 40
scheme = asymptotic

[outputs]
source_column = yes
"""
    path = write_config(tmp_path, text)
    assert main(["simulate", str(path)]) == 0
    captured = capsys.readouterr()
    # the early rows are written as computed, so x_1 starts at -199
    assert captured.out.splitlines()[1] == "0,-199,100,-99,asymptotic"
    config = load_config(path)
    traj = sample_asymptotic(config.model(), config.initial_state(), config.dt, config.steps)
    invalid = np.flatnonzero(~traj.leading_valid)
    assert invalid.size == 31 and traj.leading_valid[31:].all()
    assert captured.err == (
        "warning: the asymptotic expansion is invalid on 31 of 41 rows "
        "(correction ratio above 0.1), the last at t = 15\n"
    )

    late = write_config(tmp_path, text.replace("x0 = 0.01, 10", "x0 = 0.9, 0.01"), name="late.ini")
    assert main(["simulate", str(late), "-o", str(tmp_path / "late.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_simulate_exact_has_no_source_column_by_default(tmp_path, capsys):
    path = write_config(tmp_path, BASIC_RUN + "scheme = exact\n")
    assert main(["simulate", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "t,x_1,x_2,S"


def test_cli_simulate_warns_with_the_clamped_step_and_component(tmp_path, capsys):
    text = """\
[model]
lengths = 10, 1

[run]
x0 = 1, 1
dt = 1.5
steps = 10
positivity = clamp-epsilon
"""
    path = write_config(tmp_path, text)
    assert main(["simulate", str(path), "-o", str(tmp_path / "out.csv")]) == 0
    # canonical order puts the shorter path first, so component 1 has length 10
    assert capsys.readouterr().err == "warning: clamped nonpositive component 1 at step 1\n"


def test_cli_phase_rejects_nonfinite_bounds(tmp_path, capsys):
    path = write_config(tmp_path, "[model]\nlengths = 1, 2\n")
    assert main(["phase", str(path), "--out", str(tmp_path), "--bounds", "0.01", "inf"]) == 1
    assert capsys.readouterr().err == "error: bounds must be finite, got (0.01, inf)\n"
    assert not (tmp_path / "phase-identity-sum").exists()


def test_cli_phase_writes_nothing_for_bounds_it_cannot_draw(tmp_path, capsys):
    # finite, ordered bounds one ulp apart: the grid samples, but no tick
    # step between them advances, so the figure cannot be drawn
    path = write_config(tmp_path, "[model]\nlengths = 1, 2\n")
    out = tmp_path / "out"
    argv = ["phase", str(path), "--out", str(out), "--bounds", "1", "1.0000000000000002"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x spans 1 to 1, which cannot be mapped to pixels\n"
    assert not out.exists()


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


ZERO_STEP_RUN = """\
[model]
lengths = 1, 2, 3

[run]
x0 = 1, 1e-9, 1e-9
dt = 0.01
steps = 0
"""


def test_cli_verify_does_not_pass_a_run_that_never_moved(tmp_path, capsys):
    # the start already meets every limit check, but one sample shows no settling
    path = write_config(tmp_path, ZERO_STEP_RUN)
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["status = inconclusive", "settled = no"]
    assert "sum_ok = True" in out and "zero_ok = True" in out


def test_cli_rates_rejects_the_empty_window_of_a_run_that_never_moved(tmp_path, capsys):
    path = write_config(tmp_path, ZERO_STEP_RUN)
    assert main(["rates", str(path)]) == 1
    assert capsys.readouterr().err == "error: the run spans no time, so there is nothing to fit\n"


def test_cli_rates_rejects_a_window_that_selects_no_sample(tmp_path, capsys):
    # the run is a single sample at t = 0, so a window past it has nothing to fit
    path = write_config(tmp_path, ZERO_STEP_RUN + "\n[analysis]\nwindow = 0.5, 1.0\n")
    assert main(["rates", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: window = 0.5, 1.0 selects no sample of the run, "
        "whose gain-scaled horizon is 0\n"
    )
    # a window past the end of a run that moves, and one between two samples
    moving = ZERO_STEP_RUN.replace("steps = 0", "steps = 30")
    for window, horizon in (("0.5, 1.0", "0.3"), ("0.101, 0.109", "0.3")):
        path = write_config(tmp_path, moving + f"\n[analysis]\nwindow = {window}\n")
        assert main(["rates", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"window = {window} selects no sample" in err
        assert err.endswith(f"horizon is {horizon}\n")
    path = write_config(tmp_path, moving + "\n[analysis]\nwindow = 0.1, 0.2\n")
    assert main(["rates", str(path)]) == 0
    # the default window is never rejected: a one-step run is reported as too short to fit
    path = write_config(tmp_path, ZERO_STEP_RUN.replace("steps = 0", "steps = 1"))
    assert main(["rates", str(path)]) == 0
    assert "nan" in capsys.readouterr().out


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
    preset = get_preset("phase-eigenant")
    model = preset.model
    path = write_config(
        tmp_path,
        f"[model]\nlengths = {', '.join(repr(v) for v in model.paths.lengths)}\n"
        f"alpha = {model.alpha!r}\nbeta = {model.beta!r}\ngamma = {model.gamma!r}\n"
        f"response = {model.g_kind.value}\nsaturation = {model.phi_kind.value}\n",
    )
    assert main(["phase", str(path), "--out", str(tmp_path)]) == 0
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
    assert main(["reproduce", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "antdyn presets" in help_text and "--list" not in help_text


def test_cli_main_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    # main builds its parser once per process, so an option, a default or an error
    # of one call must not reach the next
    assert antdyn.cli._build_parser() is antdyn.cli._build_parser()

    assert main(["reproduce", "phase-eigenant", "--steps", "3", "--out", str(tmp_path)]) == 1
    assert "has no step schedule to override" in capsys.readouterr().err
    assert main(["reproduce", "phase-eigenant", "--out", str(tmp_path)]) == 0
    capsys.readouterr()

    path = write_config(tmp_path, "[model]\nlengths = 1, 2\n")
    grid = tmp_path / "phase-identity-sum" / "field-grid.csv"
    argv = ["phase", str(path), "--out", str(tmp_path)]
    assert main(argv + ["--bounds", "0.2", "3", "--resolution", "5"]) == 0
    assert len(grid.read_text().splitlines()) == 1 + 5 * 5
    assert main(argv) == 0
    capsys.readouterr()
    rows = grid.read_text().splitlines()[1:]
    assert len(rows) == 21 * 21
    # the default bounds (0.01, 1.5 beta d_1 / alpha) with alpha = beta = d_1 = 1
    assert rows[0].startswith("0.01,0.01,") and rows[-1].startswith("1.5,1.5,")

    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: antdyn verify [-h] config\n")
    assert main(["verify", str(write_config(tmp_path, BASIC_RUN))]) == 0
    assert "status = " in capsys.readouterr().out


def test_cli_names_a_run_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"\xff\xfe[model]\nlengths = 1, 2\n")
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read config {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def assert_unwritable(err: str, target: Path, root: Path):
    """The error names the path asked for, and no temporary file is left."""
    assert err.startswith(f"error: cannot write {target}: ")
    assert ".tmp" not in err and "Traceback" not in err
    assert not list(root.rglob("*.tmp"))


def test_cli_names_stdout_when_it_cannot_be_written(tmp_path, capsys, monkeypatch):
    # stdout as a pipe whose reader has gone, as in `antdyn presets | head -c 0`
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    path = write_config(tmp_path, BASIC_RUN)
    for argv in (["simulate", str(path)], ["presets"], ["equilibria", str(path)]):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: cannot write <stdout>: Broken pipe\n"


def test_cli_simulate_onto_a_directory_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, BASIC_RUN)
    target = tmp_path / "d1"
    target.mkdir()
    assert main(["simulate", str(path), "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_unwritable(captured.err, target, tmp_path)
    assert "Is a directory" in captured.err
    assert target.is_dir() and not any(target.iterdir())


def test_cli_reproduce_under_a_file_exits_1(tmp_path, capsys):
    out_file = tmp_path / "not-a-dir"
    out_file.write_text("keep\n")
    assert main(["reproduce", "eigenant-fig1", "--out", str(out_file), "--steps", "5"]) == 1
    captured = capsys.readouterr()
    first = out_file / "eigenant-fig1" / "trajectory-identity-sum.csv"
    assert_unwritable(captured.err, first, tmp_path)
    assert "Not a directory" in captured.err
    assert out_file.read_text() == "keep\n"


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


def test_newton_budget_exhaustion_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    path = write_config(
        tmp_path,
        """\
[model]
lengths = 1, 2, 3

[run]
dt = 0.5
steps = 4
scheme = exact
""",
    )
    config = load_config(path)
    monkeypatch.setattr(antdyn.closedform, "NEWTON_BUDGET", 1)
    with pytest.raises(OracleRangeError, match="did not converge in 1 Newton"):
        sample_exact(config.model(), config.initial_state(), config.dt, config.steps)
    assert main(["simulate", str(path)]) == 2
    assert "did not converge" in capsys.readouterr().err


def run_child(*args):
    """Run a Python child process that imports the same antdyn as this one."""
    src = str(Path(antdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_child("-m", "antdyn", "presets")
    assert proc.returncode == 0
    assert "comparison-fig4" in proc.stdout


def test_cli_verify_of_a_run_that_ends_at_a_zero_sum_writes_nothing_to_stderr(tmp_path):
    # dt * gamma * g = -1 sends both components to exactly 0 on the first
    # step, where the run stays: it settled, at the wrong sum
    text = """\
[model]
lengths = 1, 2
beta = 1e-20
response = signum

[run]
x0 = 0.5, 0.5
dt = 1.0
steps = 100
"""
    proc = run_child("-m", "antdyn", "verify", str(write_config(tmp_path, text)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[:3] == ["status = fail", "settled = yes", "settle_change = 0"]


def test_public_names_are_the_package_globals_that_are_not_modules():
    names = antdyn.__all__
    assert names == sorted(set(names))
    public = {
        name
        for name, value in vars(antdyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
    assert len(names) == 57


def test_cli_import_loads_no_scipy():
    proc = run_child(
        "-c", "import sys, antdyn.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_test_module_imports_scipy():
    # the tier-1 leg installs only the test extra, so a test that imports scipy would fail
    # to collect there alone; code in strings, as the child's above, is not an import
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []
