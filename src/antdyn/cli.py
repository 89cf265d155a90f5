"""Command-line interface.

Subcommands
-----------
simulate    integrate a run file and write/print the trajectory CSV
equilibria  list equilibria with stability labels for a run file's model
rates       fit convergence rates on a freshly integrated run
verify      check the invariant-limit predictions on an integrated run
reproduce   run a named preset and write its artifact bundle
phase       sample a two-path direction field and write grid + figure

Exit codes: 0 success, 1 usage or configuration errors, 2 numerical
failures (blow-up, positivity loss, fit breakdown, out-of-range
closed-form evaluation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import FitError, rate_report, verify_convergence
from .closedform import OracleRangeError, sample_asymptotic, sample_exact
from .config import ConfigError, RunConfig, load_config
from .models import DomainError
from .presets import PHASE_PRESETS, phase_grid, preset_names, run_preset, write_phase_artifacts
from .reporting import equilibria_lines, rates_table, resolve_out_root, verification_lines
from .simulate import (
    IntegrationError,
    PositivityError,
    PositivityPolicy,
    Scheme,
    integrate,
    trajectory_to_csv,
    write_trajectory_csv,
)
from .stability import find_equilibria

__all__ = ["main"]

USAGE_ERRORS = (ConfigError, DomainError, ValueError)
NUMERIC_ERRORS = (IntegrationError, PositivityError, OracleRangeError, FitError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 2 for numerics
        self.print_usage(sys.stderr)
        raise SystemExit(self._result(message))

    @staticmethod
    def _result(message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="antdyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        return p

    p = add("simulate", "integrate a run file, write or print the trajectory CSV")
    p.add_argument("config", type=Path, help="run file (INI format)")
    p.add_argument("-o", "--output", type=Path, help="CSV path (default: [outputs] trajectory, else stdout)")

    p = add("equilibria", "list equilibria and stability labels for a run file's model")
    p.add_argument("config", type=Path)

    p = add("rates", "integrate a run file and fit convergence rates")
    p.add_argument("config", type=Path)

    p = add("verify", "integrate a run file and check the invariant-limit predictions")
    p.add_argument("config", type=Path)

    p = add("reproduce", "run a named preset and write its artifact bundle")
    p.add_argument("preset", help="preset name (see --list)")
    p.add_argument("--out", type=Path, help="output root (default: $ANTDYN_OUT, else cwd)")
    p.add_argument("--steps", type=int, help="override the preset step count")

    p = add("phase", "sample a two-path direction field, write grid CSV and figure")
    p.add_argument("config", type=Path)
    p.add_argument("--bounds", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--out", type=Path, help="output root (default: $ANTDYN_OUT, else cwd)")

    p = add("presets", "list the available preset names")
    return parser


def _integrate_from(config: RunConfig):
    model = config.model()
    x0 = config.initial_state()
    scheme = Scheme(config.scheme)
    if scheme in (Scheme.EXACT, Scheme.ASYMPTOTIC):
        sampler = sample_exact if scheme is Scheme.EXACT else sample_asymptotic
        return model, sampler(model, x0, config.dt, config.steps)
    traj = integrate(
        model,
        x0,
        config.dt,
        config.steps,
        scheme=scheme,
        positivity=PositivityPolicy(config.positivity),
    )
    return model, traj


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    model, traj = _integrate_from(config)
    source = traj.scheme.value if config.source_column else None
    target = args.output or (Path(config.trajectory) if config.trajectory else None)
    if target is None:
        sys.stdout.write(trajectory_to_csv(traj, source=source))
    else:
        write_trajectory_csv(traj, target, source=source)
        print(f"wrote {target}")
    if traj.positivity_violated:
        print(
            f"warning: clamped a nonpositive component at step {traj.first_violation}",
            file=sys.stderr,
        )
    return 0


def _cmd_equilibria(args) -> int:
    config = load_config(args.config)
    model = config.model()
    lines = equilibria_lines(model)
    print("\n".join(lines))
    return 0


def _cmd_rates(args) -> int:
    config = load_config(args.config)
    model, traj = _integrate_from(config)
    report = rate_report(model, traj, window=config.window)
    print("\n".join(rates_table(report)))
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    model, traj = _integrate_from(config)
    check = verify_convergence(traj, model)
    print("\n".join(verification_lines(check)))
    return 0


def _cmd_reproduce(args) -> int:
    result = run_preset(args.preset, out_root=args.out, steps=args.steps)
    for path in result.csv_paths + (result.svg_path, result.report_path):
        print(f"wrote {path}")
    return 0


def _cmd_phase(args) -> int:
    config = load_config(args.config)
    model = config.model()
    bounds = tuple(args.bounds) if args.bounds else None
    grid = phase_grid(model, bounds=bounds, resolution=args.resolution)
    out_dir = resolve_out_root(args.out) / f"phase-{model.label}"
    csv_path, svg_path = write_phase_artifacts(
        grid, find_equilibria(model), out_dir, title=f"phase-{model.label}"
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        kind = "phase" if name in PHASE_PRESETS else "trajectory"
        print(f"{name}  ({kind})")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "rates": _cmd_rates,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
    "phase": _cmd_phase,
    "presets": _cmd_presets,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
