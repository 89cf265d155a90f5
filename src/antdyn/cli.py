"""Command-line interface.

Subcommands
-----------
simulate    integrate a run file and write/print the trajectory CSV
equilibria  list equilibria with stability labels for a run file's model
rates       fit convergence rates on a freshly integrated run
verify      check the invariant-limit predictions on an integrated run
reproduce   run a named preset and write its artifact bundle
phase       sample a two-path direction field and write grid + figure

Exit codes: 0 success, 1 usage or configuration errors and output paths
that cannot be written, 2 numerical failures (blow-up, positivity loss,
fit breakdown, out-of-range closed-form evaluation).

``main(argv)`` may be called many times in one process. The parser is built
on the first call and reused, so the ``_cmd_*`` handlers are bound at that
point. Nothing patches them: a tracer wraps ``main`` and the library
functions, which the handlers look up at call time.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .analysis import FitError, rate_report, verify_convergence
from .closedform import CORRECTION_LIMIT, OracleRangeError, sample_asymptotic, sample_exact
from .config import RunConfig, load_config
from .presets import get_preset, phase_grid, preset_names, run_preset, write_phase_artifacts
from .reporting import equilibria_lines, rates_table, resolve_out_root, verification_lines
from .simulate import (
    IntegrationError,
    PositivityPolicy,
    Scheme,
    integrate,
    iter_trajectory_csv,
    write_trajectory_csv,
)
from .stability import equilibrium_report, find_equilibria

# Caught before ValueError, because OracleRangeError is also one.
NUMERIC_ERRORS = (IntegrationError, OracleRangeError, FitError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 2 for numerics
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="antdyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a run file, write or print the trajectory CSV")
    p.add_argument("config", type=Path, help="run file (INI format)")
    p.add_argument("-o", "--output", type=Path, help="CSV path (default: [outputs] trajectory, else stdout)")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser(
        "equilibria", help="list equilibria and stability labels for a run file's model"
    )
    p.add_argument("config", type=Path)
    p.set_defaults(run=_cmd_equilibria)

    p = sub.add_parser("rates", help="integrate a run file and fit convergence rates")
    p.add_argument("config", type=Path)
    p.set_defaults(run=_cmd_rates)

    p = sub.add_parser(
        "verify", help="integrate a run file and check the invariant-limit predictions"
    )
    p.add_argument("config", type=Path)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("reproduce", help="run a named preset and write its artifact bundle")
    p.add_argument("preset", help="preset name (list them with 'antdyn presets')")
    p.add_argument("--out", type=Path, help="output root (default: $ANTDYN_OUT, else cwd)")
    p.add_argument("--steps", type=int, help="override the preset step count")
    p.set_defaults(run=_cmd_reproduce)

    p = sub.add_parser("phase", help="sample a two-path direction field, write grid CSV and figure")
    p.add_argument("config", type=Path)
    p.add_argument("--bounds", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--out", type=Path, help="output root (default: $ANTDYN_OUT, else cwd)")
    p.set_defaults(run=_cmd_phase)

    p = sub.add_parser("presets", help="list the available preset names")
    p.set_defaults(run=_cmd_presets)
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
        sys.stdout.writelines(iter_trajectory_csv(traj, source))
    else:
        write_trajectory_csv(traj, target, source=source)
        print(f"wrote {target}")
    if traj.positivity_violated:
        step, component = traj.first_violation
        print(
            f"warning: clamped nonpositive component {component} at step {step}",
            file=sys.stderr,
        )
    if traj.leading_valid is not None and not traj.leading_valid.all():
        invalid = (~traj.leading_valid).nonzero()[0]
        print(
            f"warning: the asymptotic expansion is invalid on {invalid.size} of "
            f"{traj.times.size} rows (correction ratio above {CORRECTION_LIMIT:g}), "
            f"the last at t = {traj.times[invalid[-1]]:.12g}",
            file=sys.stderr,
        )
    return 0


def _cmd_equilibria(args) -> int:
    config = load_config(args.config)
    print("\n".join(equilibria_lines(equilibrium_report(config.model()))))
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
    for path in run_preset(args.preset, out_root=args.out, steps=args.steps):
        print(f"wrote {path}")
    return 0


def _cmd_phase(args) -> int:
    config = load_config(args.config)
    model = config.model()
    grid = phase_grid(model, bounds=args.bounds, resolution=args.resolution)
    out_dir = resolve_out_root(args.out) / f"phase-{model.label}"
    csv_path, svg_path = write_phase_artifacts(
        grid, find_equilibria(model), out_dir, title=f"phase-{model.label}"
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(f"{name}  ({get_preset(name).kind})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError, DomainError and every input check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path, or stdout, that cannot be written
        print(f"error: cannot write {exc.filename or '<stdout>'}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
