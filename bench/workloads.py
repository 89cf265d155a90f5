"""The benchmark's workloads: seeded input pools, operations and output checks.

A workload is a pool of inputs made from the seed, an operation that
runs one input through a public entry point of ``antdyn``, and a check
that judges the operation's output.  The program receives only the
generated inputs, never the seed.

A check returns a signature of the output, which the run compares with
the signature of the same input in the run's first round (outputs must
be deterministic), or raises :class:`OpFailure`.  A failure is either
``refused`` (the program raised or exited nonzero) or ``wrong`` (its
output failed the check).

Operations look up ``antdyn`` functions as module attributes at call
time, so that the traced run sees them through its wrappers.  The checks
use functions bound when this module is imported, so checking adds no
spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import antdyn
import antdyn.analysis
import antdyn.cli
import antdyn.closedform
from antdyn.closedform import asymptotic_state, sigma_coefficients
from antdyn.models import ModelSpec, PathSystem
from antdyn.presets import preset_names
from antdyn.simulate import check_sum_bounds

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_artifacts.json"


class OpFailure(Exception):
    """An operation failed; ``kind`` is ``refused`` or ``wrong``."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Item:
    """One generated input; ``label`` and ``spec`` identify it in failure lists."""

    label: str
    spec: str
    payload: object


@dataclass
class Workload:
    items: list
    operation: Callable[[object], object]
    check: Callable[[object, object], object]
    # Per-run state that a check fills in, such as artifact drift.
    notes: dict


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = antdyn.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _refused_if_nonzero(result) -> None:
    code, _, err = result
    if code != 0:
        raise OpFailure("refused", f"exit code {code}: {err.strip()}")


# ---------------------------------------------------------------------------
# reproduce

def _digests(directory: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def _reproduce(workdir: Path, seed: int) -> Workload:
    """``antdyn reproduce`` over every preset, in registry order.

    What a reader of the paper runs, and the only workload where CSV and
    SVG rendering and file writes show.  The seed does not change it.
    Drift from the stored digests is recorded in ``notes``, not failed:
    a change may alter an artifact on purpose.
    """
    out_root = workdir / "artifacts"
    golden = json.loads(GOLDEN_PATH.read_text())
    items = [Item(label=name, spec=f"reproduce {name}", payload=name) for name in preset_names()]

    def operation(name):
        return _run_cli(["reproduce", name, "--out", str(out_root)])

    def check(name, result):
        _refused_if_nonzero(result)
        digests = _digests(out_root / name)
        if not digests:
            raise OpFailure("wrong", "no artifacts written")
        expected = {k.split("/", 1)[1]: v for k, v in golden.items() if k.split("/", 1)[0] == name}
        changed = {
            f"{name}/{f}" for f in expected.keys() | digests.keys()
            if expected.get(f) != digests.get(f)
        }
        workload.notes.setdefault("artifacts_changed", {})[name] = sorted(changed)
        return digests

    workload = Workload(items, operation, check, {})
    return workload


# ---------------------------------------------------------------------------
# verify-sweep

VERIFY_POOL = 60
STEPS = (200, 2000)
VARIANTS = [(g, p) for g in ("identity", "tanh", "signum") for p in ("sum", "max")]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _numbers(values) -> str:
    return ", ".join(repr(v) for v in values)


def _verify_sweep(workdir: Path, seed: int) -> Workload:
    """``antdyn verify`` over seeded run files.

    The integrator kernel with no rendering, writes or closed form:
    every response/saturation variant, n from 2 to 32, about a quarter
    RK4, which uses the kernel differently from the presets' n=10 Euler.
    """
    rng = random.Random(f"verify-sweep:{seed}")
    pool_dir = workdir / "runs"
    pool_dir.mkdir(parents=True, exist_ok=True)
    # A quarter of the pool runs RK4.  Step counts are stratified within
    # each scheme, so that the pool's total work, and with it the
    # throughput, varies little from seed to seed.
    rk4 = set(rng.sample(range(VERIFY_POOL), VERIFY_POOL // 4))
    steps_of = {}
    for group in (sorted(rk4), sorted(set(range(VERIFY_POOL)) - rk4)):
        strata = rng.sample(range(len(group)), len(group))
        for index, stratum in zip(group, strata):
            position = (stratum + rng.random()) / len(group)
            steps_of[index] = STEPS[0] + int((STEPS[1] - STEPS[0]) * position)
    items = []
    for index in range(VERIFY_POOL):
        response, saturation = VARIANTS[index % len(VARIANTS)]
        n = rng.randint(2, 32)
        lengths = [round(rng.uniform(1.0, 10.0), 3) for _ in range(n)]
        x0 = [round(rng.uniform(0.1, 1.0), 3) for _ in range(n)]
        alpha = round(_log_uniform(rng, 0.1, 1.0), 4)
        beta = round(_log_uniform(rng, 0.1, 1.0), 4)
        gamma = round(_log_uniform(rng, 0.5, 10.0), 4)
        # Euler keeps every component positive when dt*gamma*sup(-g) < 1,
        # with sup(-g) taken over a >= -alpha; draw dt as a share of that
        # bound, spanning the presets' 0.02..0.2.
        sup = {"identity": alpha, "tanh": math.tanh(alpha), "signum": 1.0}[response]
        share = _log_uniform(rng, 0.01, 0.5)
        dt = float(f"{share / (gamma * sup):.4g}")
        steps = steps_of[index]
        scheme = "rk4" if index in rk4 else "euler"
        text = (
            "[model]\n"
            f"lengths = {_numbers(lengths)}\n"
            f"alpha = {alpha!r}\nbeta = {beta!r}\ngamma = {gamma!r}\n"
            f"response = {response}\nsaturation = {saturation}\n\n"
            "[run]\n"
            f"x0 = {_numbers(x0)}\n"
            f"dt = {dt!r}\nsteps = {steps}\nscheme = {scheme}\n"
        )
        path = pool_dir / f"run-{index:03d}.ini"
        path.write_text(text)
        spec = (
            f"{response}-{saturation} n={n} {scheme} dt={dt!r} steps={steps} "
            f"dt_share_of_bound={share:.3g} alpha={alpha!r} beta={beta!r} gamma={gamma!r}"
        )
        items.append(Item(label=path.name, spec=spec, payload=str(path)))

    def operation(path):
        return _run_cli(["verify", path])

    def check(path, result):
        _refused_if_nonzero(result)
        stdout = result[1]
        status = [line for line in stdout.splitlines() if line.startswith("status = ")]
        if len(status) != 1 or status[0][9:] not in ("pass", "fail", "inconclusive"):
            raise OpFailure("wrong", "report has no verdict line")
        return stdout

    return Workload(items, operation, check, {})


# ---------------------------------------------------------------------------
# oracle

ORACLE_POOL = 24
ORACLE_SAMPLES = 100
ORACLE_HORIZON = 60.0  # gain-scaled
# Relative floor for comparing doubles that should agree exactly in
# theory; the Newton solve is accurate to about 1e-12 on F.
ORACLE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class OracleInput:
    model: ModelSpec
    x0: np.ndarray
    dt: float


def _first_order_terms(model: ModelSpec, x0, tau: float) -> np.ndarray:
    """First-order terms of every non-leading weight group at ``tau``.

    The leading component is ``x0 lead (1 - sum_k delta_k + O(delta^2))``
    with ``delta_k = (sigma_k / sigma_1) lead^(d'_k/d'_1 - 1)
    exp(-alpha (1 - d'_k/d'_1) tau)``.  The expansion under test keeps
    ``delta_2``, its ``correction_ratio``, so its error is bounded by the
    sum of all terms once they are small.
    """
    sigma = sigma_coefficients(model, x0).sigma
    d = model.paths.d_distinct
    lead = 1.0 / (model.alpha * sigma[0])
    e = d[1:] / d[0]
    return (sigma[1:] / sigma[0]) * lead ** (e - 1.0) * np.exp(-model.alpha * (1.0 - e) * tau)


def _oracle(workdir: Path, seed: int) -> Workload:
    """Closed form, rate fit and asymptotic expansion of seeded systems.

    No integrator runs here; the time goes to per-sample Newton solves.
    """
    rng = random.Random(f"oracle:{seed}")
    items = []
    for index in range(ORACLE_POOL):
        n = rng.randint(2, 10)
        # weights spread over a decade
        lengths = [_log_uniform(rng, 1.0, 10.0) for _ in range(n)]
        x0 = [rng.uniform(0.1, 1.0) for _ in range(n)]
        alpha = _log_uniform(rng, 0.2, 2.0)
        beta = _log_uniform(rng, 0.2, 2.0)
        gamma = _log_uniform(rng, 0.5, 10.0)
        paths = PathSystem.from_lengths(lengths)
        model = ModelSpec(alpha, beta, gamma, "sum", "identity", paths)
        dt = ORACLE_HORIZON / (ORACLE_SAMPLES * gamma)
        payload = OracleInput(model, paths.to_canonical(np.array(x0)), dt)
        spec = (
            f"n={n} alpha={alpha:.6g} beta={beta:.6g} gamma={gamma:.6g} "
            f"lengths={_numbers(round(v, 6) for v in lengths)}"
        )
        items.append(Item(label=f"system-{index:02d}", spec=spec, payload=payload))

    def operation(inp):
        exact = antdyn.closedform.sample_exact(inp.model, inp.x0, inp.dt, ORACLE_SAMPLES)
        report = antdyn.analysis.rate_report(inp.model, exact)
        asym = antdyn.closedform.sample_asymptotic(inp.model, inp.x0, inp.dt, ORACLE_SAMPLES)
        return exact, report, asym

    def check(inp, result):
        exact, report, asym = result
        model = inp.model
        scale = model.beta * model.paths.d[0] / model.alpha
        if not check_sum_bounds(exact, model).within:
            raise OpFailure("wrong", "exact sums leave the sum envelope")
        # sum_i x_i / r_i = exp(-alpha tau) F(u) is pinned by the target
        # of the Newton solve: exp(-alpha tau) F(0) + (1 - exp(-alpha tau)) / alpha
        tau = model.gamma * exact.times
        decay = np.exp(-model.alpha * tau)
        rates = model.beta * model.paths.d
        target = decay * np.sum(inp.x0 / rates) + (1.0 - decay) / model.alpha
        residual = np.max(np.abs(exact.states @ (1.0 / rates) - target) / target)
        if not residual <= ORACLE_RTOL:
            raise OpFailure("wrong", f"exact states miss F(u) = target by {residual:.3g}")
        if len(report.components) != model.n:
            raise OpFailure("wrong", "rate report does not cover every path")
        sigma = sigma_coefficients(model, inp.x0)
        final = asymptotic_state(sigma, model, inp.x0, float(exact.times[-1]))
        if final.leading_valid:
            gap = float(np.max(np.abs(exact.states[-1] - asym.states[-1])))
            terms = _first_order_terms(model, inp.x0, float(tau[-1]))
            bound = scale * (float(np.sum(terms)) + ORACLE_RTOL)
            if not gap <= bound:
                raise OpFailure(
                    "wrong", f"asymptotic and exact final states differ by {gap:.3g} > {bound:.3g}"
                )
        return hashlib.sha256(exact.states.tobytes() + asym.states.tobytes()).hexdigest()

    return Workload(items, operation, check, {})


BUILDERS = {"reproduce": _reproduce, "verify-sweep": _verify_sweep, "oracle": _oracle}


def build(name: str, seed: int, workdir) -> Workload:
    """Generate the named workload's inputs under ``workdir``."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](workdir, seed)
