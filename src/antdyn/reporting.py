"""Report and CSV rendering and atomic file output.

Reports are line oriented: ``key = value`` pairs, ``[section]`` headers
and pipe-separated tables with a header row.  The section renderers
(model, verification, rates, equilibria) and the rate and phase-grid
CSVs are shared by the presets and the CLI.  The format is stable and
carries no timestamps, so reruns of a deterministic computation produce
byte-identical files.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .models import GKind, ModelSpec
from .stability import equilibrium_report, find_equilibria

if TYPE_CHECKING:
    from .analysis import ConvergenceReport, RateReport
    from .presets import PhaseGrid

__all__ = [
    "OUT_ROOT_ENV",
    "compose_report",
    "equilibria_lines",
    "fmt_value",
    "grid_csv",
    "model_lines",
    "rates_csv",
    "rates_table",
    "render_kv",
    "render_table",
    "resolve_out_root",
    "verification_lines",
    "write_text_atomic",
]

OUT_ROOT_ENV = "ANTDYN_OUT"


def fmt_value(value) -> str:
    """Render one value for a report; floats get 12 significant digits."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_kv(pairs: Iterable[tuple[str, object]]) -> list[str]:
    """``key = value`` lines."""
    return [f"{key} = {fmt_value(value)}" for key, value in pairs]


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> list[str]:
    """Pipe-separated table with aligned columns."""
    rendered = [[fmt_value(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


def compose_report(sections: Sequence[tuple[Optional[str], Sequence[str]]]) -> str:
    """Join sections into the final report text.

    Each section is (name, lines); a None name emits the lines with no
    header, used for the preamble.
    """
    chunks = []
    for name, lines in sections:
        body = list(lines)
        if name is not None:
            body = [f"[{name}]"] + body
        chunks.append("\n".join(body))
    return "\n\n".join(chunks) + "\n"


def grid_csv(grid: PhaseGrid) -> str:
    """Phase-grid CSV: one row per node, ``x_1,x_2,dx_1,dx_2,speed,tie``."""
    buf = io.StringIO()
    buf.write("x_1,x_2,dx_1,dx_2,speed,tie\n")
    for i in range(grid.x1.size):
        for j in range(grid.x2.size):
            buf.write(
                f"{grid.x1[i]:.17g},{grid.x2[j]:.17g},{grid.u[i, j]:.17g},"
                f"{grid.v[i, j]:.17g},{grid.speed[i, j]:.17g},{int(grid.tie[i, j])}\n"
            )
    return buf.getvalue()


def rates_csv(report: RateReport) -> str:
    """Per-path fitted and theoretical rates as CSV, 17 significant digits."""
    buf = io.StringIO()
    buf.write(
        "path,d,tied,fitted_rate,theoretical_rate,relative_rate_error,"
        "fitted_limit,theoretical_limit,r_squared\n"
    )
    for c in report.components:
        rel = "" if c.relative_rate_error is None else f"{c.relative_rate_error:.17g}"
        buf.write(
            f"{c.index + 1},{c.d_value:.17g},{int(c.tied)},{c.fitted_rate:.17g},"
            f"{c.theoretical_rate:.17g},{rel},{c.fitted_limit:.17g},"
            f"{c.theoretical_limit:.17g},{c.r_squared:.17g}\n"
        )
    return buf.getvalue()


def model_lines(model: ModelSpec) -> list[str]:
    """Report section describing a model."""
    return render_kv(
        [
            ("response", model.g_kind.value),
            ("saturation", model.phi_kind.value),
            ("alpha", model.alpha),
            ("beta", model.beta),
            ("gamma", model.gamma),
            ("paths", model.n),
            ("weights", ", ".join(f"{v:.12g}" for v in model.paths.d)),
        ]
    )


def verification_lines(check: ConvergenceReport) -> list[str]:
    """Report section with the verdict and every check behind it."""
    lines = render_kv(
        [
            ("status", check.status.value),
            ("settled", check.settled),
            ("settle_change", check.settle_change),
            ("tied_paths", ", ".join(str(i + 1) for i in check.tied_indices)),
            ("tied_sum_final", check.tied_sum_final),
            ("expected_sum", check.expected_sum),
            ("sum_tolerance", check.sum_tolerance),
            ("sum_ok", check.sum_ok),
            ("max_other_component", check.max_other),
            ("zero_threshold", check.zero_threshold),
            ("zero_ok", check.zero_ok),
            ("envelope_ok", check.envelope_ok),
        ]
    )
    if check.envelope is not None:
        lines.extend(
            render_kv(
                [
                    ("envelope_allowance", check.envelope.allowance),
                    ("envelope_max_violation", check.envelope.max_violation),
                ]
            )
        )
    return lines


def rates_table(report: RateReport) -> list[str]:
    """Report table of fitted against theoretical rates, with the fit window."""
    headers = (
        "path",
        "d",
        "tied",
        "fitted_rate",
        "theoretical_rate",
        "rel_error",
        "fitted_limit",
        "theoretical_limit",
        "r_squared",
    )
    rows = [
        (
            c.index + 1,
            c.d_value,
            c.tied,
            c.fitted_rate,
            c.theoretical_rate,
            c.relative_rate_error,
            c.fitted_limit,
            c.theoretical_limit,
            c.r_squared,
        )
        for c in report.components
    ]
    for series in (report.tied_sum, report.total_sum):
        if series is not None:
            rows.append(
                (
                    series.label,
                    "",
                    "",
                    series.fitted_rate,
                    series.theoretical_rate,
                    series.relative_rate_error,
                    series.fitted_limit,
                    series.theoretical_limit,
                    series.r_squared,
                )
            )
    lines = render_table(headers, rows)
    lines.append(f"fit_window_scaled = {report.window[0]:.12g} .. {report.window[1]:.12g}")
    return lines


def equilibria_lines(model: ModelSpec) -> list[str]:
    """Report table of equilibria, with spectra and labels where they exist."""
    if model.g_kind is GKind.SIGNUM:
        rows = [(eq.index + 1, eq.mu, eq.residual, "n/a (signum)") for eq in find_equilibria(model)]
        lines = render_table(("path", "mu", "residual", "label"), rows)
        lines.append("note = signum response has no linearization; labels unavailable")
        return lines
    report = equilibrium_report(model)
    rows = []
    for eq, spectrum, label in zip(report.equilibria, report.spectra, report.labels):
        eig_text = "; ".join(f"{value:.6g}" for value in spectrum)
        rows.append((eq.index + 1, eq.mu, eq.residual, label.value, eig_text))
    lines = render_table(("path", "mu", "residual", "label", "eigenvalues"), rows)
    for note in report.notes:
        lines.append(f"note = {note}")
    return lines


def write_text_atomic(path, text: str) -> Path:
    """Write text via a temporary file and rename, creating parents."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def resolve_out_root(explicit=None) -> Path:
    """Output root: explicit argument, then $ANTDYN_OUT, then cwd."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(OUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path.cwd()
