"""Report and CSV rendering, atomic text output and the output root.

Reports are line oriented: ``key = value`` pairs, ``[section]`` headers
and pipe-separated tables with a header row.  The section renderers
(model, verification, rates, ranking, equilibria) and the rate and phase-grid
CSVs are shared by the presets and the CLI.  The format is stable and
carries no timestamps, so reruns of a deterministic computation produce
byte-identical files.  The number kernels and the atomic writer behind
them live in :mod:`antdyn._output`.
"""

from __future__ import annotations

import itertools
import operator
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from ._output import format_passes, write_atomic

if TYPE_CHECKING:
    from .analysis import ConvergenceReport, RateReport, VariantRanking
    from .models import ModelSpec
    from .presets import PhaseGrid
    from .stability import EquilibriumReport

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
    table = [list(headers), *([fmt_value(cell) for cell in row] for row in rows)]
    # a row shorter than the header leaves its last columns empty
    widths = [max(map(len, column)) for column in itertools.zip_longest(*table, fillvalue="")]
    return [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]


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
    """Phase-grid CSV: one row per node, ``x_1,x_2,dx_1,dx_2,speed,tie``.

    Nodes run ``x_1`` outer.  Each float is spelled exactly as ``"%.17g"``
    spells it, and ``tie`` is 0 or 1, as ``int`` spells it, by
    :func:`format_passes`.
    """
    columns = [
        np.repeat(grid.x1, grid.x2.size),
        np.tile(grid.x2, grid.x1.size),
        grid.u.ravel(),
        grid.v.ravel(),
        grid.speed.ravel(),
        grid.tie.ravel(),
    ]
    return "x_1,x_2,dx_1,dx_2,speed,tie\n" + "".join(format_passes(columns))


# The six rate columns of a component or series entry, in table order.
_RATE_COLUMNS = (
    "fitted_rate",
    "theoretical_rate",
    "relative_rate_error",
    "fitted_limit",
    "theoretical_limit",
    "r_squared",
)
_rate_cells = operator.attrgetter(*_RATE_COLUMNS)


def rates_csv(report: RateReport) -> str:
    """Per-path fitted and theoretical rates as CSV, 17 significant digits."""
    lines = [",".join(("path", "d", "tied", *_RATE_COLUMNS)) + "\n"]
    for c in report.components:
        cells = ("" if v is None else f"{v:.17g}" for v in _rate_cells(c))
        lines.append(f"{c.index + 1},{c.d_value:.17g},{int(c.tied)},{','.join(cells)}\n")
    return "".join(lines)


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
    # the table's header shortens the relative error's name
    names = ("rel_error" if name == "relative_rate_error" else name for name in _RATE_COLUMNS)
    rows = [(c.index + 1, c.d_value, c.tied, *_rate_cells(c)) for c in report.components]
    for series in (report.tied_sum, report.total_sum):
        if series is not None:
            rows.append((series.label, "", "", *_rate_cells(series)))
    lines = render_table(("path", "d", "tied", *names), rows)
    lines.append(f"fit_window_scaled = {report.window[0]:.12g} .. {report.window[1]:.12g}")
    return lines


def ranking_lines(ranking: VariantRanking) -> list[str]:
    """Report table of convergence-time ranks across runs, with the threshold."""
    rows = [
        (e.rank, e.label, e.tau_scaled, e.tau_time, e.limit, e.reached) for e in ranking.entries
    ]
    lines = render_table(("rank", "run", "tau_scaled", "tau_time", "limit", "reached"), rows)
    lines.append(f"threshold = {ranking.threshold:.12g}")
    return lines


def equilibria_lines(report: EquilibriumReport) -> list[str]:
    """Report table of equilibria, with spectra and labels where they exist, and the notes."""
    if report.labels is None:  # the signum response
        rows = [(eq.index + 1, eq.mu, eq.residual, "n/a (signum)") for eq in report.equilibria]
        lines = render_table(("path", "mu", "residual", "label"), rows)
    else:
        rows = [
            (eq.index + 1, eq.mu, eq.residual, label.value, "; ".join(f"{v:.6g}" for v in eigs))
            for eq, eigs, label in zip(report.equilibria, report.spectra, report.labels)
        ]
        lines = render_table(("path", "mu", "residual", "label", "eigenvalues"), rows)
    return lines + [f"note = {note}" for note in report.notes]


def write_text_atomic(path, text: str) -> Path:
    """Write text via a temporary file and rename, creating parents.

    This is :func:`antdyn._output.write_atomic` of one chunk: a new file
    gets 0o666 less the umask, an existing one keeps its mode, and a
    write that fails leaves no temporary file and raises ``OSError``
    naming ``path``.  Trajectory CSVs stream through the same writer a
    pass at a time, so their memory does not grow with the run.
    """
    return write_atomic(path, (text,))


def resolve_out_root(explicit=None) -> Path:
    """Output root: explicit argument, then $ANTDYN_OUT, then cwd."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(OUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path.cwd()
