"""Report and CSV rendering and atomic file output.

Reports are line oriented: ``key = value`` pairs, ``[section]`` headers
and pipe-separated tables with a header row.  The section renderers
(model, verification, rates, ranking, equilibria) and the rate and phase-grid
CSVs are shared by the presets and the CLI.  The format is stable and
carries no timestamps, so reruns of a deterministic computation produce
byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from .models import GKind, ModelSpec
from .stability import equilibrium_report, find_equilibria

if TYPE_CHECKING:
    from .analysis import ConvergenceReport, RateReport, VariantRanking
    from .presets import PhaseGrid

__all__ = [
    "OUT_ROOT_ENV",
    "compose_report",
    "equilibria_lines",
    "fmt_value",
    "grid_csv",
    "model_lines",
    "ranking_lines",
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


# Cells per pass of the block formatter.  A pass allocates about 306 B a
# cell at its peak (0.94 MB at 3,072 cells, by tracemalloc), two thirds of
# it the 200 B gather index; 2,048-cell passes ran 5-8 % slower.
_FMT_CELLS = 3072
# Magnitudes the formatter spells itself; the rest go to "%.17g".  Their
# decimal exponents, estimated from log10, lie in [_E_MIN, -_E_MIN).
_FMT_RANGE = (1e-270, 1e270)
_E_MIN = -271
# A scaled cell whose fraction lies this close to one half is a tie, or
# too near one to decide in double-double arithmetic.
_FMT_TIE = 1e-6
# Source columns of one cell: the three exponent digits, the 17 digits,
# then "0", ".", "e", "+", "-", a NUL byte and the separator.
_SRC_EXP, _SRC_DIGIT = 0, 3
_SRC_ZERO, _SRC_DOT, _SRC_E, _SRC_PLUS, _SRC_MINUS, _SRC_NUL, _SRC_SEP = range(20, 27)
_SRC_WIDTH = 27
# Widest cell with its separator: "-1.2345678901234567e-270,".
_FMT_WIDTH = 25


def _split(x):
    """Dekker's split of doubles into 26-bit halves that sum to them exactly."""
    c = x * 134217729.0  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


@functools.cache
def _format_tables():
    """Tables of the block formatter, built on first use.

    - ``hi, hi_high, hi_low, lo``: for each decimal exponent ``E`` in
      [_E_MIN, -_E_MIN), ``10**(16 - E) = hi + lo`` to about 106 bits, each
      part correctly rounded from exact integers, and ``hi`` split into
      ``hi_high + hi_low``;
    - ``digits``: the four ASCII digits of 0..9999 as one ``uint32``;
    - ``layout``: for each (sign, form, significant digits), the source
      columns (``_SRC_*``) that spell the cell and its separator, padded
      with the NUL column.  The form is ``E + 4`` for fixed notation
      (-4 <= E <= 16), else one of four exponent notations: positive or
      negative ``E``, two or three exponent digits;
    - ``key``: the layout row of (sign bit, E) with one significant digit.
    """
    hi, lo = [], []
    for e in range(_E_MIN, -_E_MIN):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        # int true division rounds correctly; a / b is hi exactly
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    pow10 = (hi, *_split(hi), np.array(lo))

    ascii4 = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    digits = ascii4.astype(np.uint8).view(np.uint32).ravel()

    def spell(neg, form, k):
        d = [_SRC_DIGIT + j for j in range(17)]
        cols = [_SRC_MINUS] if neg else []
        if form <= 20:  # fixed notation, E = form - 4
            x = form - 4
            if x < 0:
                cols += [_SRC_ZERO, _SRC_DOT] + [_SRC_ZERO] * (-x - 1) + d[:k]
            else:
                cols += d[: x + 1] + ([_SRC_DOT] + d[x + 1 : k] if k > x + 1 else [])
        else:
            cols += d[:1] + ([_SRC_DOT] + d[1:k] if k > 1 else [])
            cols += [_SRC_E, _SRC_PLUS if form < 23 else _SRC_MINUS]
            cols += [_SRC_EXP + j for j in (range(1, 3) if form in (21, 23) else range(3))]
        cols.append(_SRC_SEP)
        return cols + [_SRC_NUL] * (_FMT_WIDTH - len(cols))

    layout = np.array(
        [spell(*row) for row in itertools.product((0, 1), range(25), range(1, 18))], np.intp
    )
    e = np.arange(_E_MIN, -_E_MIN)
    form = np.select([e > 99, e >= 17, e >= -4, e > -100], [22, 21, e + 4, 23], 24)
    # layout rows run (sign, form, significant digits) with 25 forms and 17 counts
    key = np.stack([form, 25 + form]) * 17
    return pow10, digits, layout, key


def _spell_exactly(value, sep) -> bytes:
    """One cell as ``"%.17g"`` spells it, then its separator: the formatter's fallback."""
    return b"%.17g%c" % (value, sep)


def _format_cells(values, sep) -> bytes:
    """Spell flat cells as ``"%.17g"`` does, each followed by its separator byte."""
    pow10, digits, layout, key = _format_tables()
    m = values.size
    mag = np.abs(values)
    zero = mag == 0.0
    ok = (mag >= _FMT_RANGE[0]) & (mag < _FMT_RANGE[1])
    mag[~ok] = 1.0  # a stand-in: zeros are spelled as a one, the rest by "%.17g" below
    e = np.floor(np.log10(mag)).astype(np.intp)
    row = e - _E_MIN
    hi, hi_high, hi_low, lo = (part.take(row) for part in pow10)
    # mag * 10**(16 - e) = top + rest, where mag * hi - top is exact (Dekker)
    top = mag * hi
    m_high, m_low = _split(mag)
    rest = ((m_high * hi_high - top) + m_high * hi_low + m_low * hi_high) + m_low * hi_low
    rest += mag * lo
    whole = np.floor(rest)
    frac = rest - whole
    d = top.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    # Undecided: a tie or near tie, an estimate of e one too high (the
    # unrounded value is below 1e16) or one too low (d rounds to 1e17),
    # and a nonzero cell out of range.
    bad = (np.abs(frac - 0.5) < _FMT_TIE) | ((top - 1e16) + rest < 0.0) | (d >= 10**17)
    bad |= ~(ok | zero)
    d[bad] = 10**16
    lead, d = np.divmod(d, 10**16)
    high, low = np.divmod(d, 10**8)
    chunks = np.empty((m, 5), np.int32)
    chunks[:, 0] = np.abs(e) * 10 + lead
    chunks[:, 1], chunks[:, 2] = np.divmod(high.astype(np.int32), 10**4)
    chunks[:, 3], chunks[:, 4] = np.divmod(low.astype(np.int32), 10**4)
    src = np.empty((m, _SRC_WIDTH), np.uint8)
    src[:, :_SRC_ZERO] = digits.take(chunks).view(np.uint8).reshape(m, _SRC_ZERO)
    src[:, _SRC_ZERO:_SRC_SEP] = np.frombuffer(b"0.e+-\0", np.uint8)
    src[:, _SRC_SEP] = sep
    # the first digit is nonzero, so argmax counts the trailing zeros
    trailing = np.argmax(src[:, _SRC_ZERO - 1 : _SRC_DIGIT - 1 : -1] != ord("0"), axis=1)
    # a zero, spelled so far as the one of its stand-in, becomes "0" or "-0"
    src[zero, _SRC_DIGIT] = ord("0")
    # free the scaling temporaries before the gather, which sets the peak
    del mag, zero, ok, e, hi, hi_high, hi_low, lo, top, m_high, m_low, rest, whole, frac
    del d, lead, high, low, chunks
    cols = layout.take(key[np.signbit(values).astype(np.intp), row] + (16 - trailing), axis=0)
    cols += np.arange(0, m * _SRC_WIDTH, _SRC_WIDTH)[:, None]
    out = src.ravel().take(cols)
    del cols, src
    for i in np.flatnonzero(bad).tolist():
        text = _spell_exactly(values[i], sep[i])
        out[i] = np.frombuffer(text.ljust(_FMT_WIDTH, b"\0"), np.uint8)
    return out.tobytes().translate(None, b"\0")


def _format_passes(columns, end="\n") -> Iterator[str]:
    """Yield float columns as CSV rows, a pass of whole rows at a time.

    ``columns`` are 1-d or 2-d float arrays with one row per CSV row,
    laid side by side.  Cells are joined by ``,`` and each row is ended
    by ``end``; each cell is spelled exactly as ``"%.17g"`` spells it.
    Each cell is scaled to 17 integer digits in double-double arithmetic
    (Dekker's product against a table of powers of ten built from exact
    integers), rounded, and spelled through a 4-digit table and one
    layout table.  A cell that this cannot decide with margin is spelled
    by ``"%.17g"`` itself, CPython's correctly rounded conversion:
    non-finite values, nonzero magnitudes outside [1e-270, 1e270),
    scaled values within 1e-6 of a rounding tie (exact ties round
    half-even there), and cells whose decimal exponent estimate was one
    off.  Zeros are spelled ``0`` and ``-0`` in the vectorized path.
    A pass holds at most ``_FMT_CELLS`` cells (or one row), so the
    memory of a pass does not grow with the number of rows.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = len(columns[0])
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    step = max(1, _FMT_CELLS // width)
    sep = np.tile(np.frombuffer(b"," * (width - 1) + b"\n", np.uint8), min(step, rows))
    for start in range(0, rows, step):
        part = np.column_stack([c[start : start + step] for c in columns]).ravel()
        text = _format_cells(part, sep[: part.size]).decode("ascii")
        yield text if end == "\n" else text.replace("\n", end)


def grid_csv(grid: PhaseGrid) -> str:
    """Phase-grid CSV: one row per node, ``x_1,x_2,dx_1,dx_2,speed,tie``.

    Nodes run ``x_1`` outer.  Each float is spelled exactly as ``"%.17g"``
    spells it, and ``tie`` is 0 or 1, as ``int`` spells it, by
    :func:`_format_passes`.
    """
    columns = [
        np.repeat(grid.x1, grid.x2.size),
        np.tile(grid.x2, grid.x1.size),
        grid.u.ravel(),
        grid.v.ravel(),
        grid.speed.ravel(),
        grid.tie.ravel(),
    ]
    return "x_1,x_2,dx_1,dx_2,speed,tie\n" + "".join(_format_passes(columns))


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
    """Write text via a temporary file and rename, creating parents.

    The file gets the mode ``open(path, "w")`` gives it: an existing
    file keeps its mode, and a new one gets 0o666 less the umask, not the
    0o600 of ``tempfile.mkstemp``.  A write that fails leaves no
    temporary file and raises ``OSError`` naming ``path``, not the
    temporary file.  Trajectory CSVs stream through the same writer a
    pass at a time, so their memory does not grow with the run.
    """
    return _write_atomic(path, (text,))


def _write_atomic(path, chunks: Iterable[str]) -> Path:
    """Write ``chunks`` in turn as :func:`write_text_atomic` writes its text.

    The target is replaced only once every chunk is written; an error
    from the chunk source leaves the old target as it was and no
    temporary file.
    """
    target = Path(path)
    tmp_name = target.parent / f".{target.name}.{os.urandom(6).hex()}.tmp"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                try:
                    os.fchmod(fd, os.stat(target).st_mode & 0o7777)
                except FileNotFoundError:
                    pass
                handle.writelines(chunks)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
    return target


def resolve_out_root(explicit=None) -> Path:
    """Output root: explicit argument, then $ANTDYN_OUT, then cwd."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(OUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path.cwd()
