"""Byte-exact number spelling and atomic file output.

Two kernels spell floats exactly as CPython's ``%`` formatting does, a
block of cells at a time through numpy digit tables:
:func:`format_passes` spells the CSV cells as ``"%.17g"`` does, and
:func:`format_fixed` the SVG pixel coordinates as ``"%.2f"`` does.
:func:`write_atomic` writes a file through a temporary file and a
rename.  The renderers in ``reporting``, ``simulate`` and ``svgfig``
call these; this module imports nothing from the package.
"""

from __future__ import annotations

import functools
import itertools
import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

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
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
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


def format_passes(columns, end="\n") -> Iterator[str]:
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


# The "%.2f" formatter reuses the 4-digit table and Dekker's split above.
# It spells magnitudes below this itself; larger and non-finite cells go
# to "%.2f".
_FIXED_LIMIT = 1e6
# Cells per pass: a pass allocates about 85 B a cell at its peak (350 kB).
_FIXED_CELLS = 4096


@functools.cache
def _fixed_tables():
    """Tables of the ``"%.2f"`` formatter, built on first use.

    A cell is spelled as three words of four bytes, each a ``uint32``
    view of its bytes: the sign and the integer digits above the last
    four, the last four integer digits, and ``.``, the two decimals and
    the separator.  NUL bytes pad a cell and are deleted after each pass.

    - ``high``: for 0..100, its digits in bytes 1..3 with leading zeros
      as NUL (all NUL for 0), leaving byte 0 for the sign;
    - ``low``: for 0..9999, its four digits with leading zeros as NUL
      (the last digit stays), then for 10000 + k the four digits of k;
    - ``cents``: for 0..99, ``.`` and its two digits;
    - ``sep``: for each byte value, that byte in byte 3;
    - ``minus``: ``-`` in byte 0.
    """
    ascii4 = _format_tables()[1].view(np.uint8).reshape(-1, 4)
    leading = np.logical_and.accumulate(ascii4 == ord("0"), axis=1)
    leading[:, 3] = False
    bare = np.where(leading, 0, ascii4).astype(np.uint8)
    high = bare[:101].copy()
    high[0] = 0
    cents = np.zeros((100, 4), np.uint8)
    cents[:, 0] = ord(".")
    cents[:, 1:3] = ascii4[:100, 2:]
    sep = np.zeros((256, 4), np.uint8)
    sep[:, 3] = np.arange(256)
    minus = np.frombuffer(b"-\0\0\0", np.uint8)
    words = (high, np.concatenate([bare, ascii4]), cents, sep, minus)
    return tuple(w.view(np.uint32).ravel() for w in words)


def _spell_fixed_exactly(value, sep) -> bytes:
    """One cell as ``"%.2f"`` spells it, then its separator: the fixed formatter's fallback."""
    return b"%.2f%c" % (value, sep)


def _format_fixed_pass(values, sep) -> bytes:
    """One pass of :func:`format_fixed`."""
    high, low, cents, sep_word, minus = _fixed_tables()
    mag = np.abs(values)
    bad = ~(mag < _FIXED_LIMIT)  # non-finite cells too
    mag[bad] = 0.0
    p = mag * 100.0
    whole = np.floor(p)
    frac = p - whole
    # p is within half an ulp of mag * 100 and 0.5 lies on p's grid, so
    # rounding follows frac except at frac == 0.5.
    d = whole.astype(np.int32) + (frac > 0.5)
    tie = np.flatnonzero(frac == 0.5)
    if tie.size:
        # mag * 100 = p + e exactly: 100 has 7 bits, so Dekker's product
        # needs no split of it, and each half of mag times 100 is exact.
        # An exact tie (e == 0) rounds half-even, as printf does.
        m_high, m_low = _split(mag[tie])
        e = (m_high * 100.0 - p[tie]) + m_low * 100.0
        d[tie] += (e > 0.0) | ((e == 0.0) & (d[tie] % 2 == 1))
    units, hundredths = np.divmod(d, 100)
    top, units = np.divmod(units, 10**4)
    words = np.empty((values.size, 3), np.uint32)
    words[:, 0] = high.take(top) | np.signbit(values) * minus
    words[:, 1] = low.take(units + (top > 0) * 10**4)
    words[:, 2] = cents.take(hundredths) | sep_word.take(sep)
    out = words.view(np.uint8)
    pieces, start = [], 0
    for i in np.flatnonzero(bad).tolist():
        pieces += [out[start:i].tobytes(), _spell_fixed_exactly(values[i], sep[i])]
        start = i + 1
    pieces.append(out[start:].tobytes())
    return b"".join(pieces).translate(None, b"\0")


def format_fixed(values, sep) -> bytes:
    """Spell flat cells exactly as ``"%.2f"`` does, each followed by its separator byte.

    The bytes are ``b"".join(b"%.2f%c" % (v, s) for v, s in zip(values,
    sep))``, except that a NUL separator spells nothing.  A cell below
    1e6 in magnitude is scaled by 100 and rounded half-even on its exact
    value (Dekker's product decides the ties, with no margin), then
    spelled through digit tables; its sign is its sign bit, so ``-0.0``
    and ``-0.001`` give ``-0.00``.  Only non-finite cells and larger
    magnitudes are spelled by ``"%.2f"`` itself.  Works in passes of at
    most ``_FIXED_CELLS`` cells.
    """
    values = np.asarray(values, dtype=float)
    parts = [
        _format_fixed_pass(values[i : i + _FIXED_CELLS], sep[i : i + _FIXED_CELLS])
        for i in range(0, values.size, _FIXED_CELLS)
    ]
    return b"".join(parts)


def write_atomic(path, chunks: Iterable[str]) -> Path:
    """Write ``chunks`` in turn via a temporary file and rename, creating parents.

    The file gets the mode ``open(path, "w")`` gives it: an existing
    file keeps its mode, and a new one gets 0o666 less the umask, not the
    0o600 of ``tempfile.mkstemp``.  The target is replaced only once
    every chunk is written.  A write that fails, or an error from the
    chunk source, leaves the old target as it was and no temporary file;
    an ``OSError`` names ``path``, not the temporary file.
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
