"""The ``"%.2f"`` formatter behind the SVG pixel coordinates.

It borrows the 4-digit table and Dekker's split of the ``"%.17g"``
formatter in :mod:`antdyn.reporting` but lives apart from it: without
cached bytecode, every fresh interpreter compiles the package, and the
syntax tree of ``reporting``, the largest module, sets the peak memory
of that import; adding this formatter there raised that peak (by 128 kB
under CPython 3.11).
"""

from __future__ import annotations

import functools

import numpy as np

from .reporting import _FMT_CELLS, _format_tables, _split

# The "%.2f" formatter spells magnitudes below this itself; larger and
# non-finite cells go to "%.2f".
_FIXED_LIMIT = 1e6


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
    """One pass of :func:`_format_fixed`."""
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


def _format_fixed(values, sep) -> bytes:
    """Spell flat cells exactly as ``"%.2f"`` does, each followed by its separator byte.

    The bytes are ``b"".join(b"%.2f%c" % (v, s) for v, s in zip(values,
    sep))``, except that a NUL separator spells nothing.  A cell below
    1e6 in magnitude is scaled by 100 and rounded half-even on its exact
    value (Dekker's product decides the ties, with no margin), then
    spelled through digit tables; its sign is its sign bit, so ``-0.0``
    and ``-0.001`` give ``-0.00``.  Only non-finite cells and larger
    magnitudes are spelled by ``"%.2f"`` itself.  Works in passes of at
    most ``_FMT_CELLS`` cells.
    """
    values = np.asarray(values, dtype=float)
    parts = [
        _format_fixed_pass(values[i : i + _FMT_CELLS], sep[i : i + _FMT_CELLS])
        for i in range(0, values.size, _FMT_CELLS)
    ]
    return b"".join(parts)
