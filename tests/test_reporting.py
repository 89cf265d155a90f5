"""The rate renderers, the block formatter behind the CSVs, and the "%.2f" one behind the SVG
figures."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn import _fixed, reporting
from antdyn.presets import PHASE_PRESETS, PRESETS, PhaseGrid, phase_grid
from antdyn._fixed import _FIXED_LIMIT, _format_fixed
from antdyn.analysis import ComponentRate, RateReport, SeriesRate
from antdyn.reporting import _FMT_CELLS, _format_block, grid_csv, rates_csv, rates_table
from antdyn.simulate import CLAMP_FLOOR, integrate, trajectory_to_csv


def spelled(block) -> list[str]:
    """Each cell as ``"%.17g"`` spells it, row by row."""
    return ["%.17g" % v for v in np.asarray(block, dtype=float).ravel().tolist()]


def cells_of(text: str, shape) -> list[str]:
    rows = text.split("\n")
    assert rows[-1] == "" and len(rows) == shape[0] + 1
    cells = [row.split(",") for row in rows[:-1]]
    assert all(len(row) == shape[1] for row in cells)
    return [cell for row in cells for cell in row]


def assert_formats(block):
    block = np.asarray(block, dtype=float)
    got = cells_of(_format_block(block), block.shape)
    want = spelled(block)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {len(want)} cells differ, e.g. {wrong[:5]}"


def as_double(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def near_power_of_ten(k: int, side: int) -> float:
    p = float(f"1e{k}")
    return float(np.nextafter(p, side * np.inf)) if side else p


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
CELL = st.one_of(
    # every 64-bit pattern: subnormals, both zeros, infinities and nans included
    st.integers(0, 2**64 - 1).map(as_double),
    # log-uniform magnitudes over +-300 decades, both signs
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-300, 300)).map(lambda p: p[0] * 10 ** p[1]),
    # integers and few-bit fractions in [1e11, 1e17), where exact ties live
    st.tuples(st.integers(10**11 * 64, 10**17 * 64 - 1), st.sampled_from((1, 2, 8, 16, 64))).map(
        lambda p: (p[0] // (64 // p[1])) / p[1]
    ),
    # each power of ten and its two neighbours
    st.tuples(st.integers(-323, 308), st.sampled_from((-1, 0, 1))).map(
        lambda p: near_power_of_ten(*p)
    ),
    st.sampled_from(SPECIAL),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(CELL, min_size=1, max_size=120), width=st.integers(1, 8))
def test_block_cells_are_percent_17g(cells, width):
    cells += [1.0] * (-len(cells) % width)
    assert_formats(np.array(cells).reshape(-1, width))


def bit_patterns(rng, size):
    return rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)


def log_uniform(rng, size):
    return rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-300, 300, size)


def tie_dense(rng, size):
    return np.floor(10.0 ** rng.uniform(11, 17, size) * 8) / rng.choice((1.0, 8.0), size)


def powers_of_ten(rng, size):
    # each power of ten, or its neighbour below or above
    p = 10.0 ** rng.integers(-307, 309, size).astype(float)
    picked = np.choose(rng.integers(0, 3, size), [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])
    return picked * rng.choice((-1, 1), size)


def time_grid(rng, size):
    return np.arange(size) * float(rng.choice((1e-3, 0.01, 0.02, 0.05, 0.1, 1 / 3, 0.7)))


KINDS = {
    f.__name__: f for f in (bit_patterns, log_uniform, tie_dense, powers_of_ten, time_grid)
}


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 2001),
    cols=st.integers(1, 34),
    kind=st.sampled_from(sorted(KINDS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_of_any_shape_are_percent_17g(rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    block = KINDS[kind](rng, rows * cols).reshape(rows, cols)
    block.ravel()[rng.integers(0, block.size, 3)] = rng.choice(SPECIAL, 3)
    assert_formats(block)


def test_block_edges_and_known_hard_cells():
    # exact ties round half-even; the exponent estimate is one too high
    # just below a power of ten; the clamp floor is out of the table's range
    hard = [
        916695891000000.125,
        916695891000000.375,
        9.9999999999999996e-270,
        9.9999999999999995e-8,
        CLAMP_FLOOR,
        1e-270,
        1e270,
        1.7976931348623157e308,
        0.1,
        0.30000000000000004,
        123456789012345678.0,
        99999999999999999.0,
        1e16,
        1e17,
        *SPECIAL,
    ]
    assert_formats(np.array(hard)[:, None])
    assert _format_block(np.array([[916695891000000.125, 2.5]])) == "916695891000000.12,2.5\n"
    assert _format_block(np.array([[9.9999999999999996e-270]])) == "9.9999999999999996e-270\n"
    # shapes around the pass size
    for shape in [(1, 1), (1, _FMT_CELLS + 1), (_FMT_CELLS + 1, 1), (3, _FMT_CELLS // 3 + 1)]:
        assert_formats(np.random.default_rng(sum(shape)).standard_normal(shape))


def old_grid_csv(grid: PhaseGrid) -> str:
    """The node-by-node loop that ``grid_csv`` replaced."""
    lines = ["x_1,x_2,dx_1,dx_2,speed,tie\n"]
    for i in range(grid.x1.size):
        for j in range(grid.x2.size):
            lines.append(
                f"{grid.x1[i]:.17g},{grid.x2[j]:.17g},{grid.u[i, j]:.17g},"
                f"{grid.v[i, j]:.17g},{grid.speed[i, j]:.17g},{int(grid.tie[i, j])}\n"
            )
    return "".join(lines)


@settings(max_examples=30, deadline=None)
@given(
    n1=st.integers(1, 40),
    n2=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(-12, 12),
)
def test_grid_csv_is_the_node_loop(n1, n2, seed, scale):
    rng = np.random.default_rng(seed)
    field = rng.standard_normal((3, n1, n2)) * 10.0**scale
    field[0, rng.integers(0, n1), rng.integers(0, n2)] = 0.0
    grid = PhaseGrid(
        x1=np.sort(rng.uniform(0.01, 2.0, n1)),
        x2=np.sort(rng.uniform(0.01, 2.0, n2)),
        u=field[0],
        v=field[1],
        speed=np.abs(field[2]),
        tie=rng.random((n1, n2)) < 0.3,
    )
    text = grid_csv(grid)
    assert text == old_grid_csv(grid)
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} <= {"0", "1"}


def count_fallbacks(monkeypatch) -> list:
    """Record every cell that the block formatter hands to ``"%.17g"``."""
    cells = []
    spell = reporting._spell_exactly

    def counted(value, sep):
        cells.append(float(value))
        return spell(value, sep)

    monkeypatch.setattr(reporting, "_spell_exactly", counted)
    return cells


def test_zeros_are_spelled_without_the_fallback(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    block = np.array([[0.0, -0.0, 1.0], [-0.0, 2.5, 0.0], [1e-300, 0.0, -3.0]])
    assert _format_block(block) == "0,-0,1\n-0,2.5,0\n1e-300,0,-3\n"
    # 1e-300 lies below the table's range
    assert fallbacks == [1e-300]


def test_preset_csvs_leave_the_fallback(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    for preset in PHASE_PRESETS.values():
        grid_csv(phase_grid(preset.model, bounds=preset.bounds, resolution=preset.resolution))
    assert fallbacks == []
    # of the trajectories, only the t = 0 zeros went there, and they no longer do
    preset = PRESETS["eigenant-fig1"]
    model = preset.runs[0][1]
    trajectory_to_csv(integrate(model, preset.x0, preset.dt, preset.steps))
    assert fallbacks == []


def nudge(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, np.copysign(np.inf, ulps)))
    return value


FIXED_SPECIAL = [
    0.0, -0.0, -0.001, -0.004999, -0.005, 0.005, 0.125, -0.125, 0.375, 9.995, 99.995,
    np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e6, -1e6, float(np.nextafter(1e6, 0.0)), 999999.995, -999999.995, 1e7, 1e300,
]
FIXED_CELL = st.one_of(
    # every 64-bit pattern: subnormals, both zeros, infinities and nans included
    st.integers(0, 2**64 - 1).map(as_double),
    # exact ties: odd multiples of 1/8 are exactly half a hundredth off a hundredth
    st.integers(-8 * 10**6, 8 * 10**6).map(lambda k: (2 * k + 1) / 8),
    # decimal ties (2k+1)/200, which no double holds exactly, and their neighbours
    st.tuples(st.integers(-2 * 10**8, 2 * 10**8), st.integers(-3, 3)).map(
        lambda p: nudge((2 * p[0] + 1) / 200, p[1])
    ),
    # values that round to a zero of either sign
    st.floats(-0.0051, 0.0051),
    # magnitudes at and past the vectorized limit
    st.floats(-2 * _FIXED_LIMIT, 2 * _FIXED_LIMIT),
    st.sampled_from(FIXED_SPECIAL),
)


def assert_spells_percent_2f(values, seps):
    """The kernel gives ``"%.2f"``'s bytes, and hands it only cells it may not spell."""
    values = np.asarray(values, dtype=float)
    seps = np.asarray(seps, dtype=np.uint8)
    fallbacks = []
    spell = _fixed._spell_fixed_exactly

    def counted(value, sep):
        fallbacks.append(float(value))
        return spell(value, sep)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_fixed, "_spell_fixed_exactly", counted)
        got = _format_fixed(values, seps)
    want = [b"%.2f" % v for v in values.tolist()]
    wrong = [(w, g) for w, g in zip(want, re.split(rb"[, \n;]", got)) if w != g]
    assert not wrong, f"{len(wrong)} of {len(want)} cells differ, e.g. {wrong[:5]}"
    assert got == b"".join(b"%s%c" % p for p in zip(want, seps.tolist()))
    beyond = values[~(np.abs(values) < _FIXED_LIMIT)]
    assert np.array_equal(fallbacks, beyond, equal_nan=True)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(FIXED_CELL, st.sampled_from(b", \n;")), min_size=1, max_size=160)
)
def test_fixed_cells_are_percent_2f(cells):
    values, seps = zip(*cells)
    assert_spells_percent_2f(values, seps)


def test_fixed_ties_and_pass_edges_are_percent_2f():
    k = np.arange(-60_000, 60_000)
    decimal_ties = (2 * k + 1) / 200
    cells = np.concatenate(
        [
            (2 * k + 1) / 8,  # exact ties, both parities below them
            decimal_ties,
            np.nextafter(decimal_ties, np.inf),
            np.nextafter(decimal_ties, -np.inf),
            np.nextafter(k + 0.005, np.inf),
            np.nextafter(k + 0.005, -np.inf),
            FIXED_SPECIAL,
        ]
    )
    # passes of _FIXED_CELLS cells split it at many points
    seps = np.resize(np.frombuffer(b", \n", np.uint8), cells.size)
    assert_spells_percent_2f(cells, seps)
    # exact ties round half-even, and a zero of either origin keeps its sign
    spelled = _format_fixed(np.array([0.125, 0.375, -0.0, -0.001]), seps[:4])
    assert spelled == b"0.12,0.38 -0.00\n-0.00,"
    # a NUL separator spells nothing, as after the last point of a polyline
    nul = np.array([ord(","), 0, 0], np.uint8)
    assert _format_fixed(np.array([1.0, -2.5, np.nan]), nul) == b"1.00,-2.50nan"


NAN = float("nan")
# A tied path, a fitted path, a path whose fit failed (FitError: NaN rate, no relative
# error) and both sum series
RATES = RateReport(
    components=(
        ComponentRate(0, 1.0, True, NAN, 0.0, 0.7500000000000002, 0.75, None, NAN, 0),
        ComponentRate(1, 0.5, False, 0.49999999, 0.5, 1.0000000000000001e-9, 0.0, 2e-08, 1.0, 240),
        ComponentRate(2, 0.25, False, NAN, 0.75, NAN, 0.0, None, NAN, 0),
    ),
    tied_sum=SeriesRate("tied-sum", 0.5000001, 0.5, 0.75, 0.75, 2.0000000000575113e-07, 0.999),
    total_sum=SeriesRate("total-sum", 0.51, 0.5, 1.5, 1.5, 0.02, 0.98),
    gamma=2.0,
    window=(10.0, 19.6),
)


def test_rates_csv_text():
    assert rates_csv(RATES) == (
        "path,d,tied,fitted_rate,theoretical_rate,relative_rate_error,"
        "fitted_limit,theoretical_limit,r_squared\n"
        "1,1,1,nan,0,,0.75000000000000022,0.75,nan\n"
        "2,0.5,0,0.49999999000000001,0.5,2e-08,1.0000000000000001e-09,0,1\n"
        "3,0.25,0,nan,0.75,,nan,0,nan\n"
    )


def test_rates_table_text():
    assert rates_table(RATES) == [
        "path      | d    | tied | fitted_rate | theoretical_rate | rel_error         "
        "| fitted_limit | theoretical_limit | r_squared",
        "1         | 1    | yes  | nan         | 0                | n/a               "
        "| 0.75         | 0.75              | nan",
        "2         | 0.5  | no   | 0.49999999  | 0.5              | 2e-08             "
        "| 1e-09        | 0                 | 1",
        "3         | 0.25 | no   | nan         | 0.75             | n/a               "
        "| nan          | 0                 | nan",
        "tied-sum  |      |      | 0.5000001   | 0.5              | 2.00000000006e-07 "
        "| 0.75         | 0.75              | 0.999",
        "total-sum |      |      | 0.51        | 0.5              | 0.02              "
        "| 1.5          | 1.5               | 0.98",
        "fit_window_scaled = 10 .. 19.6",
    ]
