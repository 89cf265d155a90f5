"""The block formatter behind the trajectory and phase-grid CSVs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn.presets import PhaseGrid
from antdyn.reporting import _FMT_CELLS, _format_block, grid_csv
from antdyn.simulate import CLAMP_FLOOR


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
