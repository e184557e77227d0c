"""The vectorized cell formatter against Python's own ``'%.17g'``."""

import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmfg._cells import BLOCK_CELLS, cell_text, csv_rows, int_text, slice_rows
from xmfg.ensembles import TrajectoryEnsemble
from xmfg.hjb import GridConfig, ValueGrid
from xmfg.io import write_trajectory_csv, write_value_csv


def texts(values):
    return [bytes(row).rstrip(b"\0") for row in cell_text(values)]


def reference(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def assert_matches(values):
    got, want = texts(values), reference(values)
    wrong = [(v, g, w) for v, g, w in zip(np.ravel(values).tolist(), got, want) if g != w]
    assert not wrong, wrong[:5]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
@example([1e-11, 2.0**53, 2.0**53 - 1, 5e-324, -1.7976931348623157e308])
def test_any_floats_are_written_as_percent_17g(values):
    assert_matches(values)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0x7FF8000000000001, 0xFFF0000000000001, 0x8000000000000001, 0x0010000000000000])
def test_any_64_bit_patterns_are_written_as_percent_17g(patterns):
    assert_matches(np.array(patterns, dtype=np.uint64).view(np.float64))


def half_even_ties(rng, per_scale):
    """Doubles in the exact range with exactly 18 significant digits, the last
    a 5: N / 2**j with N odd and N 5**j of 18 digits.  Rounding them to 17
    digits is a tie."""
    ties = []
    for j in range(2, 40):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        if lo < hi:
            odd = rng.integers(lo, hi, per_scale) | 1
            ties += [n / 2.0**j for n in odd.tolist() if n < hi]
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties)
    assert min(ties) > 1e-11 and len(ties) >= 10 * per_scale
    return np.array(ties)


def carries():
    """Doubles just below a power of ten whose 17-digit rounding carries into
    the next decade (1e-14, 1e-305, ...); none of them is in the exact range."""
    found = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        for v in (x, np.nextafter(x, 0.0)):
            mantissa = (b"%.17g" % v).split(b"e")[0].replace(b".", b"").strip(b"0")
            if mantissa == b"1" and Fraction(float(v)) < Fraction(10) ** k:
                found.append(v)
    assert len(found) >= 10
    return np.array(found)


def test_every_decimal_exponent_and_the_awkward_values():
    rng = np.random.default_rng(20240613)
    parts = []
    for k in range(-330, 309):
        power = float(f"1e{k}")  # 0.0 below the subnormals
        near = [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        if k > -308:
            decade = rng.uniform(1.0, 10.0 if k < 308 else 1.79, 12) * power
        else:  # subnormals
            decade = rng.uniform(0, 2**52, 12) * 5e-324
        parts += [near, decade, -decade]
    parts += [carries(), half_even_ties(rng, 50)]
    parts += [[2.0**53 - 1, 2.0**53, 1e-11, np.nextafter(1e-11, 1.0), 0.0, -0.0, np.nan, np.inf]]
    values = np.concatenate([np.ravel(p) for p in parts])
    rng.shuffle(values)  # every block mixes exact lanes with the % lanes
    assert values.size > 2 * BLOCK_CELLS
    assert_matches(values)


def test_csv_rows_join_text_columns_and_cells():
    cells = np.array([[0.5, -0.0], [np.nan, 1e300]])
    rows = csv_rows(cells, cell_text([0.1, 0.2]), int_text([7, 12]))
    assert rows == (
        b"0.10000000000000001,7,0.5,-0\n0.20000000000000001,12,nan,1.0000000000000001e+300\n"
    )
    assert csv_rows(np.empty((0, 2)), int_text([])) == b""


def percent_rows(times, items, cells):
    """The rows ``t, item, cells...`` of ``slice_rows``, written with ``%``."""
    return b"".join(
        b",".join([b"%.17g" % t, item, *(b"%.17g" % c for c in row)]) + b"\n"
        for t, item, row in zip(times, items, cells.tolist())
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("edge", [-1, 0, 1], ids=["below", "on", "above"])
def test_rows_at_the_edges_of_a_block_match_a_percent_writer(k, edge):
    # a row total whose cell total lands on BLOCK_CELLS - k, BLOCK_CELLS or
    # BLOCK_CELLS + k (the nearest whole rows when k does not divide it)
    rows = BLOCK_CELLS // k + edge
    rng = np.random.default_rng(1000 * k + edge)
    cells = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-14, 15, (rows, k))
    # the last cells of the first block of slice_rows and of cell_text, or of
    # the table when it is shorter: a nan, then a cell that only % writes
    for last in {(BLOCK_CELLS // k) * k, BLOCK_CELLS}:
        last = min(last, cells.size)
        cells.flat[last - 2 : last] = np.nan, 1e-320
    times = np.linspace(0.0, 1.0, rows)
    # slice_rows pairs row r with time r // n and item r % n for n items per
    # slice; one item per slice makes every row count a whole table
    got = b"".join(slice_rows(times, int_text([0]), [cells[:, j] for j in range(k)]))
    assert got == percent_rows(times, [b"0"] * rows, cells)
    got = csv_rows(cells, cell_text(times), int_text(range(rows)))
    assert got == percent_rows(times, [b"%d" % r for r in range(rows)], cells)


def awkward_cells(rng, shape, specials=(np.nan, 1e-320, 2.0**60, -0.0)):
    """Cells of every scale, with ``specials`` (cells only ``%`` writes, by
    default a nan too) at random places among them."""
    cells = rng.standard_normal(shape) * 10.0 ** rng.integers(-14, 15, shape)
    at = rng.choice(cells.size, min(cells.size, 2 * len(specials)), replace=False)
    cells.flat[at] = np.resize(specials, at.size)
    return cells


def slice_major_percent_rows(times, items, columns):
    """``percent_rows`` of a slice-major table: n items in every time slice."""
    n = len(items)
    cells = np.stack([np.ravel(c) for c in columns], axis=1)
    return percent_rows(np.repeat(times, n), items * len(times), cells)


def test_value_chunks_are_the_callers_across_blocks(tmp_path):
    # k = 2: 61 slices of 251 nodes are 15311 rows, four blocks of 4096 rows
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 61)
    cfg = GridConfig(-2.0, 2.0, 251, 2, 1.0)
    vg = ValueGrid(config=cfg, times=times, u=awkward_cells(rng, (61, 251)))
    vg.__dict__["grad"] = awkward_cells(rng, vg.u.shape)  # du_dx, as if derived already
    assert 2 * vg.u.size > 3 * BLOCK_CELLS
    want = slice_major_percent_rows(times, [b"%.17g" % x for x in vg.x], (vg.u, vg.grad))
    chunks = lambda: slice_rows(times, cell_text(vg.x), (vg.u, vg.grad))  # noqa: E731
    assert b"".join(chunks()) == want
    kept = list(chunks())  # every chunk held until the last block has run
    assert len(kept) >= 4 and b"".join(kept) == want
    write_value_csv(tmp_path / "value.csv", vg)
    assert (tmp_path / "value.csv").read_bytes() == b"t,x,u,du_dx\n" + want


@pytest.mark.parametrize("with_costates", [False, True])
def test_trajectory_chunks_are_the_callers_across_blocks(tmp_path, with_costates):
    # k = 3: 21 slices of 700 samples are 14700 rows, six blocks of 2730 rows
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 1.0, 21)
    paths = [awkward_cells(rng, (21, 700, 1), (1e-320, 2.0**60, -0.0)) for _ in range(3)]
    traj = TrajectoryEnsemble(times, *paths[:2], paths[2] if with_costates else None)
    assert 3 * paths[0].size > 3 * BLOCK_CELLS
    p = paths[2] if with_costates else np.full_like(paths[2], np.nan)
    want = b"t,sample_index,x,v,p\n" + slice_major_percent_rows(
        times, [b"%d" % i for i in range(700)], (*paths[:2], p)
    )
    assert traj.to_csv().encode() == want
    assert b"".join(list(traj.csv_lines())) == want
    write_trajectory_csv(tmp_path / "trajectory.csv", traj)
    assert (tmp_path / "trajectory.csv").read_bytes() == want


def test_a_returned_text_is_not_changed_by_later_calls():
    rng = np.random.default_rng(13)
    for size in (5, 3 * BLOCK_CELLS + 7):  # one block, and several
        text = cell_text(awkward_cells(rng, size))
        kept = text.copy()
        cell_text(awkward_cells(rng, size))
        csv_rows(awkward_cells(rng, (size, 2)), int_text(range(size)))
        b"".join(slice_rows(np.arange(3.0), int_text(range(size)), [awkward_cells(rng, 3 * size)]))
        np.testing.assert_array_equal(text, kept)


@pytest.mark.parametrize(
    "write",
    [lambda: csv_rows(np.ones((3, 2)), int_text(range(3))), lambda: cell_text(np.ones(5))],
    ids=["csv_rows-3x2", "cell_text-5"],
)
def test_a_small_table_takes_small_scratch(write):
    # the scratch is sized to the table, not to a block: the residual and
    # plot tables, check certificates and master tables stay cheap
    write()  # the formatter tables are built once per process, on first use
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
