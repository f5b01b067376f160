"""The CSV writer against the per-value rule it replaced.

Every value used to be written as ``format(float(v), ".<precision>g")``
and every integer as ``str(int(v))``, one value at a time. The writer
joins the rows of a float array CSV_BLOCK rows at a time from one
sequence of strings per column, and formats a column made of runs of
equal values once per run, one that repeats a period once per period;
the bytes must be the same. Texts are compared with ``assert_same_text``,
which names only the first line that differs.
"""

import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedonder_hj.cli import CSV_BLOCK, _period, _write_csv

SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22,
           0.1]


def per_value(header, table, precision, int_cols=()):
    """The bytes of the per-value rule."""
    lines = [",".join(header)]
    for row in table:
        lines.append(",".join(str(int(v)) if k in int_cols
                              else format(float(v), f".{precision}g")
                              for k, v in enumerate(row)))
    return "\n".join(lines) + "\n"


def written(tmp_path, header, table, precision, int_cols=()):
    path = tmp_path / "table.csv"
    _write_csv(path, header, table, precision, int_cols)
    return path.read_bytes().decode("utf-8")


def assert_same_text(got, expected):
    """Fail unless the two texts are identical, reporting only the first
    line that differs: pytest's diff of two tables of a few MB can take
    minutes, and longer still under hypothesis' shrinking."""
    if got == expected:
        return
    pairs = zip_longest(got.split("\n"), expected.split("\n"))
    line, (ours, theirs) = next((k, pair) for k, pair in enumerate(pairs, 1)
                                if pair[0] != pair[1])
    pytest.fail(f"line {line} differs: written {ours!r}, expected "
                f"{theirs!r}", pytrace=False)


def test_a_mismatch_names_only_its_first_line():
    with pytest.raises(pytest.fail.Exception,
                       match="^line 3 differs: written '2', expected '3'$"):
        assert_same_text("a\n1\n2\n" * 10 ** 5, "a\n1\n3\n" * 10 ** 5)
    with pytest.raises(pytest.fail.Exception,
                       match="^line 3 differs: written None, expected ''$"):
        assert_same_text("a\n1", "a\n1\n")


@pytest.mark.parametrize("precision", [17, 6, 1])
def test_special_values_match_the_per_value_rule(tmp_path, precision):
    rng = np.random.default_rng(precision)
    table = np.array([SPECIAL, SPECIAL[::-1],
                      rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, 7)])
    header = [f"c{k}" for k in range(7)]
    got = written(tmp_path, header, table, precision)
    assert_same_text(got, per_value(header, table, precision))
    assert got.splitlines()[1] == ",".join(
        format(v, f".{precision}g") for v in SPECIAL)


def test_integer_columns_keep_every_digit(tmp_path):
    table = np.array([[0.0, 1234567.0, 1234567.0],
                      [-3.0, 2.0 ** 52, 0.5]])
    got = written(tmp_path, ["level", "n_nodes", "x"], table, 6, (0, 1))
    assert_same_text(got, "level,n_nodes,x\n0,1234567,1.23457e+06\n"
                          "-3,4503599627370496,0.5\n")
    assert_same_text(got, per_value(["level", "n_nodes", "x"], table, 6,
                                    (0, 1)))


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                                  CSV_BLOCK + 1, 3 * CSV_BLOCK + 5])
def test_row_counts_around_the_block_size(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = np.column_stack([np.full(rows, 0.25), np.arange(rows),
                             rng.normal(size=(rows, 3))])
    header = ["t", "node_index", "u_1", "pt_1", "px_1"]
    got = written(tmp_path, header, table, 17, (1,))
    assert_same_text(got, per_value(header, table, 17, (1,)))
    assert len(got.splitlines()) == rows + 1


def test_transposed_tables_are_written_row_by_row(tmp_path):
    # verify-hj passes its (coordinates; residuals) array transposed
    columns = np.random.default_rng(1).normal(size=(4, 2 * CSV_BLOCK + 3))
    header = ["t", "x", "u_1", "hj"]
    assert_same_text(written(tmp_path, header, columns.T, 17),
                     per_value(header, columns.T, 17))


def test_writing_keeps_memory_to_one_block(tmp_path):
    # a 50,000 x 8 table is about 9 MB of text at 17 digits; one block of
    # CSV_BLOCK rows is about 0.2 MB plus its tuple of floats
    table = np.random.default_rng(2).normal(size=(50_000, 8))
    header = [f"c{k}" for k in range(8)]
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", header, table, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert (tmp_path / "big.csv").stat().st_size > 8_000_000


def test_runs_crossing_a_block_boundary(tmp_path):
    rows = 2 * CSV_BLOCK + 10
    table = np.column_stack([
        np.repeat(np.arange(rows // 300 + 1) / 3.0, 300)[:rows],
        np.repeat([0.1, 0.2], [CSV_BLOCK - 5, rows - CSV_BLOCK + 5]),
        np.random.default_rng(3).normal(size=rows)])
    header = ["t", "x", "u_1"]
    assert_same_text(written(tmp_path, header, table, 17),
                     per_value(header, table, 17))


def test_signed_zeros_and_nan_payloads_stay_apart(tmp_path):
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002,
                     0xFFF8000000000000], dtype=np.uint64).view(float)
    # both columns have few enough runs to be formatted once per run
    table = np.column_stack([
        np.repeat([0.0, -0.0, 0.0, -0.0], 6),
        np.repeat(np.r_[0.5, nans, 0.5], [10, 1, 1, 1, 11]),
        np.arange(24.0)])
    header = ["zero", "nan", "k"]
    got = written(tmp_path, header, table, 17)
    assert_same_text(got, per_value(header, table, 17))
    assert [line.split(",")[0] for line in got.splitlines()[1::6]] \
        == ["0", "-0", "0", "-0"]


@pytest.mark.parametrize("runs", [8, 9])
def test_columns_at_and_past_half_as_many_runs_as_rows(tmp_path, runs):
    # 16 rows: 8 runs is the most formatted once per run, 9 one run more
    lengths = [2] * 8 if runs == 8 else [1, 1] + [2] * 7
    table = np.column_stack([np.repeat(np.arange(runs) * 0.1, lengths),
                             np.full(16, -0.0)])
    header = ["t", "x"]
    assert_same_text(written(tmp_path, header, table, 17),
                     per_value(header, table, 17))


def test_integer_columns_made_of_runs(tmp_path):
    table = np.column_stack([np.repeat([3.0, -7.0, 2.0 ** 52, 0.0], 5),
                             np.repeat([0.25, 1e22], 10)])
    header = ["level", "dt"]
    assert_same_text(written(tmp_path, header, table, 6, (0,)),
                     per_value(header, table, 6, (0,)))


POOL = SPECIAL + [0.0, 1.0, -2.5, 1 / 3]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(columns=st.integers(1, 4), precision=st.sampled_from([1, 6, 17]),
       runs=st.lists(st.tuples(st.integers(0, len(POOL) - 1),
                               st.integers(1, 400)), min_size=1,
                     max_size=12),
       shifts=st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_tables_of_pooled_values_match_the_per_value_rule(
        tmp_path_factory, columns, precision, runs, shifts):
    # each column rolls the drawn runs by its own shift, so runs start at
    # different rows in different columns; some span block boundaries
    index = np.repeat([i for i, _ in runs], [n for _, n in runs])
    table = np.array(POOL)[np.column_stack(
        [np.roll(index, shifts[k] * (k + 1)) for k in range(columns)])]
    header = [f"c{k}" for k in range(columns)]
    path = tmp_path_factory.getbasetemp() / "pooled.csv"
    _write_csv(path, header, table, precision)
    assert_same_text(path.read_bytes().decode("utf-8"),
                     per_value(header, table, precision))


def test_verify_hj_sized_mesh_matches_the_per_value_rule(tmp_path):
    # the verify-hj benchmark table: 7^5 (t, x, u_1, u_2, u_3) samples from
    # np.meshgrid, transposed as the CLI passes it, and three residual
    # columns, two of them all zero
    axes = [np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7)] \
        + [np.linspace(-2.9, 2.9, 7)] * 3
    mesh = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(5, -1)
    residuals = np.stack([np.zeros(mesh.shape[1]),
                          2.0 ** -48 * np.abs(mesh[2]),
                          np.zeros(mesh.shape[1])])
    table = np.concatenate([mesh, residuals]).T
    header = ["t", "x", "u_1", "u_2", "u_3", "closedness", "hj", "flatness"]
    assert table.shape == (7 ** 5, 8)
    assert_same_text(written(tmp_path, header, table, 17),
                     per_value(header, table, 17))


# -- columns that repeat with a period ----------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True)
# the second block, 6 rows, repeats a period of 3 at another phase
@example(tile=[1, 2, 3], phase=0, rows=CSV_BLOCK + 6, precision=1)
@given(tile=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=40),
       phase=st.integers(0, 39), rows=st.integers(1, 3 * CSV_BLOCK),
       precision=st.sampled_from([1, 6, 17]))
def test_tiled_columns_match_the_per_value_rule(tmp_path_factory, tile,
                                                 phase, rows, precision):
    # a column tiled from a drawn period of pooled values, starting at a
    # drawn phase, beside a column of distinct values and a shifted copy
    index = np.resize(np.roll(tile, phase), rows)
    table = np.column_stack([np.array(POOL)[index], np.arange(rows) / 7.0,
                             np.array(POOL)[np.roll(index, 1)]])
    header = ["tiled", "k", "shifted"]
    path = tmp_path_factory.getbasetemp() / "tiled.csv"
    _write_csv(path, header, table, precision)
    assert_same_text(path.read_bytes().decode("utf-8"),
                     per_value(header, table, precision))


@pytest.mark.parametrize("period", [CSV_BLOCK // 2, CSV_BLOCK // 2 + 1])
def test_periods_at_and_past_half_a_block(tmp_path, period):
    # CSV_BLOCK / 2 rows is the longest period formatted once per period;
    # one row more is formatted value by value
    rows = 3 * CSV_BLOCK + 11
    cycle = np.random.default_rng(period).normal(size=period)
    table = np.column_stack([np.resize(cycle, rows), np.arange(rows)])
    header = ["x", "node_index"]
    assert_same_text(written(tmp_path, header, table, 17, (1,)),
                     per_value(header, table, 17, (1,)))


def test_the_period_found_is_that_of_the_first_repeat():
    # a column is tiled from its first P rows when row P is the first to
    # repeat row 0 and every row repeats the one P rows above it; the
    # writer's bytes do not show which columns were
    def period(values):
        column = np.array(values, dtype=float)
        return _period(column, np.signbit(column))

    x = np.arange(128) / 128
    assert period(np.tile(x, 4)) == 128
    assert period(np.resize(np.linspace(-2.9, 2.9, 7), 512)) == 7
    assert period(np.resize(np.arange(129.0), 258)) == 129
    assert period(np.resize(np.arange(129.0), 257)) == 0    # 129 > 257 / 2
    assert period(np.resize([1.0, 0.0, 1.0, -0.0], 64)) == 0
    assert period(np.resize([1.0, 1.0, 2.0], 64)) == 0      # row 1 repeats
    assert period([np.nan, 1.0] * 8) == 0


def test_a_period_crossing_block_boundaries(tmp_path):
    # a period of 7 does not divide the block, so each block starts at
    # another phase of it
    rows = 4 * CSV_BLOCK + 3
    assert CSV_BLOCK % 7
    table = np.column_stack([np.resize(np.linspace(-2.9, 2.9, 7), rows),
                             np.resize([0.1, 0.2, 0.3], rows)])
    header = ["u_3", "c"]
    assert_same_text(written(tmp_path, header, table, 17),
                     per_value(header, table, 17))


def test_signed_zeros_and_nan_payloads_in_periodic_columns(tmp_path):
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                    dtype=np.uint64).view(float)
    rows = 2 * CSV_BLOCK + 5
    table = np.column_stack([
        np.resize([0.0, -0.0, 1.5], rows),      # a period of signed zeros
        # the second block repeats the first's period as floats, with the
        # zeros' signs swapped
        np.r_[np.resize([1.0, 0.0, -0.0, 2.0], CSV_BLOCK),
              np.resize([1.0, -0.0, 0.0, 2.0], rows - CSV_BLOCK)],
        np.resize([-0.0, 0.0, 0.0, 2.0], rows),  # 0.0 == -0.0 at row 1
        # period 2 as floats, 4 in sign bit
        np.resize([1.0, 0.0, 1.0, -0.0], rows),
        np.resize(np.r_[nans, 0.5], rows),      # NaNs never repeat
        np.resize([0.25, nans[0], -0.0], rows)])
    header = ["a", "b", "c", "d", "e", "f"]
    got = written(tmp_path, header, table, 17).splitlines()
    assert_same_text("\n".join(got) + "\n", per_value(header, table, 17))
    assert [line.split(",")[:2] for line in got[1:5]] \
        == [["0", "1"], ["-0", "0"], ["1.5", "-0"], ["0", "2"]]
    assert [line.split(",")[1] for line in got[CSV_BLOCK + 1:][:4]] \
        == ["1", "-0", "0", "2"]


def test_periodic_integer_columns(tmp_path):
    rows = 3 * CSV_BLOCK
    table = np.column_stack([np.resize(np.arange(100.0), rows),
                             np.resize([2.0 ** 52, -3.0, 0.0], rows),
                             np.resize(np.arange(100.0) / 3.0, rows)])
    header = ["node_index", "level", "x"]
    assert_same_text(written(tmp_path, header, table, 6, (0, 1)),
                     per_value(header, table, 6, (0, 1)))


@pytest.mark.parametrize("frames, nodes", [(101, 128), (9, 100), (3, 700)])
def test_fields_shaped_tables_match_the_per_value_rule(tmp_path, frames,
                                                      nodes):
    # fields.csv: t in runs of N rows, node_index and x with period N
    # (longer than half a block at N = 700), u, p_t, p_x value by value
    x = np.arange(nodes) / nodes
    t = np.linspace(0.0, 1.0, frames)[:, None]
    u = np.sin(2 * np.pi * (x - t))
    table = np.column_stack([
        np.repeat(t[:, 0], nodes), np.tile(np.arange(nodes), frames),
        np.tile(x, frames), u.ravel(), -u.ravel(), np.zeros(frames * nodes)])
    header = ["t", "node_index", "x", "u_1", "pt_1", "px_1"]
    assert_same_text(written(tmp_path, header, table, 17, (1,)),
                     per_value(header, table, 17, (1,)))
