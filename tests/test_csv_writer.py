"""The CSV writer against the per-value rule it replaced.

Every value used to be written as ``format(float(v), ".<precision>g")``
and every integer as ``str(int(v))``, one value at a time. The writer
formats a float array CSV_BLOCK rows at a time with one row template; the
bytes must be the same.
"""

import tracemalloc

import numpy as np
import pytest

from dedonder_hj.cli import CSV_BLOCK, _write_csv

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


@pytest.mark.parametrize("precision", [17, 6, 1])
def test_special_values_match_the_per_value_rule(tmp_path, precision):
    rng = np.random.default_rng(precision)
    table = np.array([SPECIAL, SPECIAL[::-1],
                      rng.normal(size=7) * 10.0 ** rng.integers(-300, 300, 7)])
    header = [f"c{k}" for k in range(7)]
    got = written(tmp_path, header, table, precision)
    assert got == per_value(header, table, precision)
    assert got.splitlines()[1] == ",".join(
        format(v, f".{precision}g") for v in SPECIAL)


def test_integer_columns_keep_every_digit(tmp_path):
    table = np.array([[0.0, 1234567.0, 1234567.0],
                      [-3.0, 2.0 ** 52, 0.5]])
    got = written(tmp_path, ["level", "n_nodes", "x"], table, 6, (0, 1))
    assert got == ("level,n_nodes,x\n0,1234567,1.23457e+06\n"
                   "-3,4503599627370496,0.5\n")
    assert got == per_value(["level", "n_nodes", "x"], table, 6, (0, 1))


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                                  CSV_BLOCK + 1, 3 * CSV_BLOCK + 5])
def test_row_counts_around_the_block_size(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = np.column_stack([np.full(rows, 0.25), np.arange(rows),
                             rng.normal(size=(rows, 3))])
    header = ["t", "node_index", "u_1", "pt_1", "px_1"]
    got = written(tmp_path, header, table, 17, (1,))
    assert got == per_value(header, table, 17, (1,))
    assert len(got.splitlines()) == rows + 1


def test_transposed_tables_are_written_row_by_row(tmp_path):
    # verify-hj passes its (coordinates; residuals) array transposed
    columns = np.random.default_rng(1).normal(size=(4, 2 * CSV_BLOCK + 3))
    header = ["t", "x", "u_1", "hj"]
    assert written(tmp_path, header, columns.T, 17) \
        == per_value(header, columns.T, 17)


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
