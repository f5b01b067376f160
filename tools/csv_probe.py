#!/usr/bin/env python3
"""Cost of the CSV writer on tables shaped like the benchmark's, against
the per-value rule its bytes must match.

    PYTHONPATH=src python3 tools/csv_probe.py [--rounds R]

Three tables are written with ``cli._write_csv`` at 17 digits:

- fields: ``fields.csv`` of the ``simulate_diag`` workload's shape, 101
  frames x 128 nodes of a Klein-Gordon sine wave (t, node_index, x, u_1,
  pt_1, px_1);
- characteristics: ``characteristics.csv`` of the ``characteristics``
  workload's shape, 101 frames x 128 nodes of data constant in x;
- verify: ``verify_hj.csv`` of the ``verify_hj`` workload's shape, the
  7^5 samples of a (t, x, u_1, u_2, u_3) mesh and three residual
  columns, two of them zero and one of rounding size.

The tables are written in turn in each round, alternating their order.
For each it prints the min and median milliseconds of one write over the
rounds and the ``tracemalloc`` peak of one write. Every table's bytes
must equal those of formatting each value on its own
(``format(float(v), ".17g")``, ``str(int(v))`` for node_index); the exit
code is 1 when any byte differs, 0 otherwise. Times are host-dependent:
compare the tables of one run, or runs on one host.
"""

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from dedonder_hj.cauchy import CauchyState, make_grid
from dedonder_hj.cli import _field_header, _field_rows, _write_csv

#: the workloads' grid, stored frames and verification samples per axis
N_NODES, FRAMES, SAMPLES = 128, 101, 7
PRECISION = 17


def field_table(grid, u, p_t, p_x):
    """(header, table, int_cols) of a fields.csv of frames at t in [0, 1]."""
    t = np.linspace(0.0, 1.0, FRAMES)
    frames = CauchyState(t, u(t), p_t(t), p_x(t)[:, :, None])
    return _field_header(1, grid.m), _field_rows(grid, frames), (1,)


def tables():
    grid = make_grid(N_NODES)
    x, k = grid.x[0], 2 * np.pi
    wave = np.sqrt(1 + k * k)

    def sine(f):
        return lambda t: f(t[:, None, None], x)

    def flat(f):
        return lambda t: np.broadcast_to(f(t)[:, None, None],
                                         (len(t), 1, N_NODES))

    axes = [np.linspace(0.0, 1.0, SAMPLES)] * 2 \
        + [np.linspace(-2.9, 2.9, SAMPLES)] * 3
    mesh = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(5, -1)
    u = mesh[2:]
    rounding = np.abs((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2]
                      - (u[2] * u[2] + u[1] * u[1] + u[0] * u[0]))
    zero = np.zeros(mesh.shape[1])
    verify = np.concatenate([mesh, [zero, rounding, zero]]).T
    return {
        "fields": field_table(
            grid, sine(lambda t, x: np.sin(k * x) * np.cos(wave * t)),
            sine(lambda t, x: -wave * np.sin(k * x) * np.sin(wave * t)),
            sine(lambda t, x: -k * np.cos(k * x) * np.cos(wave * t))),
        "characteristics": field_table(
            grid, flat(lambda t: 1.2 * np.cos(t)),
            flat(lambda t: -1.2 * np.sin(t)), flat(np.zeros_like)),
        "verify": (["t", "x", "u_1", "u_2", "u_3", "closedness", "hj",
                    "flatness"], verify, ()),
    }


def per_value(header, table, int_cols):
    """The bytes of formatting each value on its own."""
    lines = [",".join(header)]
    for row in table.tolist():
        lines.append(",".join(str(int(v)) if k in int_cols
                              else format(v, f".{PRECISION}g")
                              for k, v in enumerate(row)))
    return ("\n".join(lines) + "\n").encode()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args(argv)
    cases = tables()
    samples = {name: [] for name in cases}
    peaks, same = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        for r in range(args.rounds):
            for name in list(cases)[::1 if r % 2 == 0 else -1]:
                header, table, int_cols = cases[name]
                start = time.perf_counter()
                _write_csv(path, header, table, PRECISION, int_cols)
                samples[name].append((time.perf_counter() - start) * 1e3)
        for name, (header, table, int_cols) in cases.items():
            tracemalloc.start()
            try:
                _write_csv(path, header, table, PRECISION, int_cols)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            same[name] = path.read_bytes() == per_value(header, table,
                                                        int_cols)
    print(f"{args.rounds} interleaved rounds; ms per table: min / median, "
          f"tracemalloc peak of one write")
    for name, (_, table, _) in cases.items():
        s = samples[name]
        print(f"{name:16s} {table.shape[0]:6d} x {table.shape[1]}  "
              f"{min(s):7.2f} / {statistics.median(s):7.2f} ms  "
              f"{peaks[name] / 1024:6.0f} KB  "
              f"{'bytes identical' if same[name] else 'bytes DIFFER'}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
