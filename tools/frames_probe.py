#!/usr/bin/env python3
"""Cost of simulate's per-frame diagnostics, frame by frame against one
call per block of frames.

    PYTHONPATH=src python3 tools/frames_probe.py [--rounds R]

The run is sized like the ``simulate_diag`` benchmark workload: a
Klein-Gordon standing wave (mass 1, sine amplitude and phase drawn from
``SEED``) on N = 128 nodes, stepped to T = 1 with dt = 1e-3 and every
10th step stored, 101 frames. Its energies, constraint residuals and
trajectory residuals are computed two ways, alternating which runs first
in each round:

- frame by frame: each residual function called on one frame at a time
  (F = 1);
- in blocks: ``cli._diagnostics``, one call of each function per block of
  frames (``cauchy.frame_blocks``, 16 frames at N = 128).

It prints the min and median milliseconds of each over the rounds. All
values (3 x 101) must agree in every bit; the exit code is 1 when they
do not, 0 otherwise. Times are host-dependent: compare the two columns
of one run, not runs on different hosts.
"""

import argparse
import statistics
import sys
import time

import numpy as np

from dedonder_hj.cauchy import (CauchyState, dynamical_trajectory_residual,
                                frame_velocities, make_grid,
                                recover_spatial_momenta, run_simulation,
                                standard_test_variations, take_frames)
from dedonder_hj.cli import _diagnostics
from dedonder_hj.cotangent import (instantaneous_hamiltonian,
                                   restriction_map_R,
                                   time_legendre_constraint_residual)
from dedonder_hj.models import builtin_model

#: the simulate_diag workload's grid, step, horizon and frame stride
N_NODES, DT, T_FINAL, STORE_EVERY = 128, 1e-3, 1.0, 10
MASS = 1.0
SEED = 3


def stored_run():
    """L, H, the grid and the stored trajectory of the workload's run."""
    L = builtin_model("klein_gordon", {"mass": MASS})
    H = L.paired_hamiltonian
    grid = make_grid(N_NODES)
    rng = np.random.default_rng(SEED)
    amplitude, phase = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * np.pi)
    u = amplitude * np.sin(2 * np.pi * grid.x + phase)
    p_t = np.zeros_like(u)
    state0 = CauchyState(0.0, u, p_t, recover_spatial_momenta(H, grid, u, p_t))
    n_steps = int(round(T_FINAL / DT))
    return L, H, grid, run_simulation(H, grid, state0, DT, n_steps,
                                      store_every=STORE_EVERY)


def frame_by_frame(L, H, grid, stored, seed):
    test = standard_test_variations(grid, stored.u.shape[1],
                                    rng=np.random.default_rng(seed))
    velocities = frame_velocities(stored, stored.t[1] - stored.t[0])
    states = [take_frames(stored, k) for k in range(len(stored.t))]
    return ([instantaneous_hamiltonian(L, grid, restriction_map_R(s))
             for s in states],
            [time_legendre_constraint_residual(L, grid, s) for s in states],
            [dynamical_trajectory_residual(H, grid, s, [v[k] for v in
                                                        velocities], test)
             for k, s in enumerate(states)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    L, H, grid, traj = stored_run()
    runs = {"frame by frame": frame_by_frame, "in blocks": _diagnostics}
    samples = {name: [] for name in runs}
    values = {}
    for r in range(args.rounds):
        order = list(runs) if r % 2 == 0 else list(runs)[::-1]
        for name in order:
            start = time.perf_counter()
            values[name] = runs[name](L, H, grid, traj, SEED)
            samples[name].append((time.perf_counter() - start) * 1e3)
    a, b = (np.array(v) for v in values.values())
    same = a.shape == b.shape and a.tobytes() == b.tobytes()
    print(f"seed {SEED}, {args.rounds} interleaved rounds, "
          f"{len(traj.t)} frames; ms per run: min / median")
    print("   ".join(f"{name} {min(s):7.2f} / {statistics.median(s):7.2f}"
                     for name, s in samples.items())
          + f"   {a.size} values {'bit-identical' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
