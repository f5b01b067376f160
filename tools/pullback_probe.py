#!/usr/bin/env python3
"""Cost of the pullback residual of the lift check, pair by pair against
stacked.

    PYTHONPATH=src python3 tools/pullback_probe.py [--rounds R]

The state is sized like the ``characteristics`` benchmark workload:
constant Klein-Gordon data (mass 1, amplitude drawn from ``SEED``) on
N = 128 nodes, carried by the oscillator section (omega 1) to T = 1 with
dt = 1e-3 and every 10th step stored; the 8 pairs of lifted random
variations are drawn as ``hj_lift_solution_check`` draws them from a
generator seeded with ``SEED``. Over the checked frames, the pullback
pairings are computed two ways, alternating which runs first in each
round:

- pair by pair: 16 lifts and 8 two-argument pairings per frame;
- stacked: one lift of each stack of 8 and one stacked pairing per frame.

It prints the min and median milliseconds of each over the rounds. All
values (35 frames x 8 pairs) must agree in every bit; the exit code is 1
when they do not, 0 otherwise. Times are host-dependent: compare the two
columns of one run, not runs on different hosts.
"""

import argparse
import statistics
import sys
import time

import numpy as np

from dedonder_hj.cauchy import (_state_pairing_data, checked_frames,
                                make_grid, presymplectic_pairing,
                                random_smooth_variation,
                                standard_test_variations, take_frames)
from dedonder_hj.hj import (_lift_with, evolve_characteristics,
                            lift_by_gamma, oscillator_gamma)
from dedonder_hj.legendre import hamiltonian_from_lagrangian
from dedonder_hj.models import builtin_model

#: the characteristics workload's grid, step, horizon and frame stride
N_NODES, DT, T_FINAL, STORE_EVERY = 128, 1e-3, 1.0, 10
PAIRS = 8
SEED = 3


def frames_and_pairs():
    """H, the grid, per checked frame (state, pairing data, section
    partials), and the stacks V, W of the 8 pairs."""
    L = builtin_model("klein_gordon", {"mass": 1.0})
    H = hamiltonian_from_lagrangian(L)
    grid = make_grid(N_NODES)
    gamma = oscillator_gamma(L.dims, 1.0)
    amplitude = np.random.default_rng(SEED).uniform(0.5, 1.5)
    u0 = np.full((1, N_NODES), amplitude)
    times, u_frames = evolve_characteristics(H, gamma, grid, u0, 0.0, DT,
                                             T_FINAL, store_every=STORE_EVERY)
    _, idx = checked_frames(times)
    rng = np.random.default_rng(SEED)
    standard_test_variations(grid, 1, rng=rng)   # the check's first draws
    draws = random_smooth_variation(grid, 1, rng, vertical=False,
                                    count=2 * PAIRS)
    V, W = (take_frames(draws, slice(i, None, 2)) for i in (0, 1))
    lifted = lift_by_gamma(gamma, times, grid, u_frames)
    frames = []
    for k in idx:
        state = take_frames(lifted, k)
        frames.append((state, _state_pairing_data(H, grid, state),
                       gamma.partials(times[k], grid.x, state.u)))
    return H, grid, frames, V, W


def pair_by_pair(H, grid, frames, V, W):
    return np.array([
        [presymplectic_pairing(H, grid, state, _lift_with(d, V.k[s], V.du[s]),
                               _lift_with(d, W.k[s], W.du[s]), _data=data)
         for s in range(PAIRS)]
        for state, data, d in frames])


def stacked(H, grid, frames, V, W):
    return np.array([
        presymplectic_pairing(H, grid, state, _lift_with(d, V.k, V.du),
                              _lift_with(d, W.k, W.du), _data=data)
        for state, data, d in frames])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    setup = frames_and_pairs()
    runs = {"pair by pair": pair_by_pair, "stacked": stacked}
    samples = {name: [] for name in runs}
    values = {}
    for r in range(args.rounds):
        order = list(runs) if r % 2 == 0 else list(runs)[::-1]
        for name in order:
            start = time.perf_counter()
            values[name] = runs[name](*setup)
            samples[name].append((time.perf_counter() - start) * 1e3)
    a, b = values.values()
    same = a.shape == b.shape and a.tobytes() == b.tobytes()
    print(f"seed {SEED}, {args.rounds} interleaved rounds, {len(setup[2])} "
          f"frames x {PAIRS} pairs; ms per residual: min / median")
    print("   ".join(f"{name} {min(s):7.2f} / {statistics.median(s):7.2f}"
                     for name, s in samples.items())
          + f"   {a.size} values {'bit-identical' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
