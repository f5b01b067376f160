#!/usr/bin/env python3
"""Per-step cost of method-of-lines RK4 against a bare-numpy loop.

    PYTHONPATH=src python3 tools/step_probe.py [--rounds R]

For N = 128 and N = 1024 a Klein-Gordon standing wave (mass 1, sine
amplitude and phase drawn from ``SEED``) is stepped two ways, alternating
which runs first in each round:

- ``run_simulation`` of the built-in Klein-Gordon Hamiltonian;
- a bare-numpy RK4 with the same arithmetic in the same order, the
  stencil padded by the same one gather, and the same checks: dt, the
  field shapes at each step and recovery, the closed-form start's
  residual against ``NEWTON_TOL`` at each recovery, and the non-finite
  and ``BLOWUP_BOUND`` tests after each step. The gap between the two
  is the library's Python calls.

It prints the min and median microseconds per step of each over the
rounds. The final states must agree in every bit; the exit code is 1 when
they do not, 0 otherwise. Times are host-dependent: compare the two
columns of one run, not runs on different hosts.
"""

import argparse
import statistics
import sys
import time

import numpy as np

from dedonder_hj.cauchy import (BLOWUP_BOUND, BlowupError, CauchyState,
                                GridError, make_grid, recover_spatial_momenta,
                                run_simulation, take_frames)
from dedonder_hj.legendre import NEWTON_TOL, NewtonError
from dedonder_hj.models import builtin_model

#: (N, dt, steps per sample); dt as in the benchmark's simulate scenarios
SIZES = ((128, 1e-3, 400), (1024, 2.5e-4, 200))
MASS = 1.0
SEED = 3


def _derivative(values, h, wrap):
    """The periodic central difference, padded by one gather through the
    wrap index ``arange(-1, N + 1) % N``, as the library pads it."""
    padded = values.take(wrap, axis=-1)
    return (padded[..., 2:] - padded[..., :-2]) / (2.0 * h)


def bare_run(u, p, t, dt, n_steps, h, n_nodes):
    """Klein-Gordon RK4 in bare numpy, with every check of the library's
    path; returns the final (t, u, p_t, p_x)."""
    shape = (u.shape[0], n_nodes)
    coeff = 1.0 * MASS ** 2    # the built-in dH/du = sign * mass**2 * u
    wrap = np.arange(-1, n_nodes + 1) % n_nodes

    def recover(u, p):
        if u.shape != shape or p.shape != shape:
            raise GridError("fields must have shape (n, N)")
        u_x = _derivative(u, h, wrap)[:, None, :]
        p_x = 0.0 - u_x
        if not np.abs(-p_x - u_x).max() <= NEWTON_TOL:
            raise NewtonError("momentum recovery")
        return p_x

    def rhs(u, p, p_x):
        return p.copy(), -(coeff * u) - _derivative(p_x[:, 0, :], h, wrap)

    p_x = recover(u, p)
    for k in range(n_steps):
        if not 0 < dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if u.shape != shape or p.shape != shape:
            raise GridError("fields must have shape (n, N)")
        k1u, k1p = rhs(u, p, p_x)
        u2, p2 = u + dt / 2 * k1u, p + dt / 2 * k1p
        k2u, k2p = rhs(u2, p2, recover(u2, p2))
        u3, p3 = u + dt / 2 * k2u, p + dt / 2 * k2p
        k3u, k3p = rhs(u3, p3, recover(u3, p3))
        u4, p4 = u + dt * k3u, p + dt * k3p
        k4u, k4p = rhs(u4, p4, recover(u4, p4))
        u = u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        p = p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        t = t + dt
        p_x = recover(u, p)
        for values in (u, p):
            peak = np.abs(values).max()
            if not peak < np.inf or peak > BLOWUP_BOUND:
                raise BlowupError(f"step {k + 1}")
    return t, u, p, p_x


def probe(n_nodes, dt, n_steps, rounds, rng):
    H = builtin_model("klein_gordon", {"mass": MASS}).paired_hamiltonian
    grid = make_grid(n_nodes)
    amplitude, phase = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * np.pi)
    u = amplitude * np.sin(2 * np.pi * grid.x + phase)
    p_t = np.zeros_like(u)
    state0 = CauchyState(0.0, u, p_t, recover_spatial_momenta(H, grid, u, p_t))

    def library():
        final = take_frames(run_simulation(H, grid, state0, dt, n_steps,
                                           store_every=n_steps), -1)
        return final.t, final.u, final.p_t, final.p_x

    def bare():
        return bare_run(state0.u, state0.p_t, state0.t, dt, n_steps,
                        grid.spacing, n_nodes)

    runs = {"run_simulation": library, "bare numpy": bare}
    samples = {name: [] for name in runs}
    finals = {}
    for r in range(rounds):
        order = list(runs) if r % 2 == 0 else list(runs)[::-1]
        for name in order:
            start = time.perf_counter()
            finals[name] = runs[name]()
            samples[name].append(
                (time.perf_counter() - start) / n_steps * 1e6)
    same = all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(*finals.values()))
    return samples, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=9)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)
    ok = True
    print(f"seed {SEED}, {args.rounds} interleaved rounds; "
          f"us per step: min / median")
    for n_nodes, dt, n_steps in SIZES:
        samples, same = probe(n_nodes, dt, n_steps, args.rounds, rng)
        cells = "   ".join(
            f"{name} {min(s):7.1f} / {statistics.median(s):7.1f}"
            for name, s in samples.items())
        print(f"N = {n_nodes:5d} ({n_steps} steps): {cells}   "
              f"final states {'bit-identical' if same else 'DIFFER'}")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
