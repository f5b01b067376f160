"""Bit-level pins of the velocity solve.

sha256 digests of the velocities that ``inverse_legendre`` returns at the
point level and ``solve_velocities`` returns batched over nodes, for a
built-in, a value-only and a non-quadratic model with m in {0, 1} and
n in {1, 2}. The digests were recorded before the two Newton loops were
merged into one; a refactor of the solver must keep every bit, and a
change to the iteration itself must say so and record new digests.
"""

import hashlib

import numpy as np
import pytest

from dedonder_hj.legendre import (inverse_legendre, legendre_reduced,
                                  solve_velocities)
from dedonder_hj.models import (Dimensions, JetSample, LagrangianModel,
                                builtin_model)


def quartic(dims):
    """L = |u_t|^2/2 + |u_t|^4/12 - |u_x|^2/2 - |u_x|^4/24 - |u|^2/2 with
    analytic first partials; its velocity Hessian is differenced."""

    def value(t, x, u, u_t, u_x):
        u, u_t, u_x = (np.asarray(a, dtype=float) for a in (u, u_t, u_x))
        return (np.sum(0.5 * u_t ** 2 + u_t ** 4 / 12, axis=0)
                - np.sum(0.5 * u_x ** 2 + u_x ** 4 / 24, axis=(0, 1))
                - np.sum(0.5 * u ** 2, axis=0))

    return LagrangianModel(
        dims, value, name="quartic",
        d_u=lambda t, x, u, u_t, u_x: -np.asarray(u, dtype=float),
        d_ut=lambda t, x, u, u_t, u_x: u_t + np.asarray(u_t) ** 3 / 3,
        d_ux=lambda t, x, u, u_t, u_x: -u_x - np.asarray(u_x) ** 3 / 6)


def model(kind, dims):
    if kind == "quartic":
        return quartic(dims)
    name = "mechanics_oscillator" if dims.m == 0 else "klein_gordon"
    params = {"n": dims.n, "omega" if dims.m == 0 else "mass": 1.3}
    L = builtin_model(name, params)
    return LagrangianModel(dims, L._value) if kind == "value_only" else L


def digest(kind, m, n):
    dims = Dimensions(m=m, n=n)
    L = model(kind, dims)
    rng = np.random.default_rng(100 + 10 * m + n)
    h = hashlib.sha256()
    for _ in range(8):
        jet = JetSample(rng.uniform(-1, 1), rng.uniform(-1, 1, m),
                        rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n),
                        rng.uniform(-1.5, 1.5, (n, m)), dims)
        back = inverse_legendre(L, legendre_reduced(L, jet))
        h.update(back.u_t.tobytes() + back.u_x.tobytes())
    N = 16
    u_t, u_x = solve_velocities(L, 0.3, rng.uniform(0, 1, (m, N)),
                                rng.uniform(-1, 1, (n, N)),
                                rng.uniform(-1, 1, (n, N)),
                                rng.uniform(-1, 1, (n, m, N)))
    h.update(u_t.tobytes() + u_x.tobytes())
    return h.hexdigest()[:16]


DIGESTS = {
    ("builtin", 0, 1): "7cda3b87e150ea7a",
    ("builtin", 0, 2): "d098fb810156e3b4",
    ("builtin", 1, 1): "af22d4c02c1db57c",
    ("builtin", 1, 2): "af89f8d3e50ffe9d",
    ("value_only", 0, 1): "bc5a023055406411",
    ("value_only", 0, 2): "c32d8f5d721c0907",
    ("value_only", 1, 1): "23956a87f08e0297",
    ("value_only", 1, 2): "720aef5cc0624dfb",
    ("quartic", 0, 1): "546a1244300a052f",
    ("quartic", 0, 2): "bb123b501a0aac7b",
    ("quartic", 1, 1): "0620b7a544f5df20",
    ("quartic", 1, 2): "19cc9a9f67a3fa9a",
}


@pytest.mark.parametrize("kind, m, n", sorted(DIGESTS))
def test_velocity_solves_keep_their_bits(kind, m, n):
    assert digest(kind, m, n) == DIGESTS[kind, m, n]
