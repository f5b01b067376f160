"""Finite-difference fallbacks against analytic partials.

A model or section given only its value falls back to
``models.central_difference`` for every partial. Each fallback is compared
with the analytic version of the same function, for m in {0, 1} and
n in {1, 2}: a time- and space-dependent family written out here, and the
built-in models. The Newton solves on value-only models must reach the
analytic answers too (their residual is finite-difference noise, so they
stop at the noise floor instead of at NEWTON_TOL).
"""

import numpy as np
import pytest

from dedonder_hj.cauchy import (CauchyState, make_grid,
                                recover_spatial_momenta, step_rk4)
from dedonder_hj.cotangent import solve_time_velocity
from dedonder_hj.hj import HJSection, linear_gamma, oscillator_gamma
from dedonder_hj.legendre import (FieldSection, hamiltonian_from_lagrangian,
                                  inverse_legendre, legendre_reduced,
                                  solve_velocities)
from dedonder_hj.models import (Dimensions, HamiltonianModel, JetSample,
                                LagrangianModel, builtin_model)

DIMS = [Dimensions(m=m, n=n) for m in (0, 1) for n in (1, 2)]
DIM_IDS = [f"m{d.m}n{d.n}" for d in DIMS]

#: central differences with step s = 1e-5 of functions of size below 10:
#: truncation (s^2 times a third derivative) and roundoff eps |f| / s stay
#: below 1e-10 for a first partial; a second partial, a difference of
#: differences, carries roundoff eps |f| / s^2, about 1e-5
FIRST_TOL = 1e-9
SECOND_TOL = 2e-5


def _a(t):
    return 1.0 + 0.1 * np.sin(t), 0.1 * np.cos(t)


def _c(x):
    s = np.sum(x)
    return 0.3 * np.cos(s), -0.3 * np.sin(s)


def _dv(u):
    return 0.7 * u + 0.2 * u ** 3


def analytic_lagrangian(dims):
    """L = a(t)/2 |u_t|^2 - |u_x|^2/2 - V(u) + c(x) u . u_t with every
    partial in closed form (point level)."""
    n, m = dims.n, dims.m

    def value(t, x, u, u_t, u_x):
        u, u_t, u_x = (np.asarray(v, dtype=float) for v in (u, u_t, u_x))
        return (0.5 * _a(t)[0] * np.sum(u_t ** 2, axis=0)
                - 0.5 * np.sum(u_x ** 2, axis=(0, 1))
                - np.sum(0.35 * u ** 2 + 0.05 * u ** 4, axis=0)
                + np.cos(np.sum(np.asarray(x, dtype=float), axis=0)) * 0.3
                * np.sum(u * u_t, axis=0))

    def vel_block(top):
        out = np.zeros((dims.n_velocity_slots,) + top.shape[1:])
        out[:n] = top
        return out

    return LagrangianModel(
        dims, value,
        d_u=lambda t, x, u, u_t, u_x: -_dv(u) + _c(x)[0] * u_t,
        d_ut=lambda t, x, u, u_t, u_x: _a(t)[0] * u_t + _c(x)[0] * u,
        d_ux=lambda t, x, u, u_t, u_x: -np.asarray(u_x, dtype=float),
        velocity_hessian=lambda t, x, u, u_t, u_x: np.diag(
            np.concatenate([np.full(n, _a(t)[0]), -np.ones(n * m)])),
        d2_vel_u=lambda t, x, u, u_t, u_x: vel_block(_c(x)[0] * np.eye(n)),
        d2_vel_t=lambda t, x, u, u_t, u_x: vel_block(_a(t)[1] * u_t),
        d2_vel_x=lambda t, x, u, u_t, u_x: vel_block(
            _c(x)[1] * np.outer(u, np.ones(m))))


def analytic_hamiltonian(dims):
    """H = b(t)/2 |p_t|^2 - |p_x|^2/2 + V(u) + c(x) u . p_t with
    b(t) = 1 + 0.1 cos t and every partial in closed form (point level)."""
    n, m = dims.n, dims.m

    def b(t):
        return 1.0 + 0.1 * np.cos(t), -0.1 * np.sin(t)

    def value(t, x, u, p_t, p_x):
        u, p_t, p_x = (np.asarray(v, dtype=float) for v in (u, p_t, p_x))
        return (0.5 * b(t)[0] * np.sum(p_t ** 2, axis=0)
                - 0.5 * np.sum(p_x ** 2, axis=(0, 1))
                + np.sum(0.35 * u ** 2 + 0.05 * u ** 4, axis=0)
                + np.cos(np.sum(np.asarray(x, dtype=float), axis=0)) * 0.3
                * np.sum(u * p_t, axis=0))

    def jacobian(t, x, u, p_t, p_x):
        jac = {"t": np.zeros((n, m + 1)), "x": np.zeros((n, m + 1, m)),
               "u": np.zeros((n, m + 1, n)), "p_t": np.zeros((n, m + 1, n)),
               "p_x": np.zeros((n, m + 1, n, m))}
        jac["t"][:, 0] = b(t)[1] * p_t
        jac["x"][:, 0, :] = _c(x)[1] * np.outer(u, np.ones(m))
        jac["u"][:, 0, :] = _c(x)[0] * np.eye(n)
        jac["p_t"][:, 0, :] = b(t)[0] * np.eye(n)
        for a in range(n):
            for j in range(m):
                jac["p_x"][a, 1 + j, a, j] = -1.0
        return jac

    return HamiltonianModel(
        dims, value,
        d_u=lambda t, x, u, p_t, p_x: _dv(u) + _c(x)[0] * p_t,
        d_pt=lambda t, x, u, p_t, p_x: b(t)[0] * p_t + _c(x)[0] * u,
        d_px=lambda t, x, u, p_t, p_x: -np.asarray(p_x, dtype=float),
        momentum_jacobian=jacobian)


def value_only(model):
    cls = type(model)
    return cls(model.dims, model._value)


def points(dims, count=5, seed=0, scale=1.5):
    rng = np.random.default_rng(seed)
    n, m = dims.n, dims.m
    for _ in range(count):
        yield (float(rng.uniform(-1, 1)), rng.uniform(-1, 1, m),
               rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n),
               rng.uniform(-scale, scale, (n, m)))


def builtin_cases():
    return [builtin_model("klein_gordon", {"mass": 0.8}),
            builtin_model("klein_gordon", {"n": 2, "mass": 1.1}),
            builtin_model("scalar_potential",
                          {"mass": 0.5, "potential": (0.0, 0.2, 0.0, 0.1)}),
            builtin_model("mechanics_oscillator", {"omega": 1.7})]


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_lagrangian_fallbacks_match_analytic(dims):
    exact = analytic_lagrangian(dims)
    fd = value_only(exact)
    for args in points(dims):
        for name in ("d_u", "d_ut", "d_ux"):
            assert np.allclose(getattr(fd, name)(*args),
                               getattr(exact, name)(*args),
                               rtol=0, atol=FIRST_TOL), name
        for name in ("velocity_hessian", "d2_vel_u", "d2_vel_t", "d2_vel_x"):
            got, want = getattr(fd, name)(*args), getattr(exact, name)(*args)
            assert got.shape == want.shape, name
            assert np.allclose(got, want, rtol=0, atol=SECOND_TOL), name


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_hamiltonian_fallbacks_match_analytic(dims):
    exact = analytic_hamiltonian(dims)
    fd = value_only(exact)
    for args in points(dims, seed=1):
        for name in ("d_u", "d_pt", "d_px"):
            assert np.allclose(getattr(fd, name)(*args),
                               getattr(exact, name)(*args),
                               rtol=0, atol=FIRST_TOL), name
        got = fd.momentum_jacobian(*args)
        want = exact.momentum_jacobian(*args)
        assert sorted(got) == ["p_t", "p_x", "t", "u", "x"]
        for key in want:
            assert got[key].shape == want[key].shape, key
            assert np.allclose(got[key], want[key], rtol=0,
                               atol=SECOND_TOL), key


@pytest.mark.parametrize("model", builtin_cases(), ids=lambda L: L.name)
def test_value_only_builtins_match_their_partials(model):
    fd_L = value_only(model)
    H = model.paired_hamiltonian
    fd_H = value_only(H)
    for args in points(model.dims, seed=2):
        for name in ("d_u", "d_ut", "d_ux"):
            assert np.allclose(getattr(fd_L, name)(*args),
                               getattr(model, name)(*args),
                               rtol=0, atol=FIRST_TOL), name
        for name in ("velocity_hessian", "d2_vel_u"):
            assert np.allclose(getattr(fd_L, name)(*args),
                               getattr(model, name)(*args),
                               rtol=0, atol=SECOND_TOL), name
        for name in ("d_u", "d_pt", "d_px"):
            assert np.allclose(getattr(fd_H, name)(*args),
                               getattr(H, name)(*args),
                               rtol=0, atol=FIRST_TOL), name
        got, want = fd_H.momentum_jacobian(*args), H.momentum_jacobian(*args)
        for key in want:
            assert np.allclose(got[key], want[key], rtol=0,
                               atol=SECOND_TOL), key


@pytest.mark.parametrize("n", [1, 2])
def test_batched_fallbacks_keep_the_node_axis_last(n):
    model = builtin_model("klein_gordon", {"n": n, "mass": 0.9})
    grid = make_grid(6)
    rng = np.random.default_rng(3)
    args = (0.2, grid.x, rng.uniform(-1, 1, (n, 6)),
            rng.uniform(-1, 1, (n, 6)), rng.uniform(-1, 1, (n, 1, 6)))
    fd = value_only(model)
    for name in ("d_u", "d_ut", "d_ux"):
        got, want = getattr(fd, name)(*args), getattr(model, name)(*args)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=FIRST_TOL), name
    got = fd.velocity_hessian(*args)
    assert got.shape == (2 * n, 2 * n, 6)
    assert np.allclose(got, model.velocity_hessian(*args), rtol=0,
                       atol=SECOND_TOL)


def _wave(dims):
    """u^a = A_a sin(w_a t + k_a sum(x) + phi_a) and its derivatives."""
    n = dims.n
    amp, w, k, phi = (np.array([1.0, 0.6])[:n], np.array([1.3, 0.7])[:n],
                      np.array([0.9, 1.7])[:n], np.array([0.2, 1.1])[:n])

    def arg(t, x):
        return w * t + k * np.sum(x) + phi

    def ones(x):
        return np.ones(np.shape(x))

    return {
        "u": lambda t, x: amp * np.sin(arg(t, x)),
        "u_t": lambda t, x: amp * w * np.cos(arg(t, x)),
        "u_x": lambda t, x: np.outer(amp * k * np.cos(arg(t, x)), ones(x)),
        "u_tt": lambda t, x: -amp * w ** 2 * np.sin(arg(t, x)),
        "u_tx": lambda t, x: np.outer(-amp * w * k * np.sin(arg(t, x)),
                                      ones(x)),
        "u_xx": lambda t, x: np.multiply.outer(
            np.outer(-amp * k ** 2 * np.sin(arg(t, x)), ones(x)), ones(x)),
    }


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_field_section_fallbacks_match_analytic(dims):
    f = _wave(dims)
    exact = FieldSection(dims, **f)
    fd = FieldSection(dims, f["u"])
    for t, x, *_ in points(dims, seed=4):
        for name in ("u_t", "u_x"):
            got, want = getattr(fd, name)(t, x), getattr(exact, name)(t, x)
            assert got.shape == want.shape, name
            assert np.allclose(got, want, rtol=0, atol=FIRST_TOL), name
        # differences of the u_t and u_x fallbacks
        for name in ("u_tt", "u_tx", "u_xx"):
            got, want = getattr(fd, name)(t, x), getattr(exact, name)(t, x)
            assert got.shape == want.shape, name
            assert np.allclose(got, want, rtol=0, atol=SECOND_TOL), name


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_hj_section_partials_share_seven_keys(dims):
    keys = ["pt_t", "pt_x", "pt_u", "px_t", "px_x", "px_u", "p_u"]
    for exact in (linear_gamma(dims, a=0.7, b=0.2, c=-0.4, d=0.1,
                               p_const=0.3),
                  oscillator_gamma(dims, omega=0.8, phi=0.1)):
        fd = HJSection(dims, lambda *a: exact.momenta(*a)[0],
                       lambda *a: exact.momenta(*a)[1], p=exact.p)
        for t, x, u, *_ in points(dims, seed=6):
            got, want = fd.partials(t, x, u), exact.partials(t, x, u)
            assert list(got) == list(want) == keys
            for key in keys:
                assert got[key].shape == np.shape(want[key]), key
                assert np.allclose(got[key], want[key], rtol=0,
                                   atol=FIRST_TOL), key


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_value_only_legendre_round_trip(dims):
    # velocities up to 7 put the finite-difference noise of dL/du_i above
    # NEWTON_TOL, where the line search stalls; the solve must stop there
    fd = value_only(analytic_lagrangian(dims))
    for t, x, u, u_t, u_x in points(dims, count=60, seed=6, scale=7.0):
        jet = JetSample(t, x, u, u_t, u_x, dims)
        back = inverse_legendre(fd, legendre_reduced(fd, jet))
        assert np.allclose(back.u_t, u_t, rtol=0, atol=1e-7)
        assert np.allclose(back.u_x, u_x, rtol=0, atol=1e-7)


def test_value_only_builtin_round_trip():
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    fd = value_only(kg)
    for t, x, u, u_t, u_x in points(kg.dims, count=200, seed=0, scale=7.0):
        jet = JetSample(t, x, u, u_t, u_x, kg.dims)
        back = inverse_legendre(fd, legendre_reduced(fd, jet))
        assert np.allclose(back.u_t, u_t, rtol=0, atol=1e-7)
        assert np.allclose(back.u_x, u_x, rtol=0, atol=1e-7)


def test_value_only_round_trip_at_large_values():
    # a quartic potential at |u| up to 30 puts |L| near 1e5, so the
    # noise eps |L| / step of dL/du_i, and the floor with it, scale by |L|
    model = builtin_model("scalar_potential",
                          {"mass": 1.0, "potential": (0.0, 0.0, 0.0, 0.0, 0.1)})
    fd = value_only(model)
    rng = np.random.default_rng(7)
    for _ in range(100):
        jet = JetSample(0.0, [0.0], rng.uniform(-30, 30, 1),
                        rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (1, 1)),
                        model.dims)
        back = inverse_legendre(fd, legendre_reduced(fd, jet))
        tol = 1e-9 * max(1.0, abs(model(jet)))
        assert np.allclose(back.u_t, jet.u_t, rtol=0, atol=tol)
        assert np.allclose(back.u_x, jet.u_x, rtol=0, atol=tol)


def test_value_only_nodewise_solves_match_analytic():
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    grid = make_grid(32)
    u = np.sin(2 * np.pi * grid.x)
    exact = recover_spatial_momenta(kg.paired_hamiltonian, grid, u)
    for H in (value_only(kg.paired_hamiltonian),
              hamiltonian_from_lagrangian(value_only(kg))):
        assert np.allclose(recover_spatial_momenta(H, grid, u), exact,
                           rtol=0, atol=1e-8)
    pi = 0.7 * np.cos(2 * np.pi * grid.x)
    assert np.allclose(solve_time_velocity(value_only(kg), grid, 0.0, u, pi),
                       solve_time_velocity(kg, grid, 0.0, u, pi),
                       rtol=0, atol=1e-8)


def test_value_only_rk4_step_stops_at_the_noise_floor():
    # a value-only Klein-Gordon Lagrangian goes through the Newton solves
    # of hamiltonian_from_lagrangian; where a full Newton step no longer
    # lowers a residual that is already at the noise floor, the solve
    # stops there instead of halving that step 30 times (109,685
    # evaluations of L for this step before, 5,598 after)
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    evals = [0]

    def value(*args):
        evals[0] += 1
        return kg._value(*args)

    H = hamiltonian_from_lagrangian(LagrangianModel(kg.dims, value))
    grid = make_grid(32)
    u = np.sin(2 * np.pi * grid.x)
    p_t = 0.5 * np.cos(2 * np.pi * grid.x)
    state = CauchyState(0.0, u, p_t, recover_spatial_momenta(
        kg.paired_hamiltonian, grid, u, p_t=p_t))
    evals[0] = 0
    got = step_rk4(H, grid, state, 1e-3)
    assert 0 < evals[0] <= 10_000
    want = step_rk4(kg.paired_hamiltonian, grid, state, 1e-3)
    assert np.allclose(got.u, want.u, rtol=0, atol=1e-12)
    assert np.allclose(got.p_t, want.p_t, rtol=0, atol=1e-9)
    assert np.allclose(got.p_x, want.p_x, rtol=0, atol=1e-8)


def test_value_only_hamiltonian_steps_on_differenced_jacobians(monkeypatch):
    # with no momentum Jacobian and no closed form, each recovery of the
    # stages starts from zero and differences its dH/dp_x, itself a
    # central difference of H; momentum_jacobian is never asked for
    exact = builtin_model("klein_gordon", {"mass": 1.0}).paired_hamiltonian
    H = value_only(exact)
    asked = []
    monkeypatch.setattr(HamiltonianModel, "momentum_jacobian",
                        lambda *args: asked.append(args))
    grid = make_grid(32)
    u = np.sin(2 * np.pi * grid.x)
    p_t = 0.5 * np.cos(2 * np.pi * grid.x)
    state = CauchyState(0.0, u, p_t, recover_spatial_momenta(H, grid, u,
                                                              p_t=p_t))
    got = step_rk4(H, grid, step_rk4(H, grid, state, 1e-3), 1e-3)
    assert asked == []
    want = step_rk4(exact, grid, step_rk4(exact, grid, state, 1e-3), 1e-3)
    assert np.allclose(got.u, want.u, rtol=0, atol=1e-12)
    assert np.allclose(got.p_t, want.p_t, rtol=0, atol=1e-9)
    assert np.allclose(got.p_x, want.p_x, rtol=0, atol=1e-8)


@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_velocity_hessian_without_node_axis_serves_every_node(dims):
    # analytic_lagrangian's velocity Hessian is a point-level (S, S) array
    # whatever the node axis; a batched solve broadcasts it over the nodes
    L = analytic_lagrangian(dims)
    n, m, N = dims.n, dims.m, 5
    rng = np.random.default_rng(12)
    u = rng.uniform(-1, 1, (n, N))
    p_t = rng.uniform(-1, 1, (n, N))
    p_x = rng.uniform(-1, 1, (n, m, N))
    x = np.zeros((m, N))
    u_t, u_x = solve_velocities(L, 0.3, x, u, p_t, p_x)
    for k in range(N):
        want = solve_velocities(L, 0.3, x[:, k], u[:, k], p_t[:, k],
                                p_x[..., k])
        assert np.allclose(u_t[:, k], want[0], rtol=0, atol=1e-12)
        assert np.allclose(u_x[..., k], want[1], rtol=0, atol=1e-12)
