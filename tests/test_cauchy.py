import collections
import os
import re
import sys

import numpy as np
import pytest

from dedonder_hj import cauchy
from dedonder_hj.cauchy import (BlowupError, CauchyState, GridError,
                                TangentVariation,
                                dynamical_trajectory_residual,
                                gradient_fields, integrate_density, make_grid,
                                presymplectic_pairing, random_smooth_variation,
                                recover_spatial_momenta, run_simulation,
                                spatial_derivative, standard_test_variations,
                                step_rk4, take_frames, time_derivative_frames)
from dedonder_hj.legendre import NEWTON_TOL, hamiltonian_from_lagrangian
from dedonder_hj.models import (Dimensions, HamiltonianModel,
                                LagrangianModel, ModelError, builtin_model,
                                replace)

TWO_PI = 2.0 * np.pi


def wave_hamiltonian():
    return hamiltonian_from_lagrangian(builtin_model("free_wave"))


def kg_hamiltonian(mass=1.0):
    return hamiltonian_from_lagrangian(
        builtin_model("klein_gordon", {"mass": mass}))


def exact_wave_state(grid, t):
    xs = grid.x[0]
    u = np.sin(TWO_PI * (xs - t))[None, :]
    p_t = -TWO_PI * np.cos(TWO_PI * (xs - t))[None, :]
    p_x = -TWO_PI * np.cos(TWO_PI * (xs - t))[None, None, :]
    return CauchyState(t, u, p_t, p_x)


def exact_wave_state_dot(grid, t):
    xs = grid.x[0]
    u_dot = -TWO_PI * np.cos(TWO_PI * (xs - t))[None, :]
    p_t_dot = -TWO_PI ** 2 * np.sin(TWO_PI * (xs - t))[None, :]
    p_x_dot = -TWO_PI ** 2 * np.sin(TWO_PI * (xs - t))[None, None, :]
    return u_dot, p_t_dot, p_x_dot


def random_variation(grid, rng, vertical=False):
    return random_smooth_variation(grid, 1, rng, vertical=vertical)


# -- grid -----------------------------------------------------------------------

def test_make_grid_uniform():
    g = make_grid(4, 1.0)
    assert g.spacing == 0.25
    assert np.allclose(g.weights, 0.25)
    assert np.allclose(g.x[0], [0.0, 0.25, 0.5, 0.75])


def test_make_grid_point():
    g = make_grid(1, m=0)
    assert g.n_nodes == 1 and g.weights[0] == 1.0


@pytest.mark.parametrize("N", [1, 3, 17, 128])
def test_weights_sum_to_length(N):
    g = make_grid(N, 2.5)
    assert np.sum(g.weights) == pytest.approx(2.5, rel=1e-14)


def test_make_grid_errors():
    with pytest.raises(GridError):
        make_grid(0)
    with pytest.raises(GridError):
        make_grid(4, m=0)
    with pytest.raises(GridError):
        make_grid(4, length=-1.0)
    with pytest.raises(GridError,
                       match=r"^only m in \{0, 1\} is supported at runtime$"):
        make_grid(4, m=2)
    for length in (np.nan, np.inf, -np.inf):
        with pytest.raises(GridError,
                           match="^length must be positive and finite$"):
            make_grid(16, length=length)
    # numpy's arange and Python's range refused these in their own words
    for n_nodes in (float("nan"), 2.5):
        with pytest.raises(GridError, match="^n_nodes must be an integer, "
                                            f"got {n_nodes!r}$"):
            make_grid(n_nodes)


@pytest.mark.parametrize("call, message", [
    (lambda: CauchyState(0.0, [[np.nan]], [[0.0]], np.zeros((1, 1, 1))),
     "non-finite field u"),
    (lambda: cauchy.checked_frames([0.0, 0.1, 0.2, 0.3]),
     "need at least 5 stored frames"),
    (lambda: cauchy.checked_frames([0.0, 0.1, 0.2, 0.3, 0.5]),
     "frames must be uniformly spaced in time"),
    (lambda: time_derivative_frames(np.zeros((4, 1)), 0.1),
     "need at least 5 frames for time differencing"),
    (lambda: CauchyState(np.nan, [[0.0]], [[0.0]], np.zeros((1, 1, 1))),
     "non-finite t nan"),
    (lambda: CauchyState(-np.inf, [[0.0]], [[0.0]], np.zeros((1, 1, 1))),
     "non-finite t -inf"),
    (lambda: CauchyState(0.0, np.zeros((1, 16)), np.zeros((1, 16)),
                         np.zeros((1, 16))),
     r"p_x must have shape \(F\?, n, m, N\) = \(1, m, 16\), got \(1, 16\)"),
    (lambda: CauchyState(0.0, np.zeros((1, 16)), np.zeros((1, 16)),
                         np.zeros((2, 1, 16))),
     r"p_x must have shape .*, got \(2, 1, 16\)"),
    (lambda: CauchyState(0.0, np.zeros(16), np.zeros(16), np.zeros(16)),
     r"u must have shape \(F\?, n, N\) = \(n, N\), got \(16,\)"),
    (lambda: CauchyState(0.0, np.zeros((1, 16)), np.zeros((1, 15)),
                         np.zeros((1, 1, 16))),
     r"p_t must have shape \(F\?, n, N\) = \(1, 16\), got \(1, 15\)"),
], ids=["non-finite-state", "four-frames", "non-uniform-frames",
        "four-frames-to-difference", "nan-t", "infinite-t", "p_x-without-m",
        "p_x-of-two-components", "one-dimensional-u", "short-p_t"])
def test_states_and_frames_refused(call, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        call()


# -- derivative and quadrature ----------------------------------------------------

def test_spatial_derivative_accuracy():
    g = make_grid(128)
    xs = g.x[0]
    d = spatial_derivative(g, np.sin(TWO_PI * xs))
    assert np.max(np.abs(d - TWO_PI * np.cos(TWO_PI * xs))) <= 1e-2


def test_spatial_derivative_constant_exact():
    g = make_grid(32)
    assert not spatial_derivative(g, np.full(32, 3.7)).any()


def test_spatial_derivative_second_order():
    errs = []
    for N in (64, 128, 256):
        g = make_grid(N)
        xs = g.x[0]
        d = spatial_derivative(g, np.sin(TWO_PI * xs))
        errs.append(np.max(np.abs(d - TWO_PI * np.cos(TWO_PI * xs))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_spatial_derivative_needs_three_nodes():
    with pytest.raises(GridError):
        spatial_derivative(make_grid(2), np.zeros(2))


@pytest.mark.parametrize("call", [
    lambda g: spatial_derivative(g, np.ones((1, 8))),
    lambda g: gradient_fields(g, np.ones((1, 8))),
    lambda g: integrate_density(g, np.ones((1, 8))),
    lambda g: integrate_density(g, np.ones(1)),
])
def test_grid_functions_refuse_a_node_axis_of_another_length(call):
    # a (1, 8) stencil at the 16-node spacing, a broadcast of 1 node over
    # the 16 weights or a raw numpy error, before the check
    with pytest.raises(GridError, match=r"^values must have shape \(\.\.\., "
                       r"N\) = \(\.\.\., 16\), got \(1(, 8)?,?\)$"):
        call(make_grid(16))


def test_integrate_density():
    g = make_grid(64)
    xs = g.x[0]
    assert integrate_density(g, np.ones(64)) == pytest.approx(1.0, abs=1e-15)
    assert integrate_density(g, np.sin(TWO_PI * xs)) == pytest.approx(0.0, abs=1e-12)
    assert integrate_density(g, np.sin(TWO_PI * xs) ** 2) == pytest.approx(0.5, abs=1e-12)


def test_summation_by_parts_periodic():
    # integrate(f Dg + g Df) vanishes on periodic grids (exact stencil
    # antisymmetry; floating-point roundoff only)
    g = make_grid(64)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = rng.normal(size=64)
        h = rng.normal(size=64)
        val = integrate_density(g, f * spatial_derivative(g, h)
                                + h * spatial_derivative(g, f))
        assert abs(val) <= 1e-13


# -- momentum recovery and dynamics -----------------------------------------------

def test_recover_spatial_momenta_wave():
    g = make_grid(128)
    H = wave_hamiltonian()
    u = np.sin(TWO_PI * g.x[0])[None, :]
    p_x = recover_spatial_momenta(H, g, u)
    assert np.max(np.abs(p_x[:, 0, :] + spatial_derivative(g, u[0]))) <= 1e-12
    assert np.max(np.abs(p_x[0, 0] + TWO_PI * np.cos(TWO_PI * g.x[0]))) <= 1e-2


def test_recover_constant_field():
    g = make_grid(32)
    assert not recover_spatial_momenta(wave_hamiltonian(), g,
                                       np.full((1, 32), 2.0)).any()


def test_recover_mass_term_invariant():
    g = make_grid(64)
    u = np.cos(TWO_PI * g.x[0])[None, :]
    a = recover_spatial_momenta(wave_hamiltonian(), g, u)
    b = recover_spatial_momenta(kg_hamiltonian(1.0), g, u)
    assert np.allclose(a, b, atol=1e-12)


# the Hamilton-De Donder-Weyl right-hand side of every RK4 stage

def stage_functions(H, g):
    """(recover, rhs) of the stages that step_rk4 binds for H and g."""
    return cauchy._stages(H, g)[2:]


def test_hdw_rhs_constant_klein_gordon():
    g = make_grid(16)
    recover, rhs = stage_functions(kg_hamiltonian(1.0), g)
    u, p = np.ones((1, 16)), np.zeros((1, 16))
    u_dot, p_t_dot = rhs(0.0, u, p)
    assert not u_dot.any()
    assert np.allclose(p_t_dot, -1.0, atol=1e-14)
    assert not recover(0.0, u, p).any()


def test_hdw_rhs_zero_state():
    g = make_grid(16)
    recover, rhs = stage_functions(wave_hamiltonian(), g)
    u = p = np.zeros((1, 16))
    u_dot, p_t_dot = rhs(0.0, u, p)
    assert not u_dot.any() and not p_t_dot.any()
    assert not recover(0.0, u, p).any()


def test_hdw_rhs_wave_discrete_laplacian():
    # the composed stencil: p_t_dot equals D(D u) and approximates u_xx
    g = make_grid(128)
    u = np.sin(TWO_PI * g.x[0])[None, :]
    _, p_t_dot = stage_functions(wave_hamiltonian(), g)[1](
        0.0, u, np.zeros((1, 128)))
    composed = spatial_derivative(g, spatial_derivative(g, u))
    assert np.max(np.abs(p_t_dot - composed)) <= 1e-12
    assert np.max(np.abs(p_t_dot + TWO_PI ** 2 * u)) <= 5e-2


@pytest.mark.parametrize("value_only", [False, True])
def test_hdw_rhs_is_the_stage_right_hand_side(value_only):
    # without a p_x, the right-hand side recovers it from (t, u, p_t), as
    # the later stages of a step do; passed the recovered p_x, as a chained
    # first stage is, it gives the same arrays bit for bit; the stage's
    # recovery is recover_spatial_momenta's
    L = builtin_model("klein_gordon", {"mass": 1.0})
    if value_only:
        L = LagrangianModel(L.dims, L._value)
    H = hamiltonian_from_lagrangian(L)
    g = make_grid(16)
    recover, rhs = stage_functions(H, g)
    u = np.sin(TWO_PI * g.x[0])[None, :]
    p = 0.5 * np.cos(TWO_PI * g.x[0])[None, :]
    p_x = recover_spatial_momenta(H, g, u, p_t=p, t=0.2)
    assert np.array_equal(recover(0.2, u, p), p_x)
    for a, b in zip(rhs(0.2, u, p), rhs(0.2, u, p, p_x)):
        assert np.array_equal(a, b)


def test_step_rk4_constant_klein_gordon():
    # spatially constant data reduces to the harmonic oscillator: u = cos t
    g = make_grid(16)
    H = kg_hamiltonian(1.0)
    s = CauchyState(0.0, np.ones((1, 16)), np.zeros((1, 16)),
                    np.zeros((1, 1, 16)))
    for _ in range(1000):
        s = step_rk4(H, g, s, 1e-3)
    assert np.max(np.abs(s.u - np.cos(1.0))) <= 1e-9


def test_step_rk4_zero_state():
    g = make_grid(8)
    s = CauchyState(0.0, np.zeros((1, 8)), np.zeros((1, 8)),
                    np.zeros((1, 1, 8)))
    s = step_rk4(wave_hamiltonian(), g, s, 1e-2)
    assert not s.u.any() and not s.p_t.any() and not s.p_x.any()


def test_step_rk4_wave_dispersion_oracle():
    # The semi-discrete system for the mode-k travelling-wave data has the
    # closed-form solution
    #   u_N(x, t) = cos(w t) sin(k x) - (k / w) sin(w t) cos(k x),
    #   w = sin(k h) / h,
    # so the run's L-infinity error against sin(k (x - t)) is known exactly
    # up to the (negligible) RK4 time error. Check the measured error
    # against this oracle and its second-order decay.
    H = wave_hamiltonian()
    T = 0.2
    errors = {}
    for N in (128, 256):
        g = make_grid(N)
        s0 = exact_wave_state(g, 0.0)
        traj = run_simulation(H, g, s0, 1e-3, int(T / 1e-3),
                              store_every=int(T / 1e-3))
        exact = exact_wave_state(g, T)
        errors[N] = float(np.max(np.abs(traj.u[-1] - exact.u)))
        xs = g.x[0]
        w = np.sin(TWO_PI * g.spacing) / g.spacing
        u_semi = np.cos(w * T) * np.sin(TWO_PI * xs) \
            - (TWO_PI / w) * np.sin(w * T) * np.cos(TWO_PI * xs)
        predicted = float(np.max(np.abs(u_semi - exact.u[0])))
        assert errors[N] == pytest.approx(predicted, rel=1e-4)
    assert 3.5 <= errors[128] / errors[256] <= 4.5


# -- pairing ------------------------------------------------------------------

def test_pairing_unit_example():
    g = make_grid(128)
    s = exact_wave_state(g, 0.0)
    shape = (1, 128)
    X = TangentVariation(0.0, np.ones(shape), np.zeros(shape),
                         np.zeros((1, 1, 128)))
    Y = TangentVariation(0.0, np.zeros(shape), np.ones(shape),
                         np.zeros((1, 1, 128)))
    assert presymplectic_pairing(wave_hamiltonian(), g, s, X, Y) \
        == pytest.approx(1.0, abs=1e-14)


def test_pairing_antisymmetry_exact():
    g = make_grid(32)
    H = kg_hamiltonian(0.7)
    s = exact_wave_state(g, 0.1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        X = random_variation(g, rng)
        Y = random_variation(g, rng)
        assert presymplectic_pairing(H, g, s, X, X) == 0.0
        assert presymplectic_pairing(H, g, s, X, Y) \
            == -presymplectic_pairing(H, g, s, Y, X)


def test_pairing_bilinear():
    g = make_grid(32)
    H = wave_hamiltonian()
    s = exact_wave_state(g, 0.0)
    rng = np.random.default_rng(4)
    X1 = random_variation(g, rng)
    X2 = random_variation(g, rng)
    Y = random_variation(g, rng)
    a, b = 1.7, -0.4
    comb = TangentVariation(a * X1.k + b * X2.k, a * X1.du + b * X2.du,
                            a * X1.dp_t + b * X2.dp_t,
                            a * X1.dp_x + b * X2.dp_x)
    lhs = presymplectic_pairing(H, g, s, comb, Y)
    rhs = a * presymplectic_pairing(H, g, s, X1, Y) \
        + b * presymplectic_pairing(H, g, s, X2, Y)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pairing_vertical_reduction():
    # for vertical variations only the canonical block survives:
    # pairing = integral of (X_u Y_pt - X_pt Y_u)
    g = make_grid(64)
    H = kg_hamiltonian(1.2)
    s = exact_wave_state(g, 0.3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = random_variation(g, rng, vertical=True)
        Y = random_variation(g, rng, vertical=True)
        expected = integrate_density(
            g, np.sum(X.du * Y.dp_t - X.dp_t * Y.du, axis=0))
        assert presymplectic_pairing(H, g, s, X, Y) \
            == pytest.approx(expected, abs=1e-14)


def test_pairing_indicator_contraction_oracle():
    # Independent derivation: contracting the trajectory velocity with a
    # unit indicator must weigh the split field-equation residuals by the
    # node weight,
    #   pairing(c_dot, e^u_j)  = w ( -H_u - p_t_dot - D p_x )_j
    #   pairing(c_dot, e^pt_j) = w ( u_dot - H_pt )_j
    #   pairing(c_dot, e^px_j) = w ( D u - H_px )_j
    # computed here from the model partials and stencils directly.
    g = make_grid(32)
    H = kg_hamiltonian(0.8)
    rng = np.random.default_rng(21)
    u = rng.normal(size=(1, 32))
    p_t = rng.normal(size=(1, 32))
    p_x = rng.normal(size=(1, 1, 32))
    state = CauchyState(0.0, u, p_t, p_x)
    u_dot = rng.normal(size=(1, 32))
    p_t_dot = rng.normal(size=(1, 32))
    p_x_dot = rng.normal(size=(1, 1, 32))
    c_dot = TangentVariation(1.0, u_dot, p_t_dot, p_x_dot)
    args = (0.0, g.x, u, p_t, p_x)
    r_u = -H.d_u(*args) - p_t_dot - spatial_derivative(g, p_x[:, 0, :])
    r_pt = u_dot - H.d_pt(*args)
    r_px = spatial_derivative(g, u) - H.d_px(*args)[:, 0, :]
    w = g.weights[0]
    for j in (0, 7, 19):
        e_u = TangentVariation(0.0, unit(g, j), np.zeros((1, 32)),
                               np.zeros((1, 1, 32)))
        e_pt = TangentVariation(0.0, np.zeros((1, 32)), unit(g, j),
                                np.zeros((1, 1, 32)))
        e_px = TangentVariation(0.0, np.zeros((1, 32)), np.zeros((1, 32)),
                                unit(g, j)[:, None, :])
        assert presymplectic_pairing(H, g, state, c_dot, e_u) \
            == pytest.approx(w * r_u[0, j], abs=1e-13)
        assert presymplectic_pairing(H, g, state, c_dot, e_pt) \
            == pytest.approx(w * r_pt[0, j], abs=1e-13)
        assert presymplectic_pairing(H, g, state, c_dot, e_px) \
            == pytest.approx(w * r_px[0, j], abs=1e-13)


def unit(grid, j):
    out = np.zeros((1, grid.n_nodes))
    out[0, j] = 1.0
    return out


def test_pairing_refuses_variations_that_do_not_fit_the_state():
    # variations on 8 nodes at a state on 16, and a dp_x of another m:
    # numpy's "operands could not be broadcast together" before; N and m
    # are sizes the grid fixes
    g = make_grid(16)
    rng = np.random.default_rng(4)
    state = CauchyState(0.0, rng.normal(size=(1, 16)),
                        rng.normal(size=(1, 16)), rng.normal(size=(1, 1, 16)))
    fit = random_smooth_variation(g, 1, rng, vertical=False, count=3)
    off = random_smooth_variation(make_grid(8), 1, rng, vertical=False,
                                  count=3)
    wide = replace(fit, dp_x=np.ones((3, 1, 2, 16)))
    for X, Y, name, spec, bound, got in (
            (off, off, "X.du", "R?, n, N", "1, 16", "1, 8"),
            (fit, off, "Y.du", "T?, n, N", "1, 16", "1, 8"),
            (fit, wide, "Y.dp_x", "T?, n, m, N", "1, 1, 16", "1, 2, 16")):
        for pair, lead in (((X, Y), "3, "),
                           ((take_frames(X, 0), take_frames(Y, 1)), "")):
            with pytest.raises(GridError, match="^" + re.escape(
                    f"{name} must have shape ({spec}) = ({lead}{bound}), "
                    f"got ({lead}{got})") + "$"):
                presymplectic_pairing(kg_hamiltonian(), g, state, *pair)


def test_pairing_refuses_stacks_of_different_lengths():
    # stacks of 3 and 2: numpy's "operands could not be broadcast together
    # with shapes (3,16) (2,1)" before
    g = make_grid(16)
    rng = np.random.default_rng(5)
    state = CauchyState(0.0, rng.normal(size=(1, 16)),
                        rng.normal(size=(1, 16)), rng.normal(size=(1, 1, 16)))
    X, Y = (random_smooth_variation(g, 1, rng, vertical=False, count=S)
            for S in (3, 2))
    for pair, S, other in (((X, Y), 3, 2), ((Y, X), 2, 3)):
        with pytest.raises(ModelError, match=rf"^Y.k must have shape "
                           rf"\(S\?,\) = \({S},\), got \({other},\)$"):
            presymplectic_pairing(kg_hamiltonian(), g, state, *pair)
    # a single variation against a stack still pairs with each row
    assert presymplectic_pairing(kg_hamiltonian(), g, state,
                                 take_frames(X, 0), Y).shape == (2,)


@pytest.mark.parametrize("S", [2, 3])
def test_pairing_refuses_stacked_variations_at_stacked_frames(S):
    # a state of 3 frames against stacks of 2: numpy's "operands could not
    # be broadcast together with shapes (3,1,16) (2,1,16)" before; stacks
    # of 3 paired row f with frame f
    g = make_grid(16)
    rng = np.random.default_rng(9)
    state = CauchyState(np.arange(3.0), rng.normal(size=(3, 1, 16)),
                        rng.normal(size=(3, 1, 16)),
                        rng.normal(size=(3, 1, 1, 16)))
    X = random_smooth_variation(g, 1, rng, vertical=False, count=S)
    one, other = take_frames(X, 0), take_frames(X, 1)
    for pair, name in (((X, X), "X.du"), ((one, X), "Y.du")):
        with pytest.raises(ModelError, match="^" + re.escape(
                f"{name} must have shape (n, N) = (1, 16), got ({S}, 1, 16)")
                + "$"):
            presymplectic_pairing(kg_hamiltonian(), g, state, *pair)
    # single variations pair at each frame
    got = presymplectic_pairing(kg_hamiltonian(), g, state, one, other)
    assert got.tolist() == [presymplectic_pairing(
        kg_hamiltonian(), g, take_frames(state, f), one, other)
        for f in range(3)]


# -- trajectory residual -------------------------------------------------------

def test_trajectory_residual_exact_constant_solution():
    # u = cos t, p_t = -sin t solves the constant Klein-Gordon reduction
    g = make_grid(16)
    H = kg_hamiltonian(1.0)
    t = 0.37
    N = 16
    state = CauchyState(t, np.full((1, N), np.cos(t)),
                        np.full((1, N), -np.sin(t)), np.zeros((1, 1, N)))
    dot = (np.full((1, N), -np.sin(t)), np.full((1, N), -np.cos(t)),
           np.zeros((1, 1, N)))
    test = standard_test_variations(g, 1, rng=np.random.default_rng(0))
    assert dynamical_trajectory_residual(H, g, state, dot, test) <= 1e-10


def test_trajectory_residual_manufactured_wave_refines():
    H = wave_hamiltonian()
    res = {}
    for N in (128, 256):
        g = make_grid(N)
        test = standard_test_variations(g, 1, rng=np.random.default_rng(42))
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 5):
            worst = max(worst, dynamical_trajectory_residual(
                H, g, exact_wave_state(g, t), exact_wave_state_dot(g, t),
                test))
        res[N] = worst
    assert res[128] <= 5e-3
    assert 3.5 <= res[128] / res[256] <= 4.5


def test_trajectory_residual_detects_non_solution():
    g = make_grid(128)
    H = wave_hamiltonian()
    state = exact_wave_state(g, 0.3)
    u_dot, p_t_dot, p_x_dot = exact_wave_state_dot(g, 0.3)
    bad = (u_dot + 1.0, p_t_dot + 1.0, p_x_dot)
    test = standard_test_variations(g, 1, rng=np.random.default_rng(7))
    assert dynamical_trajectory_residual(H, g, state, bad, test) > 0.1


def test_trajectory_residual_requires_test_vectors():
    g = make_grid(8)
    s = CauchyState(0.0, np.zeros((1, 8)), np.zeros((1, 8)),
                    np.zeros((1, 1, 8)))
    with pytest.raises(Exception):
        dynamical_trajectory_residual(wave_hamiltonian(), g, s,
                                      (s.u, s.p_t, s.p_x), [])


def test_time_derivative_frames_fourth_order():
    dt = 1e-2
    ts = np.arange(12) * dt
    frames = np.sin(3.0 * ts)
    d = time_derivative_frames(frames, dt)
    assert np.max(np.abs(d - 3.0 * np.cos(3.0 * ts))) <= 1e-6


def test_pairing_point_base_degeneration():
    # with no spatial dimension the momentum bracket and stencil terms
    # drop and the integrand is canonical plus the energy leg
    osc = builtin_model("mechanics_oscillator", {"omega": 1.0})
    H = hamiltonian_from_lagrangian(osc)
    g = make_grid(1, m=0)
    u, pt = 0.8, -0.4
    s = CauchyState(0.0, [[u]], [[pt]], np.zeros((1, 0, 1)))
    X = TangentVariation(1.0, [[0.3]], [[0.1]], np.zeros((1, 0, 1)))
    Y = TangentVariation(0.0, [[-0.5]], [[0.7]], np.zeros((1, 0, 1)))
    # X(H) k_Y - Y(H) k_X + (X_u Y_pt - X_pt Y_u), weight one
    yh = u * (-0.5) + pt * 0.7
    expected = -yh + (0.3 * 0.7 - 0.1 * (-0.5))
    assert presymplectic_pairing(H, g, s, X, Y) \
        == pytest.approx(expected, abs=1e-15)


def test_simulation_stores_requested_frames():
    g = make_grid(8)
    H = kg_hamiltonian(1.0)
    s = CauchyState(0.0, np.ones((1, 8)), np.zeros((1, 8)),
                    np.zeros((1, 1, 8)))
    traj = run_simulation(H, g, s, 1e-2, 10, store_every=2)
    assert len(traj.t) == 6
    assert np.allclose(np.diff(traj.t), 2e-2)


def test_simulation_stores_the_last_step_off_the_stride():
    # 5 steps stored every 2nd: steps 0, 2 and 4, and the last step 5
    H = kg_hamiltonian(1.0)
    g, s = reuse_start(H)
    chained = [s]
    for _ in range(5):
        chained.append(step_rk4(H, g, chained[-1], 1e-2))
    traj = run_simulation(H, g, s, 1e-2, 5, store_every=2)
    assert traj.t.tolist() == [chained[k].t for k in (0, 2, 4, 5)]
    assert traj.t == pytest.approx([0.0, 2e-2, 4e-2, 5e-2], abs=1e-15)
    for f, k in enumerate((0, 2, 4, 5)):
        assert_same_bits(take_frames(traj, f), chained[k])


# -- the RK4 hot path ------------------------------------------------------------

def roll_derivative(values, h):
    """The periodic central difference written with two rolls."""
    return (np.roll(values, -1, axis=-1)
            - np.roll(values, 1, axis=-1)) / (2.0 * h)


@pytest.mark.parametrize("N", [3, 4, 17, 128])
@pytest.mark.parametrize("lead", [(), (2,), (2, 1), (3, 2)])
def test_spatial_derivative_equals_roll_expression(N, lead):
    g = make_grid(N, 0.7)
    values = np.random.default_rng(N).normal(size=lead + (N,))
    assert np.array_equal(spatial_derivative(g, values),
                          roll_derivative(values, g.spacing))


def bare_rk4_klein_gordon(u, p, dt, steps, h, mass=1.0):
    """Klein-Gordon method of lines in bare numpy: p_x = -D u,
    u_dot = p_t, p_t_dot = -mass^2 u + D^2 u, classical RK4."""
    def f(u, p):
        return p, -mass ** 2 * u + roll_derivative(roll_derivative(u, h), h)

    for _ in range(steps):
        k1u, k1p = f(u, p)
        k2u, k2p = f(u + dt / 2 * k1u, p + dt / 2 * k1p)
        k3u, k3p = f(u + dt / 2 * k2u, p + dt / 2 * k2p)
        k4u, k4p = f(u + dt * k3u, p + dt * k3p)
        u, p = (u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
                p + dt / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))
    return u, p, -roll_derivative(u, h)


def smooth_state(g, n, seed=3):
    rng = np.random.default_rng(seed)
    X = random_smooth_variation(g, n, rng)
    return X.du[0] * 4.0, X.dp_t[0] * 4.0


@pytest.mark.parametrize("N", [128, 1024])
@pytest.mark.parametrize("n", [1, 2])
def test_step_rk4_bit_identical_to_bare_numpy(N, n):
    g = make_grid(N)
    H = hamiltonian_from_lagrangian(
        builtin_model("klein_gordon", {"mass": 1.0, "n": n}))
    u, p = smooth_state(g, n)
    s = CauchyState(0.0, u, p, recover_spatial_momenta(H, g, u, p_t=p))
    dt = 0.25 / N
    for _ in range(50):
        s = step_rk4(H, g, s, dt)
    u_ref, p_ref, px_ref = bare_rk4_klein_gordon(u, p, dt, 50, g.spacing)
    assert np.array_equal(s.u, u_ref)
    assert np.array_equal(s.p_t, p_ref)
    assert np.array_equal(s.p_x[:, 0], px_ref)
    assert s.t == pytest.approx(50 * dt, rel=1e-14)


def count_calls(monkeypatch, owner, names, counts=None):
    """Count the calls of the attributes ``names`` of owner, or of its
    items when owner is a dict, into ``counts`` (a new dict by default)."""
    counts = {} if counts is None else counts
    items = isinstance(owner, dict)
    for name in names:
        counts[name] = 0
        method = owner[name] if items else getattr(owner, name)

        def wrapper(*args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)

        (monkeypatch.setitem if items else monkeypatch.setattr)(
            owner, name, wrapper)
    return counts


def count_model_calls(monkeypatch, H):
    """Evaluations of H: of the partials its construction resolved (the
    stages call them directly, its partial methods through them) and of
    the methods the stages call."""
    counts = count_calls(monkeypatch, H._partials, ("d_u", "d_pt", "d_px"))
    return count_calls(monkeypatch, HamiltonianModel,
                       ("value", "momentum_jacobian", "spatial_momenta"),
                       counts)


def count_recoveries(monkeypatch):
    """Calls of the Newton solve that every recovery at m = 1 makes once,
    the stages' and recover_spatial_momenta's alike."""
    return count_calls(monkeypatch, cauchy, ["_solve_nodewise"])


def recovery_counts(monkeypatch, H):
    """Model calls and recoveries of one step from a caller-built state,
    then of three chained steps: a step from a caller-built state recovers
    at its four stages and on the returned state; a step from a state that
    step_rk4 returned takes its first stage's p_x from that state."""
    g = make_grid(64)
    u, p = smooth_state(g, 1)
    s = CauchyState(0.0, u, p, recover_spatial_momenta(H, g, u, p_t=p))
    counts = count_model_calls(monkeypatch, H)
    recoveries = count_recoveries(monkeypatch)
    for steps, per_step in ((1, 5), (3, 4)):
        for key in counts:
            counts[key] = 0
        recoveries["_solve_nodewise"] = 0
        for _ in range(steps):
            s = step_rk4(H, g, s, 1e-3)
        yield steps, per_step * steps, recoveries["_solve_nodewise"], \
            dict(counts)


def test_rk4_step_calls_per_recovery(monkeypatch):
    # each recovery starts at the model's closed-form p_x and evaluates
    # dH/dp_x there once; it converges at once, so no Jacobian, no value
    # and no finite differences
    for steps, r, recoveries, counts in recovery_counts(monkeypatch,
                                                        kg_hamiltonian(1.0)):
        assert recoveries == r
        assert counts == {"value": 0, "d_u": 4 * steps, "d_pt": 4 * steps,
                          "d_px": r, "momentum_jacobian": 0,
                          "spatial_momenta": r}


#: Python-level calls into the package's own files during one chained
#: Klein-Gordon step: the step, its dt check and its two updates, four
#: right-hand sides with two partials each, four recoveries with their
#: derivatives, closed-form starts and solves, and each model partial
#: through the function its construction resolved to its callable
LEAN_STEP_CALLS = 56


def test_chained_step_python_calls_are_pinned():
    # counted with sys.setprofile and kept to the package's files, so the
    # count does not depend on how numpy implements its functions
    package = os.path.dirname(cauchy.__file__) + os.sep
    H, g = kg_hamiltonian(1.0), make_grid(64)
    u, p = smooth_state(g, 1)
    s = step_rk4(H, g, CauchyState(0.0, u, p,
                                   recover_spatial_momenta(H, g, u, p_t=p)),
                 1e-3)
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        step_rk4(H, g, s, 1e-3)
    finally:
        sys.setprofile(previous)
    assert sum(calls.values()) == LEAN_STEP_CALLS, dict(calls)


def stacked_gradient(grid, values):
    """gradient_fields as a new array filled axis by axis."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape[:-1] + (grid.m, grid.n_nodes))
    for j in range(grid.m):
        out[..., j, :] = spatial_derivative(grid, values)
    return out


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("lead", [(1,), (2,), (3, 2)])
def test_gradient_fields_equal_the_stacked_copy(m, lead):
    grid = make_grid(16) if m else make_grid(1, m=0)
    values = np.random.default_rng(7).normal(size=lead + (grid.n_nodes,))
    got = gradient_fields(grid, values)
    assert got.shape == lead + (m, grid.n_nodes)
    assert got.tobytes() == stacked_gradient(grid, values).tobytes()


def with_closed_form(H, spatial_momenta):
    """H's value, partials and momentum Jacobian with another closed-form
    spatial momenta, or none."""
    return HamiltonianModel(H.dims, H.value, d_u=H.d_u, d_pt=H.d_pt,
                            d_px=H.d_px,
                            momentum_jacobian=H.momentum_jacobian,
                            spatial_momenta=spatial_momenta, name=H.name)


def test_rk4_step_calls_per_recovery_without_closed_form(monkeypatch):
    # each recovery evaluates dH/dp_x at the zero guess and after one
    # Newton step, with the Jacobian from the model
    H = with_closed_form(kg_hamiltonian(1.0), None)
    assert not H.has_closed_form_spatial_momenta
    for steps, r, recoveries, counts in recovery_counts(monkeypatch, H):
        assert recoveries == r
        assert counts == {"value": 0, "d_u": 4 * steps, "d_pt": 4 * steps,
                          "d_px": 2 * r, "momentum_jacobian": r,
                          "spatial_momenta": 0}


# -- the closed-form start of momentum recovery -----------------------------------

CLOSED_FORM_MODELS = [
    ("free_wave", {}), ("klein_gordon", {"mass": 1.0}),
    ("scalar_potential", {"mass": 1.0, "potential": (0.0, 0.2, 0.0, 0.1)})]


def assert_same_bits_and_zero_signs(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("data", ["constant", "sine"])
@pytest.mark.parametrize("name, params", CLOSED_FORM_MODELS,
                         ids=[m for m, _ in CLOSED_FORM_MODELS])
def test_closed_form_start_equals_newton_from_zero(name, params, data, n):
    H = hamiltonian_from_lagrangian(builtin_model(name, {**params, "n": n}))
    newton = with_closed_form(H, None)
    assert H.has_closed_form_spatial_momenta
    g = make_grid(16)
    if data == "constant":
        u = np.full((n, 16), 0.7)
        p = np.full((n, 16), -0.3)
    else:
        u = np.stack([np.sin(TWO_PI * (a + 1) * g.x[0]) for a in range(n)])
        p = np.cos(TWO_PI * g.x[0]) * np.ones((n, 1))
    p_x = recover_spatial_momenta(H, g, u, p_t=p)
    assert_same_bits_and_zero_signs(
        p_x, recover_spatial_momenta(newton, g, u, p_t=p))
    if data == "constant":
        assert not np.signbit(p_x).any() and not p_x.any()
    a = b = CauchyState(0.0, u, p, p_x)
    for _ in range(5):
        a, b = step_rk4(H, g, a, 1e-2), step_rk4(newton, g, b, 1e-2)
    for field in ("u", "p_t", "p_x"):
        assert_same_bits_and_zero_signs(getattr(a, field), getattr(b, field))


def test_inexact_closed_form_start_still_recovers(monkeypatch):
    # a start 0.1 off the solution is one Newton step from it
    H = kg_hamiltonian(1.0)
    offset = with_closed_form(H, lambda t, x, u, p_t, u_x: 0.1 - u_x)
    g = make_grid(64)
    u, p = smooth_state(g, 1)
    counts = count_model_calls(monkeypatch, offset)
    p_x = recover_spatial_momenta(offset, g, u, p_t=p)
    # dH/dp_x at the start and after one Newton step with the analytic
    # Jacobian, which reaches NEWTON_TOL
    assert counts == {"value": 0, "d_u": 0, "d_pt": 0, "d_px": 2,
                      "momentum_jacobian": 1, "spatial_momenta": 1}
    constraint = H.d_px(0.0, g.x, u, p, p_x)[:, 0] - spatial_derivative(g, u)
    assert np.max(np.abs(constraint)) <= NEWTON_TOL
    assert np.max(np.abs(p_x - recover_spatial_momenta(H, g, u, p_t=p))) \
        <= NEWTON_TOL


def test_non_finite_step_from_closed_form_raises_blowup_naming_the_step():
    # NaN enters u at stage 3 of step 7 and reaches the closed-form start
    g = make_grid(16)
    dt = 0.01
    u = np.sin(TWO_PI * g.x[0])[None, :]
    H = with_closed_form(kg_nan_after(6.2 * dt),
                         kg_hamiltonian(1.0).spatial_momenta)
    s = CauchyState(0.0, u, np.zeros_like(u), recover_spatial_momenta(H, g, u))
    with pytest.raises(BlowupError, match="^non-finite u at step 7$"):
        run_simulation(H, g, s, dt, 20)


@pytest.mark.parametrize("spatial_momenta, message", [
    (None, "custom: no closed-form spatial momenta"),
    (lambda t, x, u, p_t, u_x: u_x[:, 0],
     r"custom: spatial momenta must have the shape of u_x, \(1, 1, 16\), "
     r"got \(1, 16\)"),
], ids=["absent", "misshaped"])
def test_closed_form_spatial_momenta_refused(spatial_momenta, message):
    H = kg_hamiltonian(1.0)
    custom = HamiltonianModel(H.dims, H.value, d_px=H.d_px,
                              spatial_momenta=spatial_momenta)
    g = make_grid(16)
    u = np.ones((1, 16))
    with pytest.raises(ModelError, match=f"^{message}$"):
        custom.spatial_momenta(0.0, g.x, u, u, np.zeros((1, 1, 16)))


@pytest.mark.parametrize("call", [
    lambda H, g, s: recover_spatial_momenta(H, g, s.u, p_t=s.p_t),
    lambda H, g, s: step_rk4(H, g, s, 1e-3),
    lambda H, g, s: run_simulation(H, g, s, 1e-3, 2),
], ids=["recover", "step", "run"])
def test_misshaped_closed_form_is_refused_on_the_stages(call):
    # the stages bind the model's spatial_momenta, with its shape check
    H = with_closed_form(kg_hamiltonian(1.0),
                         lambda t, x, u, p_t, u_x: u_x[:, 0])
    g = make_grid(16)
    u, p = smooth_state(g, 1)
    with pytest.raises(ModelError, match=r"^klein_gordon_hamiltonian: "
                       r"spatial momenta must have the shape of u_x, "
                       r"\(1, 1, 16\), got \(1, 16\)$"):
        call(H, g, CauchyState(0.0, u, p, np.zeros((1, 1, 16))))


@pytest.mark.parametrize("u, p_t, error, message", [
    (np.ones(16), None, ModelError,
     r"u must have shape \(n, N\) = \(1, 16\), got \(16,\)"),
    (np.ones((1, 10)), None, GridError,
     r"u must have shape \(n, N\) = \(1, 16\), got \(1, 10\)"),
    (np.ones((2, 16)), None, ModelError,
     r"u must have shape \(n, N\) = \(1, 16\), got \(2, 16\)"),
    (np.ones((1, 16)), np.ones((1, 15)), GridError,
     r"p_t must have shape \(n, N\) = \(1, 16\), got \(1, 15\)"),
], ids=["one-dimensional-u", "ten-of-sixteen-nodes", "two-components",
        "short-p_t"])
def test_recovery_refuses_fields_not_shaped_for_model_and_grid(u, p_t, error,
                                                               message):
    # unrefused: a raw ValueError, a broadcast error, a (2, 1, 16) p_x
    # and an ignored p_t; only the node count is the grid's
    with pytest.raises(error, match=f"^{message}$"):
        recover_spatial_momenta(kg_hamiltonian(1.0), make_grid(16), u,
                                p_t=p_t)


def test_step_refuses_state_on_another_node_count(monkeypatch):
    s = CauchyState(0.0, np.ones((1, 10)), np.ones((1, 10)),
                    np.zeros((1, 1, 10)))
    recoveries = count_recoveries(monkeypatch)
    with pytest.raises(GridError, match=r"^u must have shape \(n, N\) = "
                       r"\(1, 16\), got \(1, 10\)$"):
        step_rk4(kg_hamiltonian(1.0), make_grid(16), s, 1e-3)
    assert recoveries["_solve_nodewise"] == 0


@pytest.mark.parametrize("n_steps", [1, 3, 10])
def test_run_simulation_recovers_four_times_per_step_and_once(monkeypatch,
                                                             n_steps):
    g = make_grid(32)
    u, p = smooth_state(g, 1)
    s = CauchyState(0.0, u, p, np.zeros((1, 1, 32)))
    recoveries = count_recoveries(monkeypatch)
    run_simulation(kg_hamiltonian(1.0), g, s, 1e-3, n_steps)
    assert recoveries["_solve_nodewise"] == 4 * n_steps + 1


# -- the p_x a step carries into the next ----------------------------------------

def reuse_model(name):
    """The built-in Klein-Gordon, a scalar potential, or Klein-Gordon
    given by its value alone."""
    if name == "scalar_potential":
        L = builtin_model("scalar_potential",
                          {"mass": 1.0, "potential": (0.0, 0.2, 0.0, 0.1)})
    else:
        L = builtin_model("klein_gordon", {"mass": 1.0})
    if name == "value_only":
        L = LagrangianModel(L.dims, L._value)
    return hamiltonian_from_lagrangian(L)


REUSE_MODELS = ["klein_gordon", "scalar_potential", "value_only"]


def reuse_start(H, N=16):
    g = make_grid(N)
    u, p = smooth_state(g, 1)
    return g, CauchyState(0.0, u, p, recover_spatial_momenta(H, g, u, p_t=p))


def assert_same_bits(a, b):
    assert a.t == b.t
    for name in ("u", "p_t", "p_x"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("model", REUSE_MODELS)
def test_chained_steps_match_steps_from_caller_built_states(model):
    H = reuse_model(model)
    g, chained = reuse_start(H)
    restarted = chained
    for _ in range(20):
        chained = step_rk4(H, g, chained, 1e-3)
        s = step_rk4(H, g, restarted, 1e-3)
        restarted = CauchyState(s.t, s.u.copy(), s.p_t.copy(), s.p_x.copy())
    assert_same_bits(chained, restarted)


@pytest.mark.parametrize("model", REUSE_MODELS)
def test_stepped_state_fields_are_read_only(model):
    H = reuse_model(model)
    g, s = reuse_start(H)
    s = step_rk4(H, g, s, 1e-3)
    for name in ("u", "p_t", "p_x"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[...] += 1.0


@pytest.mark.parametrize("model", REUSE_MODELS)
def test_replaced_state_recovers_afresh(model):
    H = reuse_model(model)
    g, s = reuse_start(H)
    s = step_rk4(H, g, s, 1e-3)
    perturbed = replace(s, p_x=s.p_x + 0.3)
    assert_same_bits(step_rk4(H, g, perturbed, 1e-3),
                     step_rk4(H, g, s, 1e-3))


def test_step_under_another_model_or_grid_recovers_afresh():
    # the carried p_x solves the spatial constraint of the model and grid
    # that stepped it; under another model or grid it is not reused
    H = nonlinear_momentum_model(True)
    g = make_grid(16)
    u, p = smooth_state(g, 2)
    s = step_rk4(H, g, CauchyState(0.0, u, p, np.zeros((2, 1, 16))), 1e-3)
    unmarked = CauchyState(s.t, s.u, s.p_t, s.p_x)
    other = nonlinear_momentum_model(True, eps=0.1)
    assert not np.array_equal(recover_spatial_momenta(other, g, s.u, s.p_t),
                              s.p_x)
    assert_same_bits(step_rk4(other, g, s, 1e-3),
                     step_rk4(other, g, unmarked, 1e-3))
    half = make_grid(16, 0.5)
    assert_same_bits(step_rk4(H, half, s, 1e-3),
                     step_rk4(H, half, unmarked, 1e-3))


def half_momentum_model():
    """n = 1, m = 1: H = |p_t|^2 / 2 + |u|^2 / 2 - |p_x|^2, whose
    dH/dp_x = -2 p_x makes the spatial momenta half those of Klein-Gordon
    of mass 1, with the same u and p_t partials."""
    H = kg_hamiltonian(1.0)

    def value(t, x, u, p_t, p_x):
        return (0.5 * np.sum(p_t ** 2, axis=0) + 0.5 * np.sum(u ** 2, axis=0)
                - np.sum(p_x ** 2, axis=(0, 1)))

    return HamiltonianModel(
        H.dims, value, d_u=H.d_u, d_pt=H.d_pt,
        d_px=lambda t, x, u, p_t, p_x: -2.0 * p_x,
        spatial_momenta=lambda t, x, u, p_t, u_x: -0.5 * u_x, name="half")


@pytest.mark.parametrize("change", ["other-H", "other-length", "replaced"])
def test_state_without_the_stages_recovers_at_its_first_stage(monkeypatch,
                                                              change):
    # a stepped state carries the stages of its H and grid object; stepped
    # under another H, on a grid of the same N and another length, or
    # rebuilt with replace, it recovers at all five points, and the step
    # equals one from a caller-built state with the same fields bit for
    # bit; a carried p_x would differ
    H, g = kg_hamiltonian(1.0), make_grid(16)
    u, p = smooth_state(g, 1)
    s = step_rk4(H, g, CauchyState(0.0, u, p, recover_spatial_momenta(
        H, g, u, p_t=p)), 1e-3)
    fresh = CauchyState(s.t, s.u, s.p_t, s.p_x)
    other_H = half_momentum_model() if change == "other-H" else H
    other_g = make_grid(16, 0.5) if change == "other-length" else g
    if change == "replaced":
        s = replace(s, t=s.t)
    else:
        assert not np.array_equal(recover_spatial_momenta(
            other_H, other_g, s.u, s.p_t, s.t), s.p_x)
    recoveries = count_recoveries(monkeypatch)
    stepped = step_rk4(other_H, other_g, s, 1e-3)
    assert recoveries["_solve_nodewise"] == 5
    assert_same_bits(stepped, step_rk4(other_H, other_g, fresh, 1e-3))


@pytest.mark.parametrize("start", ["caller-built", "stepped"])
def test_stage_fields_of_a_misshaped_partial_are_refused(monkeypatch, start):
    # a dH/dp_t of shape (n, N, 1) broadcasts the second stage's u to
    # (n, N, N): the stage's recovery refuses it in the contract's wording
    # during the run's first step, whether or not the start carries stages
    H = kg_hamiltonian(1.0)
    bad = HamiltonianModel(H.dims, H.value, d_u=H.d_u,
                           d_pt=lambda t, x, u, p_t, p_x: p_t[..., None],
                           d_px=H.d_px, spatial_momenta=H.spatial_momenta)
    g, s = reuse_start(H)
    if start == "stepped":
        s = step_rk4(H, g, s, 1e-3)
    steps = count_calls(monkeypatch, cauchy, ["step_rk4"])
    with pytest.raises(ModelError, match=r"^u must have shape \(n, N\) = "
                       r"\(1, 16\), got \(1, 16, 16\)$"):
        run_simulation(bad, g, s, 1e-3, 3)
    assert steps["step_rk4"] == 1


# -- refused step sizes and run lengths ------------------------------------------

@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_step_rk4_refuses_dt_not_positive_and_finite(dt):
    # unrefused, nan and inf returned a non-finite state
    H = kg_hamiltonian(1.0)
    g, s = reuse_start(H)
    with pytest.raises(ModelError, match="^dt must be positive and finite$"):
        step_rk4(H, g, s, dt)


@pytest.mark.parametrize("kwargs, message", [
    ({"dt": np.nan}, "dt must be positive and finite"),
    ({"dt": np.inf}, "dt must be positive and finite"),
    ({"dt": np.nan, "n_steps": 0}, "dt must be positive and finite"),
    ({"store_every": 0}, "store_every must be >= 1"),
    ({"store_every": -1}, "store_every must be >= 1"),
    ({"n_steps": -3}, "n_steps must be >= 0"),
    ({"n_steps": 2.5}, "n_steps must be an integer, got 2.5"),
    ({"n_steps": 3.0}, "n_steps must be an integer, got 3.0"),
    ({"store_every": np.nan}, "store_every must be an integer, got nan"),
    ({"store_every": 2.0}, "store_every must be an integer, got 2.0"),
])
def test_run_simulation_refuses_bad_arguments_before_stepping(monkeypatch,
                                                              kwargs,
                                                              message):
    # unrefused, store_every = 0 divided by zero after the first step,
    # store_every = -1 stored every step, n_steps = -3 returned the
    # initial state alone, n_steps = 2.5 raised a TypeError from range and
    # store_every = nan stored only the first and last states
    H = kg_hamiltonian(1.0)
    g, s = reuse_start(H)
    steps = count_calls(monkeypatch, cauchy, ["step_rk4"])
    args = {"dt": 1e-3, "n_steps": 3, "store_every": 1, **kwargs}
    with pytest.raises(ModelError, match=f"^{message}$"):
        run_simulation(H, g, s, **args)
    assert steps["step_rk4"] == 0


@pytest.mark.parametrize("u, p_x, error", [
    (np.ones((1, 16)), np.zeros((1, 0, 16)), GridError),
    (np.ones((1, 12)), np.zeros((1, 1, 12)), GridError),
    (np.ones((2, 16)), np.zeros((2, 1, 16)), ModelError)],
    ids=["p_x-of-m-0", "other-N", "two-components"])
def test_run_simulation_refuses_a_start_that_does_not_fit(monkeypatch, u,
                                                          p_x, error):
    # the stored frames are preallocated from state0: unrefused, a p_x of
    # another m stepped into a raw broadcast ValueError at the first store;
    # m and N are the grid's, n the model's
    steps = count_calls(monkeypatch, cauchy, ["step_rk4"])
    with pytest.raises(error):
        run_simulation(kg_hamiltonian(1.0), make_grid(16),
                       CauchyState(0.0, u, u, p_x), 1e-3, 3)
    assert steps["step_rk4"] == 0


def kg_partials_only(mass=1.0, n=1):
    """Klein-Gordon with analytic first partials but no momentum
    Jacobian, so recovery takes the finite-difference path."""
    ref = builtin_model("klein_gordon", {"mass": mass, "n": n})
    H = hamiltonian_from_lagrangian(ref)
    return HamiltonianModel(H.dims, H.value, d_u=H.d_u, d_pt=H.d_pt,
                            d_px=H.d_px, name="kg_partials_only")


def test_recovery_without_momentum_jacobian_uses_differences(monkeypatch):
    g = make_grid(64)
    H = kg_partials_only()
    assert not H.has_analytic_momentum_jacobian
    assert kg_hamiltonian(1.0).has_analytic_momentum_jacobian
    u, p = smooth_state(g, 1)
    s0 = CauchyState(0.0, u, p, recover_spatial_momenta(H, g, u, p_t=p))
    counts = count_model_calls(monkeypatch, H)
    s = step_rk4(H, g, s0, 1e-3)
    # per recovery: residual, two differenced columns, the trial residual
    assert counts["d_px"] == 4 * 5 and counts["momentum_jacobian"] == 0
    ref = s0
    for _ in range(10):
        s = step_rk4(H, g, s, 1e-3)
    for _ in range(11):
        ref = step_rk4(kg_hamiltonian(1.0), g, ref, 1e-3)
    for name in ("u", "p_t", "p_x"):
        assert np.max(np.abs(getattr(s, name) - getattr(ref, name))) <= 1e-12


def nonlinear_momentum_model(with_jacobian, eps=0.4, c=0.3):
    """n = 2, m = 1: H = |p_t|^2 / 2 + |u|^2 / 2 - Phi(p_x) with
    Phi(p) = |p|^2 / 2 + eps/4 sum p_a^4 + c p_1 p_2, so the spatial
    constraint couples the two components at each node."""
    dims = Dimensions(m=1, n=2)

    def value(t, x, u, p_t, p_x):
        p = np.asarray(p_x, dtype=float)[:, 0]
        return (0.5 * np.sum(np.asarray(p_t) ** 2, axis=0)
                + 0.5 * np.sum(np.asarray(u) ** 2, axis=0)
                - np.sum(0.5 * p ** 2 + 0.25 * eps * p ** 4, axis=0)
                - c * p[0] * p[1])

    def d_px(t, x, u, p_t, p_x):
        p = np.asarray(p_x, dtype=float)[:, 0]
        return -(p + eps * p ** 3 + c * p[::-1])[:, None]

    def jacobian(t, x, u, p_t, p_x):
        p = np.asarray(p_x, dtype=float)[:, 0]
        tail = p.shape[1:]
        jac_px = np.zeros((2, 2, 2, 1) + tail)
        for a in range(2):
            jac_px[a, 1, a, 0] = -(1.0 + 3.0 * eps * p[a] ** 2)
            jac_px[a, 1, 1 - a, 0] = -c
        jac_pt = np.zeros((2, 2, 2) + tail)
        jac_pt[0, 0, 0] = jac_pt[1, 0, 1] = 1.0
        return {"t": np.zeros((2, 2) + tail), "x": np.zeros((2, 2, 1) + tail),
                "u": np.zeros((2, 2, 2) + tail), "p_t": jac_pt,
                "p_x": jac_px}

    return HamiltonianModel(
        dims, value, d_u=lambda t, x, u, p_t, p_x: np.asarray(u, float),
        d_pt=lambda t, x, u, p_t, p_x: np.asarray(p_t, float).copy(),
        d_px=d_px, momentum_jacobian=jacobian if with_jacobian else None,
        name="nonlinear_momenta")


def test_nonlinear_recovery_with_jacobian_matches_differences():
    g = make_grid(64)
    u, p = smooth_state(g, 2)
    u = 3.0 * u
    analytic = nonlinear_momentum_model(True)
    differenced = nonlinear_momentum_model(False)
    p_x = recover_spatial_momenta(analytic, g, u, p_t=p)
    p_x_fd = recover_spatial_momenta(differenced, g, u, p_t=p)
    assert np.max(np.abs(p_x)) > 1.0      # the cubic term matters
    assert np.max(np.abs(p_x - p_x_fd)) <= 1e-10
    constraint = analytic.d_px(0.0, g.x, u, p, p_x)[:, 0] \
        - spatial_derivative(g, u)
    assert np.max(np.abs(constraint)) <= NEWTON_TOL
    s = CauchyState(0.0, u, p, p_x)
    a = take_frames(run_simulation(analytic, g, s, 1e-3, 20,
                                   store_every=20), -1)
    b = take_frames(run_simulation(differenced, g, s, 1e-3, 20,
                                   store_every=20), -1)
    for name in ("u", "p_t", "p_x"):
        assert np.max(np.abs(getattr(a, name) - getattr(b, name))) <= 1e-10


def kg_nan_after(t_nan):
    """Klein-Gordon whose dH/du turns NaN once t exceeds ``t_nan``."""
    H = kg_hamiltonian(1.0)
    return HamiltonianModel(
        H.dims, H.value,
        d_u=lambda t, x, u, p_t, p_x: u + (np.nan if t > t_nan else 0.0),
        d_pt=H.d_pt, d_px=H.d_px,
        momentum_jacobian=H.momentum_jacobian, name="kg_nan")


@pytest.mark.parametrize("fraction", [0.2, 0.7])
def test_non_finite_step_raises_blowup_naming_the_step(fraction):
    # NaN enters at stage 2 (fraction 0.2) or only at stage 4 (0.7) of
    # step 7; either way the step is refused
    g = make_grid(16)
    dt = 0.01
    u = np.sin(TWO_PI * g.x[0])[None, :]
    H = kg_nan_after((6 + fraction) * dt)
    s = CauchyState(0.0, u, np.zeros_like(u), recover_spatial_momenta(H, g, u))
    with pytest.raises(BlowupError, match="non-finite .* at step 7$"):
        run_simulation(H, g, s, dt, 20)


def test_blowup_bound_checks_u_and_p_t():
    g = make_grid(16)
    big = np.full((1, 16), 2e8)
    small = np.full((1, 16), 1.0)
    for u, p, name in ((small, big, "p_t"), (big, small, "u")):
        s = CauchyState(0.0, u, p, np.zeros((1, 1, 16)))
        with pytest.raises(BlowupError,
                           match=rf"^\|{name}\| exceeded 1e\+08 at step 1$"):
            run_simulation(kg_hamiltonian(1.0), g, s, 1e-3, 3)
