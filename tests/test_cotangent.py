import re

import numpy as np
import pytest

from dedonder_hj.cauchy import (CauchyState, GridError, TangentVariation,
                                make_grid, random_smooth_variation,
                                recover_spatial_momenta, run_simulation,
                                spatial_derivative, take_frames)
from dedonder_hj.cotangent import (ConstraintError, CotangentState,
                                   CotangentVariation,
                                   cotangent_trajectory_residual,
                                   extended_form_pairing, hat_gamma,
                                   instantaneous_hamiltonian, omega_pairing,
                                   pullback_identity_residual, push_variation,
                                   restriction_map_R, solve_time_velocity,
                                   standard_cotangent_variations,
                                   time_legendre_constraint_residual,
                                   variational_derivative)
from dedonder_hj.hj import _lift_with, linear_gamma, oscillator_gamma
from dedonder_hj.legendre import hamiltonian_from_lagrangian
from dedonder_hj.models import (Dimensions, LagrangianModel, ModelError,
                                builtin_model, replace)

M1 = Dimensions(m=1, n=1)
TWO_PI = 2.0 * np.pi


def wave():
    L = builtin_model("free_wave")
    return L, hamiltonian_from_lagrangian(L)


def kg(mass=1.0):
    L = builtin_model("klein_gordon", {"mass": mass})
    return L, hamiltonian_from_lagrangian(L)


def stack(states):
    """One state of the F frames ``states``, t of shape (F,) and each field
    on a leading frame axis."""
    cls = type(states[0])
    return cls(*(np.array([getattr(s, name) for s in states])
                 for name in cls._fields))


def exact_wave_cotangent(grid, t):
    xs = grid.x[0]
    u = np.sin(TWO_PI * (xs - t))[None, :]
    pi = -TWO_PI * np.cos(TWO_PI * (xs - t))[None, :]
    return CotangentState(t, u, pi)


# -- restriction ---------------------------------------------------------------

def test_cotangent_state_refuses_non_finite_fields():
    with pytest.raises(ModelError, match="^non-finite field pi$"):
        CotangentState(0.0, [[1.0]], [[np.inf]])


def test_restriction_drops_spatial_momenta():
    s = CauchyState(0.3, np.full((1, 4), 1.0), np.full((1, 4), 2.0),
                    np.full((1, 1, 4), 5.0))
    r = restriction_map_R(s)
    assert r.t == 0.3
    assert np.allclose(r.u, 1.0) and np.allclose(r.pi, 2.0)
    zero = CauchyState(0.0, np.zeros((1, 4)), np.zeros((1, 4)),
                       np.zeros((1, 1, 4)))
    r = restriction_map_R(zero)
    assert not r.u.any() and not r.pi.any()


def test_restriction_after_section_lift():
    g = make_grid(8)
    lg = linear_gamma(M1, a=0.5, c=0.5)
    cs = hat_gamma(lg, 0.0, g, np.full((1, 8), 2.0))
    assert np.allclose(cs.pi, 1.0)
    zero = linear_gamma(M1, a=0.0)
    assert not hat_gamma(zero, 0.0, g, np.full((1, 8), 2.0)).pi.any()
    og = oscillator_gamma(M1, omega=1.0)
    assert not hat_gamma(og, 0.0, g, np.full((1, 8), 2.0)).pi.any()


def test_push_variation():
    X = TangentVariation(1.5, np.ones((1, 4)), 2 * np.ones((1, 4)),
                         3 * np.ones((1, 1, 4)))
    Y = push_variation(X)
    assert Y.k == 1.5
    assert np.allclose(Y.du, 1.0) and np.allclose(Y.dpi, 2.0)


# -- field energy ----------------------------------------------------------------

def test_instantaneous_hamiltonian_wave_profile():
    # integral of (grad u)^2 / 2 for u = sin(2 pi x): pi^2 up to the
    # second-order quadrature of the stencil derivative
    L, _ = wave()
    g = make_grid(128)
    cs = CotangentState(0.0, np.sin(TWO_PI * g.x[0])[None, :],
                        np.zeros((1, 128)))
    val = instantaneous_hamiltonian(L, g, cs)
    assert abs(val - np.pi ** 2) <= 1e-2
    # exact discrete value: (sin(kh)/h)^2 / 4
    w = np.sin(TWO_PI * g.spacing) / g.spacing
    assert val == pytest.approx(w ** 2 / 4.0, rel=1e-12)


def test_instantaneous_hamiltonian_constant_zero():
    L, _ = wave()
    g = make_grid(32)
    cs = CotangentState(0.0, np.full((1, 32), 0.7), np.zeros((1, 32)))
    assert instantaneous_hamiltonian(L, g, cs) == 0.0


def test_instantaneous_hamiltonian_mass_term():
    L, _ = kg(1.0)
    g = make_grid(32)
    cs = CotangentState(0.0, np.ones((1, 32)), np.zeros((1, 32)))
    assert instantaneous_hamiltonian(L, g, cs) == pytest.approx(0.5, abs=1e-14)


def test_energy_quadrature_second_order():
    L, _ = wave()
    errs = []
    for N in (64, 128, 256):
        g = make_grid(N)
        cs = CotangentState(0.0, np.sin(TWO_PI * g.x[0])[None, :],
                            np.zeros((1, N)))
        errs.append(abs(instantaneous_hamiltonian(L, g, cs) - np.pi ** 2))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


# -- variational derivatives -----------------------------------------------------

def test_variational_derivative_wave():
    L, _ = wave()
    g = make_grid(64)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(1, 64))
    pi = rng.normal(size=(1, 64))
    dh_du, dh_dpi = variational_derivative(L, g, CotangentState(0.0, u, pi))
    lap = spatial_derivative(g, spatial_derivative(g, u))
    assert np.array_equal(dh_dpi, pi)
    assert np.max(np.abs(dh_du + lap)) <= 1e-13


def test_variational_derivative_constant_state():
    L, _ = wave()
    g = make_grid(16)
    dh_du, dh_dpi = variational_derivative(
        L, g, CotangentState(0.0, np.full((1, 16), 2.0), np.zeros((1, 16))))
    assert not dh_du.any() and not dh_dpi.any()


def test_variational_derivative_directional_fd():
    L, _ = kg(0.9)
    g = make_grid(48)
    rng = np.random.default_rng(8)
    u = rng.normal(size=(1, 48))
    pi = rng.normal(size=(1, 48))
    cs = CotangentState(0.0, u, pi)
    dh_du, dh_dpi = variational_derivative(L, g, cs)
    eps = 1e-6
    for j in (0, 13, 31):
        for which, field in (("u", dh_du), ("pi", dh_dpi)):
            hi_u, hi_pi = u.copy(), pi.copy()
            lo_u, lo_pi = u.copy(), pi.copy()
            if which == "u":
                hi_u[0, j] += eps
                lo_u[0, j] -= eps
            else:
                hi_pi[0, j] += eps
                lo_pi[0, j] -= eps
            fd = (instantaneous_hamiltonian(L, g, CotangentState(0.0, hi_u, hi_pi))
                  - instantaneous_hamiltonian(L, g, CotangentState(0.0, lo_u, lo_pi))) / (2 * eps)
            assert fd == pytest.approx(g.weights[j] * field[0, j], abs=1e-6)


# -- pairings --------------------------------------------------------------------

def test_omega_pairing_unit_example():
    g = make_grid(32)
    X = CotangentVariation(0.0, np.ones((1, 32)), np.zeros((1, 32)))
    Y = CotangentVariation(0.0, np.zeros((1, 32)), np.ones((1, 32)))
    assert omega_pairing(g, X, Y) == pytest.approx(1.0, abs=1e-14)
    assert omega_pairing(g, X, X) == 0.0


def test_omega_pairing_ignores_time_components():
    g = make_grid(16)
    rng = np.random.default_rng(1)
    du = rng.normal(size=(1, 16))
    dpi = rng.normal(size=(1, 16))
    X0 = CotangentVariation(0.0, du, dpi)
    X9 = CotangentVariation(9.0, du, dpi)
    Y = CotangentVariation(-3.0, rng.normal(size=(1, 16)),
                           rng.normal(size=(1, 16)))
    assert omega_pairing(g, X0, Y) == omega_pairing(g, X9, Y)


def test_extended_pairing_reduces_to_omega_for_vertical():
    L, _ = wave()
    g = make_grid(32)
    cs = exact_wave_cotangent(g, 0.2)
    rng = np.random.default_rng(6)
    for _ in range(5):
        X = CotangentVariation(0.0, rng.normal(size=(1, 32)),
                               rng.normal(size=(1, 32)))
        Y = CotangentVariation(0.0, rng.normal(size=(1, 32)),
                               rng.normal(size=(1, 32)))
        assert extended_form_pairing(L, g, cs, X, Y) \
            == omega_pairing(g, X, Y)


def test_extended_pairing_antisymmetric_exact():
    L, _ = kg(1.1)
    g = make_grid(32)
    cs = exact_wave_cotangent(g, 0.0)
    rng = np.random.default_rng(12)
    for _ in range(5):
        X = CotangentVariation(rng.normal(), rng.normal(size=(1, 32)),
                               rng.normal(size=(1, 32)))
        Y = CotangentVariation(rng.normal(), rng.normal(size=(1, 32)),
                               rng.normal(size=(1, 32)))
        assert extended_form_pairing(L, g, cs, X, X) == 0.0
        assert extended_form_pairing(L, g, cs, X, Y) \
            == -extended_form_pairing(L, g, cs, Y, X)


def test_extended_pairing_annihilates_exact_trajectory():
    # constant-in-space oscillation: u = cos t, pi = -sin t
    L, _ = kg(1.0)
    g = make_grid(16)
    t = 0.4
    cs = CotangentState(t, np.full((1, 16), np.cos(t)),
                        np.full((1, 16), -np.sin(t)))
    c_dot = CotangentVariation(1.0, np.full((1, 16), -np.sin(t)),
                               np.full((1, 16), -np.cos(t)))
    rng = np.random.default_rng(4)
    for _ in range(5):
        Y = CotangentVariation(rng.normal(), rng.normal(size=(1, 16)),
                               rng.normal(size=(1, 16)))
        assert abs(extended_form_pairing(L, g, cs, c_dot, Y)) <= 1e-12


# -- trajectory residual -----------------------------------------------------------

def test_cotangent_residual_exact_constant_solution():
    L, H = kg(1.0)
    g = make_grid(16)
    times = np.arange(0.0, 1.0 + 1e-12, 0.01)
    frames = stack([CotangentState(t, np.full((1, 16), np.cos(t)),
                                   np.full((1, 16), -np.sin(t)))
                    for t in times])
    res = cotangent_trajectory_residual(L, g, frames,
                                        rng=np.random.default_rng(0))
    assert res <= 1e-8


def test_cotangent_residual_direct_run_image():
    L, H = kg(1.0)
    g = make_grid(16)
    s0 = CauchyState(0.0, np.ones((1, 16)), np.zeros((1, 16)),
                     np.zeros((1, 1, 16)))
    traj = run_simulation(H, g, s0, 1e-3, 1000, store_every=10)
    frames = restriction_map_R(traj)
    res = cotangent_trajectory_residual(L, g, frames,
                                        rng=np.random.default_rng(0))
    assert res <= 1e-8


def test_cotangent_residual_manufactured_wave_refines():
    L, _ = wave()
    res = {}
    for N in (128, 256):
        g = make_grid(N)
        times = np.arange(0.0, 0.2 + 1e-12, 0.005)
        frames = stack([exact_wave_cotangent(g, t) for t in times])
        res[N] = cotangent_trajectory_residual(
            L, g, frames, rng=np.random.default_rng(42))
    assert res[128] <= 5e-3
    assert 3.5 <= res[128] / res[256] <= 4.5


def test_cotangent_residual_detects_scaled_momentum():
    L, _ = wave()
    g = make_grid(128)
    times = np.arange(0.0, 0.1 + 1e-12, 0.005)
    frames = stack([
        CotangentState(t, np.sin(TWO_PI * (g.x[0] - t))[None, :],
                       -1.1 * TWO_PI * np.cos(TWO_PI * (g.x[0] - t))[None, :])
        for t in times])
    res = cotangent_trajectory_residual(L, g, frames,
                                        rng=np.random.default_rng(0))
    assert res >= 0.05


# -- restriction identity -----------------------------------------------------------

def constraint_state(grid, seed=5):
    L, H = wave()
    rng = np.random.default_rng(seed)
    u = sum(rng.normal() * np.sin(TWO_PI * (m + 1) * grid.x[0] + rng.normal())
            / (m + 1) ** 2 for m in range(3))[None, :]
    p_t = sum(rng.normal() * np.sin(TWO_PI * (m + 1) * grid.x[0] + rng.normal())
              / (m + 1) ** 2 for m in range(3))[None, :]
    p_x = recover_spatial_momenta(H, grid, u, p_t=p_t)
    return CauchyState(0.0, u, p_t, p_x)


def test_pullback_identity_random_pairs():
    L, H = wave()
    g = make_grid(64)
    state = constraint_state(g)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        X = random_smooth_variation(g, 1, rng, vertical=False)
        Y = random_smooth_variation(g, 1, rng, vertical=False)
        worst = max(worst, pullback_identity_residual(L, H, g, state, X, Y))
    assert worst <= 1e-10


def test_pullback_identity_vertical_no_px_exact():
    # with no time legs and no spatial-momentum components both sides are
    # the same canonical bilinear
    L, H = wave()
    g = make_grid(32)
    state = constraint_state(g, seed=9)
    rng = np.random.default_rng(3)
    X = TangentVariation(0.0, rng.normal(size=(1, 32)),
                         rng.normal(size=(1, 32)), np.zeros((1, 1, 32)))
    Y = TangentVariation(0.0, rng.normal(size=(1, 32)),
                         rng.normal(size=(1, 32)), np.zeros((1, 1, 32)))
    assert pullback_identity_residual(L, H, g, state, X, Y) == 0.0


def test_pullback_identity_px_only_variation():
    # a variation with only spatial-momentum legs is invisible on the
    # cotangent side; on the constraint the pairing side vanishes too
    # when the partner has no time leg
    L, H = wave()
    g = make_grid(32)
    state = constraint_state(g, seed=11)
    rng = np.random.default_rng(13)
    X = TangentVariation(0.0, np.zeros((1, 32)), np.zeros((1, 32)),
                         rng.normal(size=(1, 1, 32)))
    Y = TangentVariation(0.0, rng.normal(size=(1, 32)),
                         rng.normal(size=(1, 32)), np.zeros((1, 1, 32)))
    assert pullback_identity_residual(L, H, g, state, X, Y) <= 1e-15


def test_pullback_identity_guards_constraint():
    L, H = wave()
    g = make_grid(32)
    state = constraint_state(g, seed=2)
    bad = CauchyState(state.t, state.u, state.p_t, state.p_x + 0.01)
    rng = np.random.default_rng(1)
    X = random_smooth_variation(g, 1, rng, vertical=False)
    Y = random_smooth_variation(g, 1, rng, vertical=False)
    with pytest.raises(ConstraintError) as err:
        pullback_identity_residual(L, H, g, bad, X, Y)
    assert err.value.residual == pytest.approx(0.01, rel=1e-6)
    assert time_legendre_constraint_residual(L, g, state) <= 1e-12


def test_pullback_identity_refuses_a_nan_constraint_residual():
    # a free-wave L whose dL/du_x is NaN above u = 1.5, at u = 2: the
    # constraint residual is NaN, and the identity is not evaluated there
    # (a "> tol" test let it through and returned NaN)
    free = builtin_model("free_wave")
    L = LagrangianModel(
        free.dims, free._value, d_u=free._d_u, d_ut=free._d_ut,
        velocity_hessian=free._hess,
        d_ux=lambda t, x, u, u_t, u_x: np.where(u[:, None] > 1.5, np.nan,
                                                -np.asarray(u_x)))
    g = make_grid(8)
    state = CauchyState(0.0, np.full((1, 8), 2.0), np.zeros((1, 8)),
                        np.zeros((1, 1, 8)))
    assert np.isnan(time_legendre_constraint_residual(L, g, state))
    rng = np.random.default_rng(1)
    X = random_smooth_variation(g, 1, rng, vertical=False)
    Y = random_smooth_variation(g, 1, rng, vertical=False)
    with pytest.raises(ConstraintError) as err:
        pullback_identity_residual(L, hamiltonian_from_lagrangian(free), g,
                                   state, X, Y)
    assert np.isnan(err.value.residual)


def test_energy_conserved_along_direct_wave_run():
    # the discrete energy built from the same stencil is an exact invariant
    # of the semi-discrete flow; only the RK4 time error drifts
    L, H = wave()
    g = make_grid(128)
    xs = g.x[0]
    u0 = np.sin(TWO_PI * xs)[None, :]
    p0 = -TWO_PI * np.cos(TWO_PI * xs)[None, :]
    s0 = CauchyState(0.0, u0, p0, recover_spatial_momenta(H, g, u0))
    traj = run_simulation(H, g, s0, 1e-3, 1000, store_every=100)
    energies = [instantaneous_hamiltonian(
        L, g, restriction_map_R(take_frames(traj, k)))
        for k in range(len(traj.t))]
    assert max(abs(e - energies[0]) for e in energies) <= 1e-6


def test_standard_cotangent_variations_count():
    g = make_grid(6)
    vs = standard_cotangent_variations(g, 1, rng=np.random.default_rng(0))
    # 3 profiles x 2 blocks + 2 x 6 indicators + 8 random
    assert len(vs) == 6 + 12 + 8


def test_cotangent_indicator_equivalence():
    # contracting the frame velocity with unit indicators must weigh the
    # canonical equations by the node weight:
    #   pairing(c_dot, e^u_j)  = -w (pi_dot + dh/du)_j
    #   pairing(c_dot, e^pi_j) =  w (u_dot - dh/dpi)_j
    L, _ = kg(0.7)
    g = make_grid(24)
    rng = np.random.default_rng(19)
    cs = CotangentState(0.0, rng.normal(size=(1, 24)),
                        rng.normal(size=(1, 24)))
    u_dot = rng.normal(size=(1, 24))
    pi_dot = rng.normal(size=(1, 24))
    c_dot = CotangentVariation(1.0, u_dot, pi_dot)
    dh_du, dh_dpi = variational_derivative(L, g, cs)
    w = g.weights[0]
    for j in (0, 5, 17):
        e_u = np.zeros((1, 24))
        e_u[0, j] = 1.0
        val = extended_form_pairing(L, g, cs, c_dot,
                                    CotangentVariation(0.0, e_u,
                                                       np.zeros((1, 24))))
        assert val == pytest.approx(-w * (pi_dot + dh_du)[0, j], abs=1e-13)
        e_pi = np.zeros((1, 24))
        e_pi[0, j] = 1.0
        val = extended_form_pairing(L, g, cs, c_dot,
                                    CotangentVariation(0.0, np.zeros((1, 24)),
                                                       e_pi))
        assert val == pytest.approx(w * (u_dot - dh_dpi)[0, j], abs=1e-13)


def test_hat_gamma_annihilates_extended_form():
    # the certified section's cotangent image: pushing variations of the
    # base field through hat_gamma annihilates the extended two-form, and
    # the pushed horizontal generator contracts to zero against verticals
    L, H = kg(1.0)
    g = make_grid(16)
    og = oscillator_gamma(M1, omega=1.0)
    rng = np.random.default_rng(33)
    for t in (0.0, 0.4, 0.9):
        u = np.full((1, 16), np.cos(t))
        cs = hat_gamma(og, t, g, u)
        worst_pull = 0.0
        for _ in range(6):
            kV, kW = rng.normal(size=2)
            V = rng.normal(size=(1, 16))
            W = rng.normal(size=(1, 16))
            d = og.partials(t, g.x, u)
            pv = push_variation(_lift_with(d, kV, V))
            pw = push_variation(_lift_with(d, kW, W))
            worst_pull = max(worst_pull,
                             abs(extended_form_pairing(L, g, cs, pv, pw)))
        assert worst_pull <= 1e-12
        gamma0 = H.d_pt(t, g.x, u, *og.momenta(t, g.x, u))
        X = push_variation(_lift_with(og.partials(t, g.x, u), 1.0, gamma0))
        for _ in range(4):
            xi = CotangentVariation(0.0, rng.normal(size=(1, 16)),
                                    rng.normal(size=(1, 16)))
            assert abs(extended_form_pairing(L, g, cs, X, xi)) <= 1e-12


# -- arguments that do not fit ------------------------------------------------------

@pytest.mark.parametrize("t, u_shape, pi_shape, error, message", [
    (np.zeros(3), (1, 1, 8), (1, 1, 8), ModelError,
     "u must have shape (F?, n, N) = (3, 1, 8), got (1, 1, 8)"),
    (np.zeros(2), (3, 1, 8), (3, 1, 8), ModelError,
     "u must have shape (F?, n, N) = (2, 1, 8), got (3, 1, 8)"),
    (0.0, (1, 8), (1, 7), GridError,
     "pi must have shape (F?, n, N) = (1, 8), got (1, 7)")],
    ids=["three-times-one-frame", "two-times-three-frames", "short-pi"])
def test_time_velocity_refuses_mis_shaped_arguments(t, u_shape, pi_shape,
                                                    error, message):
    # numpy's "cannot reshape array of size 8 into shape (1,24)" before;
    # the short pi came back as a (1, 7) u_t once one frame was its own
    # frame shape; the node count is the grid's
    L, _ = kg()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        solve_time_velocity(L, make_grid(8), t, np.ones(u_shape),
                            np.ones(pi_shape))


#: the entry points that bind n to the model, called with fields u and pi
#: (p_t) of the n = 1 Klein-Gordon model on 16 nodes; those that take a
#: state build it from them
BOUND_TO_THE_MODEL = {
    "recover_spatial_momenta":
    lambda L, H, g, u, pi: recover_spatial_momenta(H, g, u, p_t=pi),
    "solve_time_velocity":
    lambda L, H, g, u, pi: solve_time_velocity(L, g, 0.0, u, pi),
    "variational_derivative":
    lambda L, H, g, u, pi: variational_derivative(
        L, g, CotangentState(0.0, u, pi)),
    "instantaneous_hamiltonian":
    lambda L, H, g, u, pi: instantaneous_hamiltonian(
        L, g, CotangentState(0.0, u, pi)),
    "time_legendre_constraint_residual":
    lambda L, H, g, u, pi: time_legendre_constraint_residual(
        L, g, CauchyState(0.0, u, pi, np.zeros(u.shape[:1] + (1,)
                                               + u.shape[1:])))}


@pytest.mark.parametrize("entry", BOUND_TO_THE_MODEL)
@pytest.mark.parametrize("shape, error, got", [
    ((2, 16), ModelError, "(2, 16)"), ((1, 10), GridError, "(1, 10)")],
    ids=["two-components", "ten-nodes"])
def test_entry_points_refuse_fields_of_another_n_or_node_count(
        entry, shape, error, got):
    # the (2, 16) fields passed through all but the recovery, which
    # refused them as a GridError: the last two returned a scalar, the
    # others (2, 16) arrays; n is the model's, the node count the grid's
    L, H = kg()
    with pytest.raises(error, match=r"^u must have shape \((F\?, )?n, N\) = "
                       r"\(1, 16\), got " + re.escape(got) + "$"):
        BOUND_TO_THE_MODEL[entry](L, H, make_grid(16), np.ones(shape),
                                  np.ones(shape))


@pytest.mark.parametrize("entry", list(BOUND_TO_THE_MODEL)[:2])
def test_entry_points_refuse_a_pi_on_another_node_count(entry):
    # a GridError and a ModelError before, each worded its own way; a state
    # cannot hold such a pi, since its constructor refuses it
    L, H = kg()
    with pytest.raises(GridError, match=r"^(p_t|pi) must have shape "
                       r"\((F\?, )?n, N\) = \(1, 16\), got \(1, 10\)$"):
        BOUND_TO_THE_MODEL[entry](L, H, make_grid(16), np.ones((1, 16)),
                                  np.ones((1, 10)))


def test_time_velocity_of_a_nan_pi_is_nan():
    L, _ = kg()
    pi = np.ones((1, 8))
    pi[0, 3] = np.nan
    u_t = solve_time_velocity(L, make_grid(8), 0.0, np.ones((1, 8)), pi)
    assert np.isnan(u_t[0, 3])


def off_state_variations(seed):
    """A state on the constraint on 16 nodes, a stack of 3 variations that
    fit it, and 3 on 8 nodes: the stacks and their first rows."""
    g = make_grid(16)
    rng = np.random.default_rng(seed)
    fit, off = (random_smooth_variation(grid, 1, rng, vertical=False,
                                        count=3)
                for grid in (g, make_grid(8)))
    pairs = [(off, off), (fit, off), (off, fit)]
    return g, constraint_state(g), pairs + [
        (take_frames(X, 0), take_frames(Y, 0)) for X, Y in pairs]


# numpy's "operands could not be broadcast together with shapes (1,16)
# (1,8)" before, single or stacked; the node count is the grid's
OFF = (r"^[XY]\.du must have shape \([RT]\?, n, N\) = \((3, )?1, 16\), "
       r"got \((3, )?1, 8\)$")


def test_omega_pairing_refuses_a_variation_that_does_not_fit():
    g, _, pairs = off_state_variations(1)
    for X, Y in pairs:
        with pytest.raises(GridError, match=OFF):
            omega_pairing(g, push_variation(X), push_variation(Y))


def test_extended_pairing_refuses_variations_off_the_state():
    L, _ = wave()
    g, state, pairs = off_state_variations(2)
    for X, Y in pairs:
        with pytest.raises(GridError, match=OFF):
            extended_form_pairing(L, g, restriction_map_R(state),
                                  push_variation(X), push_variation(Y))


def test_pullback_identity_refuses_variations_off_the_state():
    L, H = wave()
    g, state, pairs = off_state_variations(3)
    for X, Y in pairs:
        with pytest.raises(GridError, match=OFF):
            pullback_identity_residual(L, H, g, state, X, Y)


def uneven_stacks(seed):
    """A state on the constraint on 16 nodes and stacks of 3 and of 2
    variations that fit it."""
    g = make_grid(16)
    rng = np.random.default_rng(seed)
    X, Y = (random_smooth_variation(g, 1, rng, vertical=False, count=S)
            for S in (3, 2))
    return g, constraint_state(g), X, Y


# numpy's "operands could not be broadcast together" before, with shapes
# (3,1,16) (2,1,16) in omega_pairing and (3,) (2,) in the other two
UNEVEN = r"^Y\.k must have shape \(S\?,\) = \(3,\), got \(2,\)$"


def test_omega_pairing_refuses_stacks_of_different_lengths():
    g, _, X, Y = uneven_stacks(6)
    pX, pY = push_variation(X), push_variation(Y)
    with pytest.raises(ModelError, match=UNEVEN):
        omega_pairing(g, pX, pY)
    # a single variation against a stack still pairs with each row
    assert omega_pairing(g, take_frames(pX, 0), pY).shape == (2,)


def test_extended_pairing_refuses_stacks_of_different_lengths():
    L, _ = wave()
    g, state, X, Y = uneven_stacks(7)
    cs, pX, pY = restriction_map_R(state), push_variation(X), \
        push_variation(Y)
    with pytest.raises(ModelError, match=UNEVEN):
        extended_form_pairing(L, g, cs, pX, pY)
    assert extended_form_pairing(L, g, cs, pX, take_frames(pY, 1)).shape \
        == (3,)


def test_pullback_identity_refuses_stacks_of_different_lengths():
    L, H = wave()
    g, state, X, Y = uneven_stacks(8)
    with pytest.raises(ModelError, match=UNEVEN):
        pullback_identity_residual(L, H, g, state, X, Y)
    assert pullback_identity_residual(L, H, g, state, take_frames(X, 2),
                                      Y).shape == (2,)


def constraint_frames(grid, F):
    """F states on the constraint, at t = 0.1, 0.2, ..., as one state."""
    return stack([replace(constraint_state(grid, seed=f), t=0.1 * (f + 1))
                  for f in range(F)])


@pytest.mark.parametrize("S", [2, 3])
def test_pairings_refuse_stacked_variations_at_stacked_frames(S):
    # a state of 3 frames against stacks of 2: numpy's "operands could not
    # be broadcast together with shapes (3,1,16) (2,1,16)" before; stacks
    # of 3 paired row f with frame f
    L, H = wave()
    g = make_grid(16)
    state = constraint_frames(g, 3)
    X = random_smooth_variation(g, 1, np.random.default_rng(10),
                                vertical=False, count=S)
    one = take_frames(X, 0)
    for A, B, name in ((X, X, "X.du"), (one, X, "Y.du")):
        with pytest.raises(ModelError, match="^" + re.escape(
                f"{name} must have shape (n, N) = (1, 16), got ({S}, 1, 16)")
                + "$"):
            extended_form_pairing(L, g, restriction_map_R(state),
                                  push_variation(A), push_variation(B))
        with pytest.raises(ModelError, match="^" + re.escape(name)):
            pullback_identity_residual(L, H, g, state, A, B)


def test_pullback_identity_on_stacked_frames():
    # numpy's "The truth value of an array with more than one element is
    # ambiguous" before: the constraint check read the (F,) distances
    L, H = wave()
    g = make_grid(16)
    state = constraint_frames(g, 5)
    X = take_frames(random_smooth_variation(
        g, 1, np.random.default_rng(11), vertical=False), 0)
    got = pullback_identity_residual(L, H, g, state, X, X)
    assert got.tolist() == [pullback_identity_residual(
        L, H, g, take_frames(state, f), X, X) for f in range(5)]
    # off the constraint at frames 2 and 3: the first in time order counts
    p_x = state.p_x.copy()
    p_x[2] += 1e-3
    p_x[3] += 2e-3
    for t, residual in ((state.t, "1.000000e-03"),
                        (state.t[::-1].copy(), "2.000000e-03")):
        with pytest.raises(ConstraintError, match=f"residual {residual} "):
            pullback_identity_residual(L, H, g, replace(state, t=t, p_x=p_x),
                                       X, X)
