"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with `pytest -s` to see them).

Criterion 3 documents a known discretization fact: the composed
central-difference stencil propagates the mode-1 travelling wave with a
phase lag of (2 pi - sin(2 pi h) / h) per unit time, which is 2.52e-3 at
N = 128 - above the 1e-3 bound the criterion asks for at that resolution
(the bound corresponds to the compact three-point stencil, which the
layer-by-layer operator contracts exclude). The assertion is kept as
stated and fails honestly; the second-order convergence half of the
criterion passes.
"""

import numpy as np
import pytest

from dedonder_hj.cauchy import (CauchyState, TangentVariation,
                                dynamical_trajectory_residual,
                                make_grid, recover_spatial_momenta,
                                run_simulation, random_smooth_variation,
                                standard_test_variations, take_frames)
from dedonder_hj.cotangent import (CotangentState,
                                   cotangent_trajectory_residual,
                                   instantaneous_hamiltonian,
                                   pullback_identity_residual,
                                   restriction_map_R)
from dedonder_hj.hj import (evolve_characteristics, gamma_closedness_residual,
                            hj_lift_solution_check, hj_residual, lift_by_gamma,
                            linear_gamma, oscillator_gamma,
                            reduced_connection)
from dedonder_hj.legendre import (FieldSection, euler_lagrange_residual,
                                  flatness_residual,
                                  hamiltonian_from_lagrangian, hdw_residual,
                                  inverse_legendre, legendre_reduced,
                                  legendre_transform_section)
from dedonder_hj.models import Dimensions, JetSample, builtin_model

TWO_PI = 2.0 * np.pi
M1 = Dimensions(m=1, n=1)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def wave_models():
    L = builtin_model("free_wave")
    return L, hamiltonian_from_lagrangian(L)


def kg_models(mass=1.0):
    L = builtin_model("klein_gordon", {"mass": mass})
    return L, hamiltonian_from_lagrangian(L)


def travelling_wave_section():
    def s(t, x):
        return TWO_PI * (x[0] - t)

    return FieldSection(
        M1,
        u=lambda t, x: np.array([np.sin(s(t, x))]),
        u_t=lambda t, x: np.array([-TWO_PI * np.cos(s(t, x))]),
        u_x=lambda t, x: np.array([[TWO_PI * np.cos(s(t, x))]]),
        u_tt=lambda t, x: np.array([-TWO_PI ** 2 * np.sin(s(t, x))]),
        u_tx=lambda t, x: np.array([[TWO_PI ** 2 * np.sin(s(t, x))]]),
        u_xx=lambda t, x: np.array([[[-TWO_PI ** 2 * np.sin(s(t, x))]]]))


def exact_wave_state(grid, t):
    xs = grid.x[0]
    return CauchyState(t, np.sin(TWO_PI * (xs - t))[None, :],
                       -TWO_PI * np.cos(TWO_PI * (xs - t))[None, :],
                       -TWO_PI * np.cos(TWO_PI * (xs - t))[None, None, :])


def stack(states):
    """One state of the F frames ``states``, t of shape (F,) and each field
    on a leading frame axis."""
    cls = type(states[0])
    return cls(*(np.array([getattr(s, name) for s in states])
                 for name in cls._fields))


def exact_wave_state_dot(grid, t):
    xs = grid.x[0]
    return (-TWO_PI * np.cos(TWO_PI * (xs - t))[None, :],
            -TWO_PI ** 2 * np.sin(TWO_PI * (xs - t))[None, :],
            -TWO_PI ** 2 * np.sin(TWO_PI * (xs - t))[None, None, :])


def run_wave(N, dt=1e-3, n_steps=1000):
    _, H = wave_models()
    grid = make_grid(N)
    state0 = exact_wave_state(grid, 0.0)
    traj = run_simulation(H, grid, state0, dt, n_steps, store_every=n_steps)
    return grid, traj


def verification_mesh(samples_per_axis=10):
    ts = np.linspace(0.0, 1.0, samples_per_axis)
    xs = np.linspace(0.0, 1.0, samples_per_axis)
    us = np.linspace(-2.0, 2.0, samples_per_axis)
    return [(t, np.array([x]), np.array([u]))
            for t in ts for x in xs for u in us]


def test_criterion_1_legendre_round_trip():
    worst = 0.0
    for name, params in (("free_wave", {}), ("klein_gordon", {"mass": 1.0})):
        model = builtin_model(name, params)
        rng = np.random.default_rng(101)
        for _ in range(100):
            jet = JetSample(rng.uniform(-1, 1), rng.uniform(-1, 1, 1),
                            rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1),
                            rng.uniform(-2, 2, (1, 1)), M1)
            back = inverse_legendre(model, legendre_reduced(model, jet))
            worst = max(worst,
                        float(np.max(np.abs(back.u_t - jet.u_t))),
                        float(np.max(np.abs(back.u_x - jet.u_x))))
    ok = worst <= 1e-10
    report(1, ok, f"round-trip max deviation {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_2_el_hdw_equivalence():
    L, H = wave_models()
    section = travelling_wave_section()
    points = [(t, np.array([x]))
              for t in np.linspace(0, 1, 7) for x in np.linspace(0, 1, 7)]
    el = float(np.max(np.abs(euler_lagrange_residual(L, section, points))))
    transformed = legendre_transform_section(L, section)
    hdw = hdw_residual(H, transformed, points).max_abs()
    ok = el <= 1e-8 and hdw <= 1e-8
    report(2, ok, f"Euler-Lagrange {el:.3e}, transformed field equations "
                  f"{hdw:.3e} (tol 1e-8)")
    assert ok


def test_criterion_3_direct_simulation_convergence():
    errors = {}
    for N in (128, 256):
        grid, traj = run_wave(N)
        exact = exact_wave_state(grid, 1.0)
        errors[N] = float(np.max(np.abs(traj.u[-1] - exact.u)))
    ratio = errors[128] / errors[256]
    ok_err = errors[128] <= 1e-3
    ok_ratio = 3.5 <= ratio <= 4.5
    report(3, ok_err and ok_ratio,
           f"L-inf error {errors[128]:.6e} at N=128 (tol 1e-3), "
           f"refinement ratio {ratio:.3f} (in [3.5, 4.5]: {ok_ratio})")
    assert ok_ratio
    assert ok_err, (
        f"L-inf error {errors[128]:.6e} exceeds 1e-3: the composed "
        f"central stencil's phase lag (2pi - sin(2pi h)/h) * T is "
        f"{(TWO_PI - np.sin(TWO_PI / 128) * 128):.6e} at N=128; see the "
        f"module docstring")


def test_criterion_4_presymplectic_trajectory_residual():
    _, H = wave_models()
    res = {}
    for N in (128, 256):
        grid = make_grid(N)
        test = standard_test_variations(grid, 1,
                                        rng=np.random.default_rng(42))
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 9):
            worst = max(worst, dynamical_trajectory_residual(
                H, grid, exact_wave_state(grid, t),
                exact_wave_state_dot(grid, t), test))
        res[N] = worst
    ratio = res[128] / res[256]
    ok = res[128] <= 5e-3 and 3.5 <= ratio <= 4.5
    report(4, ok, f"normalized pairing residual {res[128]:.6e} at N=128 "
                  f"(tol 5e-3), refinement ratio {ratio:.3f}")
    assert ok


def test_criterion_5_hj_verification():
    _, H = wave_models()
    gamma = linear_gamma(M1, a=0.5, c=0.5)
    conn = reduced_connection(H, gamma)
    mesh = verification_mesh(10)
    sup_closed = max(gamma_closedness_residual(gamma, [s]).max_abs()
                     for s in mesh)
    sup_hj = max(float(np.max(np.abs(hj_residual(H, gamma, *s))))
                 for s in mesh)
    sup_flat = max(float(np.max(np.abs(flatness_residual(conn, *s))))
                   for s in mesh)
    _, Hkg = kg_models(1.0)
    zero = linear_gamma(M1, a=0.0)
    sup_neg = max(float(np.max(np.abs(hj_residual(Hkg, zero, *s))))
                  for s in mesh)
    u_max = 2.0
    ok = (max(sup_closed, sup_hj, sup_flat) <= 1e-12
          and abs(sup_neg - u_max) <= 1e-12)
    report(5, ok, f"closedness {sup_closed:.2e}, hj {sup_hj:.2e}, flatness "
                  f"{sup_flat:.2e} over {len(mesh)} samples (tol 1e-12); "
                  f"negative control sup {sup_neg:.15g} = u_max")
    assert ok


def test_criterion_6_characteristics_vs_direct():
    _, H = kg_models(1.0)
    grid = make_grid(16)
    gamma = oscillator_gamma(M1, omega=1.0)
    times, frames = evolve_characteristics(H, gamma, grid,
                                           np.ones((1, 16)), 0.0, 1e-3, 1.0)
    char_err = float(np.max(np.abs(frames[-1] - np.cos(1.0))))
    rep = hj_lift_solution_check(H, gamma, grid, times, frames,
                                 rng=np.random.default_rng(6))
    lifted0 = lift_by_gamma(gamma, 0.0, grid, frames[0])
    direct = run_simulation(H, grid, lifted0, 1e-3, 1000, store_every=1)
    diff = max(float(np.max(np.abs(frames[k] - direct.u[k])))
               for k in range(len(times)))
    ok = (char_err <= 1e-9 and rep.split_residual <= 1e-6
          and rep.contraction_residual <= 1e-6
          and rep.pullback_residual <= 1e-6 and diff <= 1e-6)
    report(6, ok, f"characteristic error {char_err:.3e} (tol 1e-9); "
                  f"residual classes {rep.split_residual:.3e} / "
                  f"{rep.contraction_residual:.3e} / "
                  f"{rep.pullback_residual:.3e} (tol 1e-6); "
                  f"direct-vs-characteristic {diff:.3e} (tol 1e-6)")
    assert ok


def test_criterion_7_mechanics_reduction():
    L = builtin_model("mechanics_oscillator", {"omega": 1.0})
    H = hamiltonian_from_lagrangian(L)
    grid = make_grid(1, m=0)
    gamma = oscillator_gamma(L.dims, omega=1.0)
    times, frames = evolve_characteristics(H, gamma, grid,
                                           np.array([[1.0]]), 0.0, 1e-3, 1.0)
    char_err = abs(frames[-1][0, 0] - np.cos(1.0))
    sup_hj = max(abs(hj_residual(H, gamma, t, np.zeros(0),
                                 np.array([u]))[0])
                 for t in np.linspace(0.0, 1.0, 21)
                 for u in np.linspace(-2.0, 2.0, 21))
    state0 = CauchyState(0.0, np.array([[1.0]]), np.array([[0.0]]),
                         np.zeros((1, 0, 1)))
    direct = run_simulation(H, grid, state0, 1e-3, 1000, store_every=1)
    energies = [instantaneous_hamiltonian(
        L, grid, restriction_map_R(take_frames(direct, k)))
        for k in range(len(direct.t))]
    drift = max(abs(e - energies[0]) for e in energies)
    ok = char_err <= 1e-9 and sup_hj <= 1e-12 and drift <= 1e-10
    report(7, ok, f"u(1) error {char_err:.3e} (tol 1e-9), hj sup "
                  f"{sup_hj:.3e} (tol 1e-12), energy drift {drift:.3e} "
                  f"(tol 1e-10)")
    assert ok


def test_criterion_8_pullback_identity():
    L, H = wave_models()
    grid = make_grid(64)
    rng = np.random.default_rng(88)
    u = sum(rng.normal() * np.sin(TWO_PI * (m + 1) * grid.x[0] + rng.normal())
            / (m + 1) ** 2 for m in range(3))[None, :]
    p_t = sum(rng.normal() * np.sin(TWO_PI * (m + 1) * grid.x[0] + rng.normal())
              / (m + 1) ** 2 for m in range(3))[None, :]
    state = CauchyState(0.0, u, p_t, recover_spatial_momenta(H, grid, u,
                                                             p_t=p_t))
    # 20 pairs (X, Y), drawn X, Y, X, Y, ... as one stack
    draws = random_smooth_variation(grid, 1, np.random.default_rng(42),
                                    vertical=False, count=40)
    X, Y = (TangentVariation(draws.k[i::2], draws.du[i::2],
                             draws.dp_t[i::2], draws.dp_x[i::2])
            for i in (0, 1))
    worst = np.max(pullback_identity_residual(L, H, grid, state, X, Y))
    ok = worst <= 1e-10
    report(8, ok, f"pullback identity residual {worst:.3e} over 20 seeded "
                  f"pairs at N=64 (tol 1e-10)")
    assert ok


def test_criterion_9_cotangent_dynamics():
    L, H = wave_models()
    res = {}
    for N in (128, 256):
        grid = make_grid(N)
        times = np.linspace(0.0, 1.0, 101)
        frames = stack([restriction_map_R(exact_wave_state(grid, t))
                        for t in times])
        res[N] = cotangent_trajectory_residual(
            L, grid, frames, rng=np.random.default_rng(42))
    ratio = res[128] / res[256]
    Lkg, Hkg = kg_models(1.0)
    grid = make_grid(16)
    s0 = CauchyState(0.0, np.ones((1, 16)), np.zeros((1, 16)),
                     np.zeros((1, 1, 16)))
    traj = run_simulation(Hkg, grid, s0, 1e-3, 1000, store_every=10)
    kg_res = cotangent_trajectory_residual(
        Lkg, grid, restriction_map_R(traj), rng=np.random.default_rng(42))
    ok = (res[128] <= 5e-3 and 3.5 <= ratio <= 4.5 and kg_res <= 1e-8)
    report(9, ok, f"wave image residual {res[128]:.6e} at N=128 (tol 5e-3), "
                  f"ratio {ratio:.3f}; constant-data run {kg_res:.3e} "
                  f"(tol 1e-8)")
    assert ok


def test_criterion_10_instantaneous_hamiltonian():
    L, _ = wave_models()
    target = TWO_PI ** 2 / 4.0
    errs = {}
    for N in (128, 256):
        grid = make_grid(N)
        cs = CotangentState(0.0, np.sin(TWO_PI * grid.x[0])[None, :],
                            np.zeros((1, N)))
        errs[N] = abs(instantaneous_hamiltonian(L, grid, cs) - target)
    ratio = errs[128] / errs[256]
    ok = errs[128] <= 1e-2 and 3.5 <= ratio <= 4.5
    report(10, ok, f"energy error {errs[128]:.6e} at N=128 (tol 1e-2), "
                   f"refinement ratio {ratio:.3f}")
    assert ok
