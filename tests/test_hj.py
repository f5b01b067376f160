import numpy as np
import pytest

from dedonder_hj.cauchy import (BlowupError, GridError, make_grid,
                                recover_spatial_momenta, run_simulation)
from dedonder_hj.hj import (ClosednessResidual, GammaDomainError, HJSection,
                            IncompatibleDataError, _lift_with,
                            check_compatibility, evolve_characteristics,
                            gamma_closedness_residual,
                            gamma_family, hj_lift_solution_check, hj_residual,
                            lift_by_gamma, linear_gamma,
                            oscillator_gamma, reduced_connection,
                            restricted_connection_residual)
from dedonder_hj.legendre import flatness_residual, hamiltonian_from_lagrangian
from dedonder_hj.models import Dimensions, ModelError, builtin_model

M1 = Dimensions(m=1, n=1)
TWO_PI = 2.0 * np.pi


def wave_H():
    return hamiltonian_from_lagrangian(builtin_model("free_wave"))


def kg_H(mass=1.0):
    return hamiltonian_from_lagrangian(
        builtin_model("klein_gordon", {"mass": mass}))


def box_samples(dims, count=60, seed=15):
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(0, 1)), rng.uniform(0, 1, dims.m),
             rng.uniform(-2, 2, dims.n)) for _ in range(count)]


# -- closedness ---------------------------------------------------------------

@pytest.mark.parametrize("component", range(3))
def test_closedness_residual_propagates_nan(component):
    # the reducers kept the earlier number and read 0.0 past a NaN
    parts = [np.zeros((1, 1, 1)), np.zeros((1, 1, 1, 1)), np.zeros((1, 1))]
    parts[component].flat[0] = np.nan
    res = ClosednessResidual(*parts)
    assert np.isnan(res.per_sample()).all() and np.isnan(res.max_abs())


def test_linear_gamma_closed():
    lg = linear_gamma(M1, a=0.7, b=0.3, c=-0.4, d=1.1, p_const=2.0)
    res = gamma_closedness_residual(lg, box_samples(M1))
    assert res.max_abs() == 0.0


def test_time_linear_section_mixed_component():
    # gamma_pt = t u with gamma_p = 0: the mixed component is -u
    sec = HJSection(M1, pt=lambda t, x, u: t * np.asarray(u, dtype=float),
                    px=lambda t, x, u: np.zeros((1, 1) + np.shape(np.asarray(u)[0])))
    res = gamma_closedness_residual(sec, [(0.5, [0.1], [2.0])])
    assert res.mixed[0, 0] == pytest.approx(-2.0, abs=1e-9)


def test_two_component_symmetry_residual():
    # gamma_pt_1 = u_2, gamma_pt_2 = 0: antisymmetrized u-derivative is 1
    dims = Dimensions(m=1, n=2)

    def pt(t, x, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        out[0] = u[1]
        return out

    sec = HJSection(dims, pt=pt,
                    px=lambda t, x, u: np.zeros((2, 1) + np.shape(np.asarray(u)[0])))
    res = gamma_closedness_residual(sec, [(0.0, [0.0], [0.3, -1.2])])
    assert res.symmetry_t[0, 0, 1] == pytest.approx(1.0, abs=1e-9)
    assert res.symmetry_t[0, 1, 0] == pytest.approx(-1.0, abs=1e-9)


def test_oscillator_gamma_closed():
    og = oscillator_gamma(Dimensions(m=0, n=1), omega=1.3, phi=0.2)
    samples = [(0.2, np.zeros(0), np.array([1.5])),
               (0.6, np.zeros(0), np.array([-0.4]))]
    assert gamma_closedness_residual(og, samples).max_abs() <= 1e-12


# -- the pointwise Hamilton-Jacobi condition -----------------------------------

def test_hj_residual_linear_wave():
    # (a^2 - c^2) u + (a b - c d) vanishes identically for a = c, b = d
    lg = linear_gamma(M1, a=0.5, c=0.5)
    H = wave_H()
    for (t, x, u) in box_samples(M1):
        assert np.max(np.abs(hj_residual(H, lg, t, x, u))) == 0.0


def test_hj_residual_linear_parameter_dependence():
    # residual = (a^2 - c^2) u + (a b - c d): constants drop iff a b = c d
    H = wave_H()
    u = np.array([1.3])
    point = (0.2, np.array([0.4]), u)
    res = hj_residual(H, linear_gamma(M1, a=0.5, b=1.0, c=0.5, d=0.0), *point)
    assert res[0] == pytest.approx(0.5, abs=1e-12)
    res = hj_residual(H, linear_gamma(M1, a=0.5, b=2.0, c=0.5, d=2.0), *point)
    assert res[0] == pytest.approx(0.0, abs=1e-12)
    res = hj_residual(H, linear_gamma(M1, a=0.8, c=0.2), *point)
    assert res[0] == pytest.approx((0.64 - 0.04) * 1.3, abs=1e-12)


def test_hj_residual_zero_section_klein_gordon():
    zero = linear_gamma(M1, a=0.0)
    H = kg_H(1.0)
    for (t, x, u) in box_samples(M1):
        res = hj_residual(H, zero, t, x, u)
        assert np.allclose(res, u, atol=1e-14)


def test_hj_residual_oscillator_family():
    # a' + a^2 + omega^2 = 0 for a = -omega tan(omega t)
    osc = builtin_model("mechanics_oscillator", {"omega": 1.0})
    H = hamiltonian_from_lagrangian(osc)
    og = oscillator_gamma(osc.dims, omega=1.0)
    for t in (0.0, 0.3, 0.9, 1.3):
        res = hj_residual(H, og, t, np.zeros(0), np.array([0.7]))
        assert abs(res[0]) <= 1e-12


def test_hj_residual_oscillator_on_klein_gordon():
    # same cancellation drives the mass-1 Klein-Gordon family
    H = kg_H(1.0)
    og = oscillator_gamma(M1, omega=1.0)
    for t in (0.0, 0.4, 1.0):
        res = hj_residual(H, og, t, np.array([0.3]), np.array([1.4]))
        assert abs(res[0]) <= 1e-12


def mis_shaped_samples(case):
    """The call of one verification function on samples of an n = 1,
    m = 1 section that are mis-shaped as ``case`` says, 4 samples else."""
    H, og = kg_H(1.0), oscillator_gamma(M1, omega=1.0)
    t, x, u = np.linspace(0.1, 0.4, 4), np.full((1, 4), 0.3), np.ones((1, 4))
    calls = {
        "closedness point u of 2": lambda: gamma_closedness_residual(
            og, [(0.1, [0.2], [0.3, 0.4])]),
        "closedness point x of 2": lambda: gamma_closedness_residual(
            og, [(0.1, [0.1, 0.2], [0.3])]),
        "hj u of 2 rows": lambda: hj_residual(H, og, t, x, np.ones((2, 4))),
        "hj x of 2 rows": lambda: hj_residual(H, og, t, np.ones((2, 4)), u),
        "hj t of 3": lambda: hj_residual(H, og, t[:3], x, u),
        "closedness u of 2 rows": lambda: gamma_closedness_residual(
            og, t, x, np.ones((2, 4))),
        "closedness t of 3": lambda: gamma_closedness_residual(og, t[:3], x,
                                                               u),
        "flatness u of 2 rows": lambda: flatness_residual(
            reduced_connection(H, og), t, x, np.ones((2, 4)))}
    return calls[case]


U_OF_2 = r"^u must have shape \(n, P\?\) = \(1, 4\), got \(2, 4\)$"
T_OF_3 = r"^x must have shape \(m, P\?\) = \(1, 3\), got \(1, 4\)$"

#: the refusal of each case of :func:`mis_shaped_samples`, and what the
#: call did before it was refused
MIS_SHAPED = {
    "hj u of 2 rows": U_OF_2,            # returned a (2, 4) array
    "hj x of 2 rows":                    # returned a result
    r"^x must have shape \(m, P\?\) = \(1, 4\), got \(2, 4\)$",
    "hj t of 3": T_OF_3,                 # numpy's ValueError
    "closedness u of 2 rows": U_OF_2,    # returned a ClosednessResidual
    "closedness t of 3": T_OF_3,         # numpy's ValueError
    "flatness u of 2 rows": U_OF_2,      # "all the input array dimensions"
    # numpy's "cannot reshape array of size 2 into shape (1,1)", twice
    "closedness point u of 2":
    r"^u must have shape \(n,\) = \(1,\), got \(2,\)$",
    "closedness point x of 2":
    r"^x must have shape \(m,\) = \(1,\), got \(2,\)$"}


@pytest.mark.parametrize("case", MIS_SHAPED)
def test_verification_functions_refuse_mis_shaped_samples(case):
    with pytest.raises(ModelError, match=MIS_SHAPED[case]):
        mis_shaped_samples(case)()


def test_verification_functions_take_a_scalar_t_over_samples():
    # the grid form of the section: one t, x and u on a trailing axis
    H, og = kg_H(1.0), oscillator_gamma(M1, omega=1.0)
    x, u = np.full((1, 4), 0.3), np.ones((1, 4))
    assert hj_residual(H, og, 0.2, x, u).shape == (1, 4)
    assert gamma_closedness_residual(og, 0.2, x, u).per_sample().shape \
        == (4,)
    assert flatness_residual(reduced_connection(H, og), 0.2, x, u).shape \
        == (1, 2, 2, 4)


# -- induced connection ----------------------------------------------------------

def test_reduced_connection_values():
    lg = linear_gamma(M1, a=0.5, c=0.5)
    conn = reduced_connection(wave_H(), lg)
    G = conn.coefficients(0.0, np.array([0.2]), np.array([2.0]))
    assert G[0, 0] == 1.0 and G[0, 1] == -1.0
    zero = linear_gamma(M1, a=0.0)
    conn0 = reduced_connection(wave_H(), zero)
    assert not conn0.coefficients(0.0, np.array([0.2]), np.array([2.0])).any()


def test_reduced_connection_oscillator_time_zero():
    og = oscillator_gamma(M1, omega=1.0)
    conn = reduced_connection(kg_H(1.0), og)
    G = conn.coefficients(0.0, np.array([0.1]), np.array([1.0]))
    assert G[0, 0] == 0.0  # tan(0) = 0


def test_flatness_of_induced_connection():
    # closed + Hamilton-Jacobi implies flat; exact for these families
    conn = reduced_connection(wave_H(), linear_gamma(M1, a=0.5, c=0.5))
    for (t, x, u) in box_samples(M1, count=30):
        assert np.max(np.abs(flatness_residual(conn, t, x, u))) <= 1e-12
    conn = reduced_connection(kg_H(1.0), oscillator_gamma(M1, omega=1.0))
    for (t, x, u) in box_samples(M1, count=30):
        assert np.max(np.abs(flatness_residual(conn, t, x, u))) <= 1e-12


def test_flatness_detects_non_solution_family():
    # a d != b c leaves a constant curvature a d - b c
    lg = linear_gamma(M1, a=0.5, b=1.0, c=0.0, d=0.4)
    conn = reduced_connection(wave_H(), lg)
    res = flatness_residual(conn, 0.1, np.array([0.2]), np.array([0.9]))
    # Gamma_0 = a u + b, Gamma_1 = -(c u + d): the bracket leaves a d - b c
    assert res[0, 0, 1] == pytest.approx(0.5 * 0.4 - 1.0 * 0.0, abs=1e-12)


# -- restricted connection and characteristics -----------------------------------

def test_restricted_residual_constant_field():
    g = make_grid(32)
    zero = linear_gamma(M1, a=0.0)
    res = restricted_connection_residual(wave_H(), zero, g,
                                         np.full((1, 32), 1.7), 0.0)
    assert not res.any()


def test_restricted_residual_constant_on_oscillator_family():
    g = make_grid(32)
    og = oscillator_gamma(M1, omega=1.0)
    res = restricted_connection_residual(kg_H(1.0), og, g,
                                         np.full((1, 32), 2.0), 0.5)
    assert np.max(np.abs(res)) <= 1e-14


def test_restricted_residual_sine_against_flat_section():
    g = make_grid(128)
    zero = linear_gamma(M1, a=0.0)
    u = np.sin(TWO_PI * g.x[0])[None, :]
    res = restricted_connection_residual(wave_H(), zero, g, u, 0.0)
    assert np.max(np.abs(res[0, 0] - TWO_PI * np.cos(TWO_PI * g.x[0]))) <= 1e-2


def test_characteristics_oscillator():
    osc = builtin_model("mechanics_oscillator", {"omega": 1.0})
    H = hamiltonian_from_lagrangian(osc)
    og = oscillator_gamma(osc.dims, omega=1.0)
    g = make_grid(1, m=0)
    times, frames = evolve_characteristics(H, og, g, np.array([[1.0]]),
                                           0.0, 1e-3, 1.0)
    assert abs(frames[-1][0, 0] - np.cos(1.0)) <= 1e-9


def test_characteristics_constant_klein_gordon():
    g = make_grid(16)
    og = oscillator_gamma(M1, omega=1.0)
    times, frames = evolve_characteristics(kg_H(1.0), og, g,
                                           np.ones((1, 16)), 0.0, 1e-3, 1.0)
    assert np.max(np.abs(frames[-1] - np.cos(1.0))) <= 1e-9


def test_characteristics_blowup_names_the_step():
    # du/dt = 20 u from u = 1 passes 1e8 near t = ln(1e8) / 20 = 0.92
    g = make_grid(16)
    steep = linear_gamma(M1, a=20.0)
    with pytest.raises(BlowupError,
                       match=r"^\|u\| exceeded 1e\+08 at step 93$"):
        evolve_characteristics(wave_H(), steep, g, np.ones((1, 16)), 0.0,
                               0.01, 1.0, store_every=10)


def test_characteristics_refuse_non_finite_u():
    # the section is NaN above u = 1.05; |u| > 1e8 is False for NaN
    g = make_grid(8)
    holed = HJSection(M1, pt=lambda t, x, u: np.where(u > 1.05, np.nan, u),
                      px=lambda t, x, u: np.zeros((1, 1) + np.shape(u)[1:]))
    with pytest.raises(BlowupError, match=r"^non-finite u at step 1$"):
        evolve_characteristics(kg_H(1.0), holed, g, np.ones((1, 8)), 0.0,
                               0.1, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_characteristics_refuse_non_finite_start(bad):
    # unrefused, a NaN start was stored as frame 0 and refused only after
    # a full step, as BlowupError at step 1
    g = make_grid(8)
    og = oscillator_gamma(M1, omega=1.0)
    calls, momenta = [], og.momenta
    og.momenta = lambda *args: calls.append(args) or momenta(*args)
    u0 = np.ones((1, 8))
    u0[0, 3] = bad
    with pytest.raises(ModelError, match="^non-finite field u$"):
        evolve_characteristics(kg_H(1.0), og, g, u0, 0.0, 0.1, 1.0)
    assert calls == []


def test_characteristics_store_the_last_step_off_the_stride():
    # 5 steps stored every 2nd: steps 0, 2 and 4, and the last step 5
    g = make_grid(16)
    og = oscillator_gamma(M1, omega=1.0)
    u0 = 1.0 + 0.1 * np.sin(2 * np.pi * g.x)
    every, all_frames = evolve_characteristics(kg_H(1.0), og, g, u0, 0.3,
                                               0.01, 0.35)
    times, frames = evolve_characteristics(kg_H(1.0), og, g, u0, 0.3, 0.01,
                                           0.35, store_every=2)
    assert times.tolist() == [0.3 + k * 0.01 for k in (0, 2, 4, 5)]
    assert times.tobytes() == every[[0, 2, 4, 5]].tobytes()
    assert frames.tobytes() == all_frames[[0, 2, 4, 5]].tobytes()


@pytest.mark.parametrize("dt, store_every, message", [
    (np.nan, 1, "dt must be positive and finite"),
    (np.inf, 1, "dt must be positive and finite"),
    (0.0, 1, "dt must be positive and finite"),
    (0.01, 0, "store_every must be >= 1"),
    (0.3, 1, "t_final - t0 must be an integer number of steps"),
])
def test_characteristics_refuse_bad_step_and_stride(dt, store_every, message):
    # unrefused, dt = nan raised from round, dt = inf returned the
    # initial frame alone and store_every = 0 divided by zero
    g = make_grid(16)
    og = oscillator_gamma(M1, omega=1.0)
    with pytest.raises(ModelError, match=f"^{message}$"):
        evolve_characteristics(kg_H(1.0), og, g, np.ones((1, 16)), 0.0, dt,
                               1.0, store_every=store_every)


@pytest.mark.parametrize("t0, t_final", [
    (0.0, np.nan), (0.0, np.inf), (0.0, -1.0), (np.nan, 1.0),
    (-np.inf, 1.0),
])
def test_characteristics_refuse_bad_time_span(t0, t_final):
    g = make_grid(16)
    og = oscillator_gamma(M1, omega=1.0)
    with pytest.raises(ModelError,
                       match="^t0 and t_final must be finite, t_final >= t0$"):
        evolve_characteristics(kg_H(1.0), og, g, np.ones((1, 16)), t0, 0.1,
                               t_final)


OSC_H = hamiltonian_from_lagrangian(
    builtin_model("mechanics_oscillator", {"omega": 1.0}))
OSC_GAMMA = oscillator_gamma(OSC_H.dims, omega=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: recover_spatial_momenta(OSC_H, make_grid(16), np.ones((1, 16))),
     GridError, "mechanics_oscillator_hamiltonian is for m = 0, the grid has "
     "m = 1"),
    (lambda: recover_spatial_momenta(kg_H(1.0), make_grid(1, m=0),
                                     np.ones((1, 1))),
     GridError, "klein_gordon_hamiltonian is for m = 1, the grid has m = 0"),
    (lambda: lift_by_gamma(OSC_GAMMA, 0.0, make_grid(16), np.ones((1, 16))),
     GridError, "the section is for m = 0, the grid has m = 1"),
    (lambda: evolve_characteristics(kg_H(1.0), oscillator_gamma(M1, 1.0),
                                    make_grid(16), np.ones((1, 10)), 0.0,
                                    0.1, 1.0),
     GridError, r"u must have shape \(n, N\) = \(1, 16\), got \(1, 10\)"),
    (lambda: check_compatibility(kg_H(1.0), oscillator_gamma(M1, 1.0),
                                 make_grid(16), np.ones((1, 10)), 0.0),
     GridError, r"u must have shape \(n, N\) = \(1, 16\), got \(1, 10\)"),
    (lambda: evolve_characteristics(kg_H(1.0), oscillator_gamma(M1, 1.0),
                                    make_grid(16), np.ones((1, 16)), 0.0,
                                    0.1, 1.0, store_every=2.5),
     ModelError, "store_every must be an integer, got 2.5"),
    (lambda: check_compatibility(OSC_H, oscillator_gamma(OSC_H.dims, 1.0,
                                                         phi=np.pi / 2),
                                 make_grid(1, m=0), np.ones((1, 1)), 0.0),
     GammaDomainError, r"oscillator section evaluated within 0\.001 of a "
     r"tan pole \(omega t \+ phi = 1\.570796\)"),
], ids=["oscillator-on-field-grid", "field-on-point-grid",
        "point-section-on-field-grid", "characteristics-short-u",
        "compatibility-short-u", "fractional-store-every",
        "point-section-at-pole"])
def test_entry_points_refuse_misfits_and_poles(call, error, message):
    # unrefused: a (1, 1, 16) and a (1, 0, 1) p_x, a lifted state, frames
    # of 10 nodes, a raw broadcast ValueError, every fifth step stored, and
    # a pass of the empty m = 0 residual without evaluating the section
    with pytest.raises(error, match=f"^{message}$"):
        call()


KG2_H = hamiltonian_from_lagrangian(
    builtin_model("klein_gordon", {"mass": 1.0, "n": 2}))
U16 = np.ones((1, 16))
FRAMES = np.ones((5, 1, 16))


@pytest.mark.parametrize("H, message", [
    (OSC_H, "mechanics_oscillator_hamiltonian is for m = 0, n = 1, the "
     "section for m = 1, n = 1"),
    (KG2_H, "klein_gordon_hamiltonian is for m = 1, n = 2, the section for "
     "m = 1, n = 1"),
], ids=["point-H-field-section", "two-component-H"])
@pytest.mark.parametrize("call", [
    lambda H, g: check_compatibility(H, g, make_grid(16), U16, 0.0),
    lambda H, g: restricted_connection_residual(H, g, make_grid(16), U16,
                                                0.0),
    lambda H, g: evolve_characteristics(H, g, make_grid(16), U16, 0.0, 0.1,
                                        1.0),
    lambda H, g: hj_lift_solution_check(H, g, make_grid(16),
                                        np.arange(5) * 0.1, FRAMES),
    lambda H, g: hj_residual(H, g, 0.0, np.zeros(1), np.ones(1)),
    lambda H, g: reduced_connection(H, g),
], ids=["check_compatibility", "restricted_connection_residual",
        "evolve_characteristics", "hj_lift_solution_check", "hj_residual",
        "reduced_connection"])
def test_hamiltonian_and_section_dimensions_are_compared(call, H, message):
    # unrefused: a residual of 0.0, characteristics of the oscillator
    # stepped as a field, and broadcasts of one section component to two
    with pytest.raises(ModelError, match=f"^{message}$"):
        call(H, oscillator_gamma(M1, 1.0))


def test_characteristics_empty_time_span():
    g = make_grid(16)
    og = oscillator_gamma(M1, omega=1.0)
    times, frames = evolve_characteristics(kg_H(1.0), og, g,
                                           np.ones((1, 16)), 0.3, 0.1, 0.3)
    assert times.tolist() == [0.3]
    assert np.array_equal(frames, np.ones((1, 1, 16)))


def test_characteristics_zero_section_is_static():
    g = make_grid(16)
    zero = linear_gamma(M1, a=0.0)
    u0 = np.cos(TWO_PI * g.x[0])[None, :]
    times, frames = evolve_characteristics(wave_H(), zero, g, u0,
                                           0.0, 1e-2, 0.1)
    assert np.array_equal(frames[-1], u0)


def test_pole_guard():
    og = oscillator_gamma(M1, omega=1.0)
    with pytest.raises(GammaDomainError):
        og.momenta(np.pi / 2, np.zeros((1, 1)), np.ones((1, 1)))


# -- lifting ---------------------------------------------------------------------

def test_lift_by_gamma_values():
    g = make_grid(8)
    lg = linear_gamma(M1, a=0.5, c=0.5)
    state = lift_by_gamma(lg, 0.0, g, np.full((1, 8), 2.0))
    assert np.allclose(state.p_t, 1.0) and np.allclose(state.p_x, 1.0)
    zero = linear_gamma(M1, a=0.0)
    state = lift_by_gamma(zero, 0.0, g, np.full((1, 8), 2.0))
    assert not state.p_t.any() and not state.p_x.any()
    og = oscillator_gamma(M1, omega=1.0)
    state = lift_by_gamma(og, 0.0, g, np.full((1, 8), 2.0))
    assert not state.p_t.any()


def test_lift_variation_chain_rule():
    g = make_grid(8)
    og = oscillator_gamma(M1, omega=1.0)
    u = np.full((1, 8), 0.8)
    du = np.full((1, 8), 0.1)
    t = 0.4
    lv = _lift_with(og.partials(t, g.x, u), 2.0, du)
    a = -np.tan(t)
    a_prime = -1.0 / np.cos(t) ** 2
    expected = 2.0 * a_prime * u + a * du
    assert np.allclose(lv.dp_t, expected, atol=1e-14)
    assert not lv.dp_x.any()


#: a constant (2, 2) matrix that is not symmetric
SKEWED = np.array([[0.3, 0.7], [-0.2, 0.5]])


def skewed_gamma():
    """n = 2, m = 1: gamma_pt = (1 + t) A u with A = SKEWED, so
    d(gamma_pt)/du = (1 + t) A is not symmetric and the section is not
    closed; gamma_px = 0."""
    return HJSection(
        Dimensions(m=1, n=2),
        pt=lambda t, x, u: (1 + t) * np.einsum("ab,b...->a...", SKEWED, u),
        px=lambda t, x, u: np.zeros((2, 1) + u.shape[1:]))


def test_hj_residual_and_lift_contract_a_non_symmetric_pt_u():
    # Klein-Gordon of mass 1 at n = 2 has H_u = u and H_pt = p_t, so the
    # residual is u + d(gamma_pt)/du^T gamma_pt + d_t gamma_pt
    # = u + (1 + t)^2 A^T A u + A u, and the lift of (k, du) varies p_t by
    # k d_t gamma_pt + d(gamma_pt)/du du = k A u + (1 + t) A du; either
    # contraction transposed gives A A u or A^T du instead
    gamma = skewed_gamma()
    H = hamiltonian_from_lagrangian(
        builtin_model("klein_gordon", {"mass": 1.0, "n": 2}))
    rng = np.random.default_rng(4)
    t = rng.uniform(0.1, 0.9, 5)
    x = rng.uniform(0.0, 1.0, (1, 5))
    u = rng.uniform(-1.0, 1.0, (2, 5))
    assert gamma_closedness_residual(gamma, t, x, u).max_abs() > 0.5
    expected = u + (1 + t) ** 2 * (SKEWED.T @ SKEWED @ u) + SKEWED @ u
    assert np.allclose(hj_residual(H, gamma, t, x, u), expected, rtol=0,
                       atol=1e-8)
    g = make_grid(6)
    u = rng.uniform(-1.0, 1.0, (2, 6))
    du = rng.uniform(-1.0, 1.0, (2, 6))
    lift = _lift_with(gamma.partials(0.3, g.x, u), 0.7, du)
    assert np.allclose(lift.dp_t, 0.7 * SKEWED @ u + 1.3 * SKEWED @ du,
                       rtol=0, atol=1e-8)
    assert not lift.dp_x.any()


# -- certification of lifted characteristic trajectories ----------------------------

def test_hj_lift_solution_check_certifies_kg_scenario():
    g = make_grid(16)
    H = kg_H(1.0)
    og = oscillator_gamma(M1, omega=1.0)
    times, frames = evolve_characteristics(H, og, g, np.ones((1, 16)),
                                           0.0, 1e-3, 1.0)
    rep = hj_lift_solution_check(H, og, g, times, frames,
                                 rng=np.random.default_rng(1))
    assert rep.compatibility_residual <= 1e-12
    assert rep.split_residual <= 1e-6
    assert rep.contraction_residual <= 1e-6
    assert rep.pullback_residual <= 1e-6


def test_hj_lift_check_flags_non_solution_section():
    # gamma = 0 is not a Hamilton-Jacobi solution for mass 1: the
    # contraction residual retains the mass term
    g = make_grid(16)
    H = kg_H(1.0)
    zero = linear_gamma(M1, a=0.0)
    times, frames = evolve_characteristics(H, zero, g, np.ones((1, 16)),
                                           0.0, 1e-3, 0.05)
    rep = hj_lift_solution_check(H, zero, g, times, frames,
                                 rng=np.random.default_rng(1))
    assert rep.contraction_residual >= 0.1


def test_hj_lift_check_trivial_wave_solution():
    # gamma = 0 with constant data is an exact solution of the free wave
    g = make_grid(16)
    H = wave_H()
    zero = linear_gamma(M1, a=0.0)
    times, frames = evolve_characteristics(H, zero, g,
                                           np.full((1, 16), 0.9),
                                           0.0, 1e-3, 0.05)
    rep = hj_lift_solution_check(H, zero, g, times, frames,
                                 rng=np.random.default_rng(1))
    assert rep.split_residual <= 1e-10
    assert rep.contraction_residual <= 1e-12
    assert rep.pullback_residual <= 1e-12


def test_hj_lift_check_refuses_incompatible_data():
    # sine data is not an integral submanifold of the flat section's
    # restricted connection; the residual is the full gradient, about 2 pi
    g = make_grid(128)
    H = wave_H()
    zero = linear_gamma(M1, a=0.0)
    u0 = np.sin(TWO_PI * g.x[0])[None, :]
    times, frames = evolve_characteristics(H, zero, g, u0, 0.0, 1e-3, 0.01)
    with pytest.raises(IncompatibleDataError) as err:
        hj_lift_solution_check(H, zero, g, times, frames)
    assert err.value.residual == pytest.approx(TWO_PI, rel=1e-3)


def test_check_compatibility_tolerance():
    # the residual of sine data against the flat section is the discrete
    # gradient, about 2 pi; the tolerance is 10 h^2
    g = make_grid(128)
    H = wave_H()
    zero = linear_gamma(M1, a=0.0)
    u = np.sin(TWO_PI * g.x[0])[None, :]
    assert check_compatibility(H, zero, g, np.full((1, 128), 1.7), 0.0) == 0.0
    with pytest.raises(IncompatibleDataError) as err:
        check_compatibility(H, zero, g, u, 0.0)
    assert err.value.tol == 10.0 * g.spacing ** 2
    assert err.value.residual == pytest.approx(TWO_PI, rel=1e-3)
    # vacuous for m = 0
    osc = builtin_model("mechanics_oscillator", {"omega": 1.0})
    dims0 = Dimensions(m=0, n=1)
    assert check_compatibility(hamiltonian_from_lagrangian(osc),
                               linear_gamma(dims0, a=0.3), make_grid(1, m=0),
                               np.ones((1, 1)), 0.0) == 0.0


@pytest.mark.parametrize("H, gamma, grid", [
    (wave_H(), linear_gamma(M1, a=0.0), make_grid(16)),
    (hamiltonian_from_lagrangian(builtin_model("mechanics_oscillator")),
     linear_gamma(Dimensions(m=0, n=1), a=0.3), make_grid(1, m=0)),
], ids=["m1", "m0"])
def test_check_compatibility_refuses_non_finite_u(H, gamma, grid):
    # nan > tol is False, and the m = 0 residual is empty: NaN data passed
    u = np.ones((1, grid.n_nodes))
    u[0, 0] = np.nan
    with pytest.raises(ModelError, match="^non-finite field u$"):
        check_compatibility(H, gamma, grid, u, 0.0)


def test_check_compatibility_refuses_nan_momenta():
    # a section whose p_x is NaN above u = 0.5 at finite data: the residual
    # is NaN, and nan > tol is False, so the data passed with nan
    nan_above = HJSection(
        M1, pt=lambda t, x, u: 0.0 * u,
        px=lambda t, x, u: np.where(u > 0.5, np.nan, 0.0)[:, None])
    with pytest.raises(IncompatibleDataError, match="residual nan") as exc:
        check_compatibility(wave_H(), nan_above, make_grid(8),
                            np.ones((1, 8)), 0.0)
    assert exc.value.exit_code == 4


def test_connection_lift_vector_components():
    g = make_grid(8)
    H = kg_H(1.0)
    og = oscillator_gamma(M1, omega=1.0)
    t = 0.3
    u = np.full((1, 8), np.cos(t))
    # the horizontal generator (k = 1, du = Gamma_0) lifted by the section
    gamma0 = H.d_pt(t, g.x, u, *og.momenta(t, g.x, u))
    X = _lift_with(og.partials(t, g.x, u), 1.0, gamma0)
    assert X.k == 1.0
    # du = Gamma_0 = a(t) u; dp_t = d_t gamma_pt + d_u gamma_pt Gamma_0 = -u
    a = -np.tan(t)
    assert np.allclose(X.du, a * u, atol=1e-14)
    assert np.allclose(X.dp_t, -u, atol=1e-13)


def test_two_component_certified_pipeline():
    # the full verify-integrate-lift-certify chain for two field components
    L = builtin_model("klein_gordon", {"mass": 1.0, "n": 2})
    H = hamiltonian_from_lagrangian(L)
    og = oscillator_gamma(L.dims, omega=1.0)
    sample = (0.3, np.array([0.2]), np.array([1.1, -0.7]))
    assert gamma_closedness_residual(og, [sample]).max_abs() == 0.0
    assert np.max(np.abs(hj_residual(H, og, *sample))) <= 1e-12
    conn = reduced_connection(H, og)
    assert np.max(np.abs(flatness_residual(conn, *sample))) <= 1e-12
    g = make_grid(12)
    u0 = np.vstack([np.ones(12), 1.5 * np.ones(12)])
    times, frames = evolve_characteristics(H, og, g, u0, 0.0, 1e-3, 0.5)
    assert np.max(np.abs(frames[-1] - u0 * np.cos(0.5))) <= 1e-9
    rep = hj_lift_solution_check(H, og, g, times, frames,
                                 rng=np.random.default_rng(0))
    assert rep.split_residual <= 1e-6
    assert rep.contraction_residual <= 1e-9
    assert rep.pullback_residual <= 1e-9
    lifted0 = lift_by_gamma(og, 0.0, g, u0)
    direct = run_simulation(H, g, lifted0, 1e-3, 500, store_every=500)
    assert np.max(np.abs(direct.u[-1] - u0 * np.cos(0.5))) <= 1e-9


def test_gamma_family_registry():
    lg = gamma_family("linear", M1, {"a": 0.5, "c": 0.5})
    assert np.array_equal(lg.momenta(0.0, [0.0], [2.0])[0], [1.0])
    with pytest.raises(ModelError):
        gamma_family("generating_function", M1, {})
    with pytest.raises(ModelError, match=r"unused parameters for linear: "
                                         r"\['omega'\]"):
        gamma_family("linear", M1, {"a": 0.5, "omega": 1.0})
