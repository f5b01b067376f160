import re

import numpy as np
import pytest

from dedonder_hj.legendre import (NEWTON_MAX_ITER, ConnectionCoefficients,
                                  FieldSection, HdwSectionResidual,
                                  MomentumSection, NewtonError,
                                  _solve_nodewise,
                                  euler_lagrange_residual,
                                  flatness_residual,
                                  hamiltonian_from_lagrangian, hdw_residual,
                                  inverse_legendre, legendre_extended,
                                  legendre_reduced, legendre_transform_section,
                                  regularity_check)
from dedonder_hj.models import (Dimensions, JetSample, LagrangianModel,
                                ModelError, ReducedMomentumSample,
                                builtin_model)

M1 = Dimensions(m=1, n=1)
TWO_PI = 2.0 * np.pi


def jet(u=0.0, u_t=0.0, u_x=0.0, t=0.0, x=0.0):
    return JetSample(t, [x], [u], [u_t], [[u_x]], M1)


def random_jet(rng, dims):
    return JetSample(rng.uniform(-1, 1), rng.uniform(-1, 1, dims.m),
                     rng.uniform(-2, 2, dims.n), rng.uniform(-2, 2, dims.n),
                     rng.uniform(-2, 2, (dims.n, dims.m)), dims)


def travelling_wave_section(dims=M1):
    # d'Alembert solution of the free wave equation, all derivatives analytic
    def s(t, x):
        return TWO_PI * (x[0] - t)

    return FieldSection(
        dims,
        u=lambda t, x: np.array([np.sin(s(t, x))]),
        u_t=lambda t, x: np.array([-TWO_PI * np.cos(s(t, x))]),
        u_x=lambda t, x: np.array([[TWO_PI * np.cos(s(t, x))]]),
        u_tt=lambda t, x: np.array([-TWO_PI ** 2 * np.sin(s(t, x))]),
        u_tx=lambda t, x: np.array([[TWO_PI ** 2 * np.sin(s(t, x))]]),
        u_xx=lambda t, x: np.array([[[-TWO_PI ** 2 * np.sin(s(t, x))]]]))


def sample_points(count=12):
    rng = np.random.default_rng(11)
    return [(float(rng.uniform(0, 1)), rng.uniform(0, 1, 1))
            for _ in range(count)]


# -- momentum maps -----------------------------------------------------------

def test_legendre_extended_free_wave():
    # hand evaluation: p = L - (p_t u_t + p_x u_x) = -2.5 - (4 - 9) = 2.5
    fw = builtin_model("free_wave")
    ext = legendre_extended(fw, jet(u=1.0, u_t=2.0, u_x=3.0))
    assert ext.p == 2.5
    assert ext.p_t[0] == 2.0
    assert ext.p_x[0, 0] == -3.0
    assert legendre_extended(fw, jet()).p == 0.0


def test_legendre_extended_zero_jet():
    fw = builtin_model("free_wave")
    ext = legendre_extended(fw, jet())
    assert ext.p == 0.0
    assert not ext.p_t.any() and not ext.p_x.any()


def test_legendre_extended_klein_gordon_rest():
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    ext = legendre_extended(kg, jet(u=1.0))
    assert ext.p == -0.5
    assert not ext.p_t.any() and not ext.p_x.any()


def test_legendre_reduced_drops_affine_slot():
    fw = builtin_model("free_wave")
    red = legendre_reduced(fw, jet(u_t=2.0, u_x=3.0))
    assert red.p_t[0] == 2.0 and red.p_x[0, 0] == -3.0
    osc = builtin_model("mechanics_oscillator", {})
    j = JetSample(0.0, [], [0.0], [5.0], np.zeros((1, 0)), osc.dims)
    assert legendre_reduced(osc, j).p_t[0] == 5.0


def test_regularity():
    fw = builtin_model("free_wave")
    rep = regularity_check(fw, jet(u=0.4, u_t=-1.0, u_x=2.2))
    assert rep.determinant == -1.0 and rep.is_regular
    osc = builtin_model("mechanics_oscillator", {})
    j = JetSample(0.0, [], [1.0], [0.0], np.zeros((1, 0)), osc.dims)
    assert regularity_check(osc, j).determinant == 1.0


def test_degenerate_lagrangian_flagged():
    # L = u_t^2 / 2 with a spatial slot: Hessian diag(1, 0)
    deg = LagrangianModel(M1, lambda t, x, u, u_t, u_x:
                          0.5 * np.sum(np.asarray(u_t) ** 2, axis=0),
                          name="degenerate")
    rep = regularity_check(deg, jet(u_t=1.0, u_x=1.0))
    assert rep.determinant == pytest.approx(0.0, abs=1e-8)
    assert not rep.is_regular


def test_inverse_legendre_examples():
    fw = builtin_model("free_wave")
    r = ReducedMomentumSample(0.0, [0.0], [1.0], [2.0], [[-3.0]], M1)
    back = inverse_legendre(fw, r)
    assert back.u_t[0] == pytest.approx(2.0, abs=1e-12)
    assert back.u_x[0, 0] == pytest.approx(3.0, abs=1e-12)
    zero = ReducedMomentumSample(0.0, [0.0], [0.0], [0.0], [[0.0]], M1)
    back = inverse_legendre(fw, zero)
    assert not back.u_t.any() and not back.u_x.any()
    # mass term is velocity independent: same recovery as free_wave
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    back = inverse_legendre(kg, r)
    assert back.u_t[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("name,params", [
    ("free_wave", {}),
    ("klein_gordon", {"mass": 1.0}),
    ("mechanics_oscillator", {"omega": 1.3}),
])
def test_roundtrip_property(name, params):
    model = builtin_model(name, params)
    rng = np.random.default_rng(23)
    for _ in range(100):
        j = random_jet(rng, model.dims)
        back = inverse_legendre(model, legendre_reduced(model, j))
        assert np.max(np.abs(back.u_t - j.u_t)) <= 1e-10
        if model.dims.m:
            assert np.max(np.abs(back.u_x - j.u_x)) <= 1e-10


def test_inverse_legendre_singular_raises():
    deg = LagrangianModel(M1, lambda t, x, u, u_t, u_x:
                          0.5 * np.sum(np.asarray(u_t) ** 2, axis=0),
                          name="degenerate")
    r = ReducedMomentumSample(0.0, [0.0], [0.0], [1.0], [[1.0]], M1)
    with pytest.raises(NewtonError):
        inverse_legendre(deg, r)


def newton(g, target, jacobian=None):
    """A one-unknown solve of g(v) = target whose model value is 0."""
    return lambda: _solve_nodewise(g, lambda v: np.zeros(1),
                                   np.full(1, target), "probe", 1,
                                   jacobian=jacobian)


FREE_WAVE_H = hamiltonian_from_lagrangian(builtin_model("free_wave"))


def hand_built_section(u=(0.0,), p_t=(0.0,)):
    """A momentum section of M1 with the given u and p_t at every point,
    every other field zero."""
    return MomentumSection(M1, lambda t, x: (
        np.array(u), np.array(p_t), np.zeros((1, 1)), np.zeros((2, 1)),
        np.zeros(1), np.zeros((1, 1, 1))))


@pytest.mark.parametrize("call, error, message", [
    # g is constant: its differenced Jacobian is 0
    (newton(lambda v: 0.0 * v + 1.0, 0.0), NewtonError,
     "probe: singular Jacobian: Singular matrix"),
    # v^2 + 1 = 0 has no root; every step from 0 raises the residual
    (newton(lambda v: v ** 2 + 1.0, 0.0, lambda v: np.ones(1)), NewtonError,
     "probe: damped Newton step stalled"),
    # a Jacobian 4 times too large: the residual falls by 3/4 a step
    (newton(lambda v: v, 1.0, lambda v: np.full(1, 4.0)), NewtonError,
     f"probe: no convergence after {NEWTON_MAX_ITER} iterations "
     r"\(residual 5\.663e-07\)"),
    (lambda: hdw_residual(hamiltonian_from_lagrangian(
        builtin_model("mechanics_oscillator")), legendre_transform_section(
        builtin_model("free_wave"), travelling_wave_section()), []),
     ModelError, "section dimensions do not match model"),
    (lambda: hdw_residual(FREE_WAVE_H, hand_built_section(u=[0.0, 0.0]),
                          [(0.0, [0.0])]),
     ModelError, r"u must have shape \(n,\) = \(1,\), got \(2,\)"),
    (lambda: hdw_residual(FREE_WAVE_H, hand_built_section(p_t=[np.inf]),
                          [(0.0, [0.0])]),
     ModelError, "non-finite field p_t"),
    (lambda: ConnectionCoefficients(M1, lambda t, x, u: np.array(
        [[np.nan, 0.0]])).coefficients(0.0, [0.0], [0.0]),
     ModelError, "non-finite connection coefficients"),
], ids=["singular-jacobian", "stalled-step", "no-convergence",
        "section-dims", "section-u-shape", "section-non-finite-p_t",
        "non-finite-connection"])
def test_solver_and_section_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


#: the fields of ``MomentumSection.fields`` in order, zero at M1
SECTION_FIELDS = {"u": (1,), "p_t": (1,), "p_x": (1, 1), "d_base_u": (2, 1),
                  "d_t_pt": (1,), "d_x_px": (1, 1, 1)}


@pytest.mark.parametrize("field, shape, spec, bound", [
    ("u", (2,), "(n,)", "(1,)"),
    ("p_t", (1, 1), "(n,)", "(1,)"),
    ("p_x", (1, 2), "(n, m)", "(1, 1)"),
    ("d_base_u", (3, 1), "(m+1, n)", "(2, 1)"),
    ("d_t_pt", (2,), "(n,)", "(1,)"),
    ("d_x_px", (1, 1), "(n, m, m)", "(1, 1, 1)"),
], ids=list(SECTION_FIELDS))
def test_hdw_residual_refuses_each_mis_shaped_section_field(field, shape,
                                                            spec, bound):
    # unrefused, d_base_u (3, 1) and d_t_pt (2,) raised numpy's broadcast
    # errors and d_x_px (1, 1) einsum's
    fields = {name: np.zeros(size) for name, size in SECTION_FIELDS.items()}
    fields[field] = np.zeros(shape)
    section = MomentumSection(M1, lambda t, x: tuple(fields.values()))
    message = f"{field} must have shape {spec} = {bound}, got {shape}"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        hdw_residual(FREE_WAVE_H, section, [(0.0, [0.0])])
    fields[field] = np.zeros(SECTION_FIELDS[field])
    assert hdw_residual(FREE_WAVE_H, section, [(0.0, [0.0])]).max_abs() == 0


# -- Hamiltonian construction -------------------------------------------------

def test_hamiltonian_values():
    fw = builtin_model("free_wave")
    H = hamiltonian_from_lagrangian(fw)
    r = ReducedMomentumSample(0.0, [0.0], [0.0], [2.0], [[-3.0]], M1)
    assert H(r) == -2.5
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    Hkg = hamiltonian_from_lagrangian(kg)
    r2 = ReducedMomentumSample(0.0, [0.0], [1.0], [0.0], [[0.0]], M1)
    assert Hkg(r2) == 0.5


@pytest.mark.parametrize("use_closed_form", [True, False])
def test_hamiltonian_composition_identity(use_closed_form):
    # H(leg(j)) = p_t u_t + p_x u_x - L(j); the generic Newton-backed path
    # must agree with the closed form
    kg = builtin_model("klein_gordon", {"mass": 0.8})
    if use_closed_form:
        H = hamiltonian_from_lagrangian(kg)
    else:
        bare = LagrangianModel(kg.dims, kg._value,
                               d_u=kg._d_u, d_ut=kg._d_ut, d_ux=kg._d_ux,
                               velocity_hessian=kg._hess, name="kg_generic")
        H = hamiltonian_from_lagrangian(bare)
    rng = np.random.default_rng(31)
    for _ in range(100):
        j = random_jet(rng, kg.dims)
        red = legendre_reduced(kg, j)
        expected = (float(np.dot(red.p_t, j.u_t))
                    + float(np.sum(red.p_x * j.u_x)) - kg(j))
        assert H(red) == pytest.approx(expected, abs=1e-10)


def test_generic_hamiltonian_partials_match_closed_form():
    kg = builtin_model("klein_gordon", {"mass": 0.8})
    closed = hamiltonian_from_lagrangian(kg)
    bare = LagrangianModel(kg.dims, kg._value, d_u=kg._d_u, d_ut=kg._d_ut,
                           d_ux=kg._d_ux, velocity_hessian=kg._hess,
                           name="kg_generic")
    generic = hamiltonian_from_lagrangian(bare)
    rng = np.random.default_rng(13)
    for _ in range(20):
        r = ReducedMomentumSample(0.0, rng.uniform(-1, 1, 1),
                                  rng.uniform(-2, 2, 1),
                                  rng.uniform(-2, 2, 1),
                                  rng.uniform(-2, 2, (1, 1)), M1)
        args = (r.t, r.x, r.u, r.p_t, r.p_x)
        for attr in ("d_u", "d_pt", "d_px"):
            assert np.allclose(getattr(closed, attr)(*args),
                               getattr(generic, attr)(*args), atol=1e-10)


# -- field-equation residuals --------------------------------------------------

def test_euler_lagrange_exact_solution():
    fw = builtin_model("free_wave")
    res = euler_lagrange_residual(fw, travelling_wave_section(),
                                  sample_points())
    assert np.max(np.abs(res)) <= 1e-8


def test_euler_lagrange_t_squared():
    # u = t^2: residual is -d/dt(u_t) = -2 everywhere
    fw = builtin_model("free_wave")
    sec = FieldSection(M1, u=lambda t, x: np.array([t * t]),
                       u_t=lambda t, x: np.array([2 * t]),
                       u_x=lambda t, x: np.zeros((1, 1)),
                       u_tt=lambda t, x: np.array([2.0]),
                       u_tx=lambda t, x: np.zeros((1, 1)),
                       u_xx=lambda t, x: np.zeros((1, 1, 1)))
    res = euler_lagrange_residual(fw, sec, sample_points())
    assert np.allclose(res, -2.0, atol=1e-12)


def test_euler_lagrange_constant_klein_gordon():
    # only the mass term survives: residual = -mass^2 A
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    A = 1.7
    sec = FieldSection(M1, u=lambda t, x: np.array([A]),
                       u_t=lambda t, x: np.zeros(1),
                       u_x=lambda t, x: np.zeros((1, 1)),
                       u_tt=lambda t, x: np.zeros(1),
                       u_tx=lambda t, x: np.zeros((1, 1)),
                       u_xx=lambda t, x: np.zeros((1, 1, 1)))
    res = euler_lagrange_residual(kg, sec, sample_points())
    assert np.allclose(res, -A, atol=1e-12)


def test_finite_difference_section_derivatives():
    # same residuals with nested finite differences of u alone
    fw = builtin_model("free_wave")
    sec = FieldSection(M1, u=lambda t, x: np.array([np.sin(TWO_PI * (x[0] - t))]))
    res = euler_lagrange_residual(fw, sec, sample_points(6))
    assert np.max(np.abs(res)) <= 1e-3


def test_hdw_residual_exact_solution():
    fw = builtin_model("free_wave")
    H = hamiltonian_from_lagrangian(fw)
    ms = legendre_transform_section(fw, travelling_wave_section())
    res = hdw_residual(H, ms, sample_points())
    assert res.max_abs() <= 1e-8


def test_hdw_residual_zero_section():
    kg0 = builtin_model("klein_gordon", {"mass": 0.0})
    H = hamiltonian_from_lagrangian(kg0)
    zero = FieldSection(M1, u=lambda t, x: np.zeros(1),
                        u_t=lambda t, x: np.zeros(1),
                        u_x=lambda t, x: np.zeros((1, 1)),
                        u_tt=lambda t, x: np.zeros(1),
                        u_tx=lambda t, x: np.zeros((1, 1)),
                        u_xx=lambda t, x: np.zeros((1, 1, 1)))
    ms = legendre_transform_section(kg0, zero)
    assert hdw_residual(H, ms, sample_points()).max_abs() == 0.0


@pytest.mark.parametrize("component", ["gradient", "divergence"])
def test_hdw_residual_max_abs_propagates_nan(component):
    # Python's max kept the earlier 0.0 past a NaN divergence
    parts = {"gradient": np.zeros((1, 1, 2)), "divergence": np.zeros((1, 1))}
    parts[component][...] = np.nan
    assert np.isnan(HdwSectionResidual(**parts).max_abs())


def test_hdw_residual_constant_field_divergence():
    # u = A, momenta 0: divergence residual = mass^2 A
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    H = hamiltonian_from_lagrangian(kg)
    A = 1.0
    sec = FieldSection(M1, u=lambda t, x: np.array([A]),
                       u_t=lambda t, x: np.zeros(1),
                       u_x=lambda t, x: np.zeros((1, 1)),
                       u_tt=lambda t, x: np.zeros(1),
                       u_tx=lambda t, x: np.zeros((1, 1)),
                       u_xx=lambda t, x: np.zeros((1, 1, 1)))
    ms = legendre_transform_section(kg, sec)
    res = hdw_residual(H, ms, sample_points())
    assert np.allclose(res.divergence, A, atol=1e-12)
    assert np.max(np.abs(res.gradient)) <= 1e-12


def test_equivalence_on_arbitrary_sections():
    # Legendre-transformed sections satisfy the gradient equations exactly
    # and the divergence residual equals minus the Euler-Lagrange residual.
    kg = builtin_model("klein_gordon", {"mass": 0.9})
    H = hamiltonian_from_lagrangian(kg)
    rng = np.random.default_rng(3)
    a1, a2, b1 = rng.normal(size=3)

    def val(t, x):
        return np.array([a1 * np.sin(TWO_PI * x[0]) * np.cos(3 * t)
                         + a2 * x[0] * t + b1 * t ** 2])

    sec = FieldSection(
        M1, u=val,
        u_t=lambda t, x: np.array([-3 * a1 * np.sin(TWO_PI * x[0]) * np.sin(3 * t)
                                   + a2 * x[0] + 2 * b1 * t]),
        u_x=lambda t, x: np.array([[TWO_PI * a1 * np.cos(TWO_PI * x[0]) * np.cos(3 * t)
                                    + a2 * t]]),
        u_tt=lambda t, x: np.array([-9 * a1 * np.sin(TWO_PI * x[0]) * np.cos(3 * t)
                                    + 2 * b1]),
        u_tx=lambda t, x: np.array([[-3 * TWO_PI * a1 * np.cos(TWO_PI * x[0]) * np.sin(3 * t)
                                     + a2]]),
        u_xx=lambda t, x: np.array([[[-TWO_PI ** 2 * a1 * np.sin(TWO_PI * x[0]) * np.cos(3 * t)]]]))
    pts = sample_points()
    el = euler_lagrange_residual(kg, sec, pts)
    ms = legendre_transform_section(kg, sec)
    res = hdw_residual(H, ms, pts)
    assert np.max(np.abs(res.gradient)) <= 1e-10
    assert np.max(np.abs(res.divergence + el[:, :])) <= 1e-10


def test_section_calculus_of_the_exact_oscillator():
    # m = 0: u = A cos(omega t) + B sin(omega t) per component, derivatives
    # analytic; there are no spatial momenta, so d_x_px is (n, 0, 0), and
    # both field equations hold to roundoff
    omega, A, B = 1.3, np.array([0.7, -0.2]), np.array([0.1, 0.5])
    osc = builtin_model("mechanics_oscillator", {"omega": omega, "n": 2})

    def u(t, x):
        return A * np.cos(omega * t) + B * np.sin(omega * t)

    sec = FieldSection(
        osc.dims, u=u,
        u_t=lambda t, x: omega * (B * np.cos(omega * t)
                                  - A * np.sin(omega * t)),
        u_x=lambda t, x: np.zeros((2, 0)),
        u_tt=lambda t, x: -omega ** 2 * u(t, x),
        u_tx=lambda t, x: np.zeros((2, 0)),
        u_xx=lambda t, x: np.zeros((2, 0, 0)))
    points = [(0.37 * k, np.zeros(0)) for k in range(8)]
    ms = legendre_transform_section(osc, sec)
    for t, x in points:
        *_, d_t_pt, d_x_px = ms.fields(t, x)
        assert d_x_px.shape == (2, 0, 0)
        assert np.allclose(d_t_pt, -omega ** 2 * u(t, x), rtol=0, atol=1e-15)
    el = euler_lagrange_residual(osc, sec, points)
    assert el.shape == (8, 2)
    assert np.max(np.abs(el)) <= 1e-15
    res = hdw_residual(hamiltonian_from_lagrangian(osc), ms, points)
    assert res.gradient.shape == (8, 2, 1)
    assert res.max_abs() <= 1e-15


# -- one jet per point ----------------------------------------------------------

def klein_gordon_value_only_section():
    """A Klein-Gordon standing wave given by u alone, so every section
    derivative is a nested central difference of u."""
    omega = np.sqrt(TWO_PI ** 2 + 1.0)
    return FieldSection(M1, u=lambda t, x: np.array(
        [np.cos(omega * t) * np.sin(TWO_PI * x[0])]))


def counted(f, counts, key):
    def wrapper(*args):
        counts[key] += 1
        return f(*args)
    return wrapper


def test_section_calculus_builds_one_jet_per_point():
    # per point one velocity Hessian and 17 evaluations of u: 5 for the
    # jet (u, u_t, u_x) and 12 for the three second derivatives
    points = sample_points(10)
    for residual in ("hdw", "el"):
        counts = {"u": 0, "hessian": 0}
        kg = builtin_model("klein_gordon", {"mass": 1.0})
        kg.velocity_hessian = counted(kg.velocity_hessian, counts, "hessian")
        sec = klein_gordon_value_only_section()
        sec._u = counted(sec._u, counts, "u")
        if residual == "hdw":
            hdw_residual(hamiltonian_from_lagrangian(kg),
                         legendre_transform_section(kg, sec), points)
        else:
            euler_lagrange_residual(kg, sec, points)
        assert counts == {"u": 170, "hessian": 10}, residual


@pytest.mark.parametrize("value_only", [False, True])
def test_transformed_section_fields_do_not_depend_on_query_order(value_only):
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    L = LagrangianModel(kg.dims, kg._value) if value_only else kg
    sec = klein_gordon_value_only_section()
    A, B = (0.3, np.array([0.2])), (0.7, np.array([0.55]))
    ms = legendre_transform_section(L, sec)
    for t, x in (A, B, A):
        fresh = legendre_transform_section(L, sec).fields(t, x)
        got = ms.fields(t, x)
        assert len(got) == len(fresh) == 6
        for k, (value, want) in enumerate(zip(got, fresh)):
            assert value.tobytes() == want.tobytes(), k


# -- connection curvature -------------------------------------------------------

def test_flatness_constant_coefficients():
    conn = ConnectionCoefficients(M1, lambda t, x, u: np.array([[0.7, -0.2]]))
    res = flatness_residual(conn, 0.3, [0.1], [0.9])
    assert np.max(np.abs(res)) == 0.0


def test_flatness_commuting_pair():
    # Gamma_0 = k u, Gamma_1 = -k u: bracket terms cancel
    k = 0.5
    conn = ConnectionCoefficients(
        M1, lambda t, x, u: np.array([[k * u[0], -k * u[0]]]))
    res = flatness_residual(conn, 0.2, [0.4], [1.3])
    assert np.max(np.abs(res)) <= 1e-10


def test_flatness_curved_example():
    # Gamma_0 = u, Gamma_1 = t: residual_{t,x} = 1 - t
    conn = ConnectionCoefficients(M1, lambda t, x, u: np.array([[u[0], t]]))
    for t in (0.0, 0.3, 1.5):
        res = flatness_residual(conn, t, [0.2], [0.7])
        assert res[0, 0, 1] == pytest.approx(1.0 - t, abs=1e-9)
        assert res[0, 1, 0] == -res[0, 0, 1]  # antisymmetry is exact


def test_flatness_antisymmetry_random():
    rng = np.random.default_rng(29)
    conn = ConnectionCoefficients(
        M1, lambda t, x, u: np.array([[np.sin(u[0]) * t, u[0] ** 2 - x[0]]]))
    for _ in range(10):
        t, xv, uv = rng.uniform(-1, 1, 3)
        res = flatness_residual(conn, t, [xv], [uv])
        assert np.array_equal(res, -np.swapaxes(res, 1, 2))
