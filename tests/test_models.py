import numpy as np
import pytest

from dedonder_hj.legendre import inverse_legendre, legendre_extended
from dedonder_hj.models import (Dimensions, ExtendedMomentumSample,
                                HamiltonianModel, JetSample, LagrangianModel,
                                ModelError, ReducedMomentumSample,
                                builtin_model, central_difference)

M1 = Dimensions(m=1, n=1)


def jet(u=0.0, u_t=0.0, u_x=0.0, t=0.0, x=0.0):
    return JetSample(t, [x], [u], [u_t], [[u_x]], M1)


def random_jet(rng, dims):
    return JetSample(rng.uniform(-1, 1), rng.uniform(-1, 1, dims.m),
                     rng.uniform(-2, 2, dims.n), rng.uniform(-2, 2, dims.n),
                     rng.uniform(-2, 2, (dims.n, dims.m)), dims)


def all_builtins():
    return [builtin_model("free_wave"),
            builtin_model("klein_gordon", {"mass": 1.3}),
            builtin_model("scalar_potential",
                          {"mass": 0.5, "potential": (0.0, 0.2, 0.0, 0.1)}),
            builtin_model("mechanics_oscillator", {"omega": 1.7})]


def test_dimensions_validation():
    with pytest.raises(ModelError):
        Dimensions(m=2, n=1)
    with pytest.raises(ModelError):
        Dimensions(m=1, n=0)
    assert Dimensions(m=1, n=3).n_velocity_slots == 6


def test_free_wave_value():
    # hand evaluation: 0.5*4 - 0.5*9
    fw = builtin_model("free_wave")
    assert fw(jet(u=1.0, u_t=2.0, u_x=3.0)) == -2.5


def test_klein_gordon_zero_mass_reduces_to_free_wave():
    fw = builtin_model("free_wave")
    kg0 = builtin_model("klein_gordon", {"mass": 0.0})
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = random_jet(rng, M1)
        assert kg0(j) == fw(j)


def test_oscillator_value():
    osc = builtin_model("mechanics_oscillator", {"omega": 1.0})
    j = JetSample(0.0, [], [1.0], [0.0], np.zeros((1, 0)), osc.dims)
    assert osc(j) == -0.5


@pytest.mark.parametrize("tail", [(), (5,)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("omega", [0.0, 1.0, 1.7, -0.4])
def test_oscillator_partials_are_closed_forms(omega, n, tail):
    """The oscillator is the m = 0 Klein-Gordon field of mass omega: its
    partials and momentum Jacobian are the closed forms, bit for bit, at
    one point and over a node axis."""
    L = builtin_model("mechanics_oscillator", {"omega": omega, "n": n})
    H = L.paired_hamiltonian
    assert L.dims == H.dims == Dimensions(m=0, n=n)
    rng = np.random.default_rng(7)
    u, v = rng.uniform(-2, 2, (2, n) + tail)
    x, empty = np.zeros((0,) + tail), np.zeros((n, 0) + tail)
    w2 = omega ** 2
    args = (0.3, x, u, v, empty)
    assert np.array_equal(L.value(*args), 0.5 * np.sum(v ** 2, axis=0)
                          - 0.5 * w2 * np.sum(u ** 2, axis=0))
    assert np.array_equal(L.d_u(*args), -w2 * u)
    assert np.array_equal(L.d_ut(*args), v)
    assert np.array_equal(L.d_ux(*args), empty)
    eye = np.eye(n).reshape((n, n) + (1,) * len(tail)) * np.ones(tail)
    assert np.array_equal(L.velocity_hessian(*args), eye)
    assert np.array_equal(L.d2_vel_u(*args), np.zeros((n, n) + tail))
    assert np.array_equal(H.value(*args), 0.5 * np.sum(v ** 2, axis=0)
                          + 0.5 * w2 * np.sum(u ** 2, axis=0))
    assert np.array_equal(H.d_u(*args), w2 * u)
    assert np.array_equal(H.d_pt(*args), v)
    assert np.array_equal(H.d_px(*args), empty)
    jac = H.momentum_jacobian(*args)
    assert np.array_equal(jac["p_t"], eye[:, None])
    for var, shape in (("t", (n, 1)), ("x", (n, 1, 0)), ("u", (n, 1, n)),
                       ("p_x", (n, 1, n, 0))):
        assert np.array_equal(jac[var], np.zeros(shape + tail))


def momentum_jacobian_closed_form(n, m, tail):
    """dH/d(p_t, p_x) of the quadratic family: the identity for p_t,
    minus the identity for p_x, zero elsewhere."""
    pt = np.zeros((n, m + 1, n))
    px = np.zeros((n, m + 1, n, m))
    for a in range(n):
        pt[a, 0, a] = 1.0
        for j in range(m):
            px[a, 1 + j, a, j] = -1.0
    shapes = {"t": (n, m + 1), "x": (n, m + 1, m), "u": (n, m + 1, n)}
    over = np.ones(tail)
    exact = {k: np.zeros(shape + tail) for k, shape in shapes.items()}
    exact["p_t"] = pt.reshape(pt.shape + (1,) * len(tail)) * over
    exact["p_x"] = px.reshape(px.shape + (1,) * len(tail)) * over
    return exact


@pytest.mark.parametrize("model", all_builtins(), ids=lambda m: m.name)
def test_builtin_momentum_jacobian_blocks_are_shared_and_read_only(model):
    H = model.paired_hamiltonian
    n, m = H.dims.n, H.dims.m
    rng = np.random.default_rng(3)
    dicts = {}
    for tail in [(), (4,), (2048,)]:
        u, pt = rng.uniform(-2, 2, (2, n) + tail)
        px = rng.uniform(-2, 2, (n, m) + tail)
        jac = H.momentum_jacobian(0.1, np.zeros((m,) + tail), u, pt, px)
        exact = momentum_jacobian_closed_form(n, m, tail)
        assert jac.keys() == exact.keys()
        for k, block in jac.items():
            assert block.shape == exact[k].shape, k
            assert np.array_equal(block, exact[k]), k
            assert not block.flags.writeable, k
            with pytest.raises(ValueError):
                block[...] = 1.0
        dicts[tail] = jac
    # a later call at another node shape neither mutates nor shares the
    # dict of an earlier one; calls at the same shape give fresh dicts
    for k, exact in momentum_jacobian_closed_form(n, m, (4,)).items():
        assert np.array_equal(dicts[(4,)][k], exact), k
    args = (0.1, np.zeros((m, 4)), np.zeros((n, 4)), np.zeros((n, 4)),
            np.zeros((n, m, 4)))
    again = H.momentum_jacobian(*args)
    assert again is not dicts[(4,)]
    again["p_x"] = None
    assert H.momentum_jacobian(*args)["p_x"] is not None


def test_oscillator_honours_n():
    osc = builtin_model("mechanics_oscillator", {"n": 2})
    assert osc.dims.n == 2 and osc.paired_hamiltonian.dims.n == 2


def jet_args(j):
    return (j.t, j.x, j.u, j.u_t, j.u_x)


def test_partial_values():
    fw = builtin_model("free_wave")
    args = jet_args(jet(u=1.0, u_t=2.0, u_x=3.0))
    assert fw.d_ut(*args)[0] == 2.0
    assert fw.d_ux(*args)[0, 0] == -3.0
    assert fw.d_u(*args)[0] == 0.0
    kg = builtin_model("klein_gordon", {"mass": 1.0})
    assert kg.d_u(*jet_args(jet(u=1.0)))[0] == -1.0


def test_finite_difference_partial():
    # a scalar slot (comp_axes=0), then one component of a vector slot
    assert central_difference(lambda z: z * z, (3.0,), 0,
                              comp_axes=0) == pytest.approx(6.0, abs=1e-7)
    assert central_difference(lambda z: 4.25, (1.0,), 0,
                              comp_axes=0) == 0.0
    assert central_difference(np.sin, (0.0,), 0, comp_axes=0) \
        == pytest.approx(1.0, abs=1e-8)
    v = central_difference(lambda p: p[0] ** 2 + 3 * p[1],
                           (np.array([1.0, 2.0]),), 0)
    assert v.shape == (2,)
    assert v[1] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("model", all_builtins(), ids=lambda m: m.name)
def test_analytic_partials_match_finite_differences(model):
    # spec tolerance: 1e-6 relative against step-1e-5 central differences
    rng = np.random.default_rng(7)
    bare = LagrangianModel(model.dims, model._value, name="fd_only")
    for _ in range(100):
        j = random_jet(rng, model.dims)
        args = (j.t, j.x, j.u, j.u_t, j.u_x)
        for attr in ("d_u", "d_ut", "d_ux"):
            a = getattr(model, attr)(*args)
            b = getattr(bare, attr)(*args)
            if a.size == 0:
                assert b.size == 0
                continue
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - b)) <= 1e-6 * scale


@pytest.mark.parametrize("model", all_builtins(), ids=lambda m: m.name)
def test_velocity_hessian_signature(model):
    rng = np.random.default_rng(1)
    n, m = model.dims.n, model.dims.m
    expected = np.diag(np.concatenate([np.ones(n), -np.ones(n * m)]))
    for _ in range(5):
        j = random_jet(rng, model.dims)
        H = model.velocity_hessian(j.t, j.x, j.u, j.u_t, j.u_x)
        assert np.array_equal(np.asarray(H), expected)


def test_eval_deterministic():
    kg = builtin_model("klein_gordon", {"mass": 0.7})
    j = jet(u=0.3, u_t=-1.2, u_x=0.9)
    values = {kg(j) for _ in range(10)}
    assert len(values) == 1


def test_batched_evaluation_matches_pointwise():
    kg = builtin_model("klein_gordon", {"mass": 1.1})
    rng = np.random.default_rng(5)
    u = rng.normal(size=(1, 9))
    u_t = rng.normal(size=(1, 9))
    u_x = rng.normal(size=(1, 1, 9))
    x = rng.normal(size=(1, 9))
    vals = kg.value(0.0, x, u, u_t, u_x)
    for k in range(9):
        j = JetSample(0.0, x[:, k], u[:, k], u_t[:, k], u_x[:, :, k], M1)
        assert vals[k] == kg(j)


def test_builtin_model_errors():
    with pytest.raises(ModelError):
        builtin_model("heat_equation")
    with pytest.raises(ModelError):
        builtin_model("klein_gordon", {"mass": -1.0})
    with pytest.raises(ModelError):
        builtin_model("free_wave", {"m": 0})
    with pytest.raises(ModelError):
        builtin_model("mechanics_oscillator", {"m": 1})


def test_legendre_maps_reject_dimension_mismatch():
    fw = builtin_model("free_wave")
    osc = builtin_model("mechanics_oscillator", {})
    j = JetSample(0.0, [], [1.0], [0.0], np.zeros((1, 0)), osc.dims)
    with pytest.raises(ModelError):
        legendre_extended(fw, j)
    r = ReducedMomentumSample(0.0, [0.0], [1.0], [0.5], [[0.5]], M1)
    with pytest.raises(ModelError):
        inverse_legendre(osc, r)


@pytest.mark.parametrize("call, message", [
    (lambda: JetSample(0.0, [0.0, 1.0], [0.0], [0.0], [[0.0]], M1),
     r"x must have shape \(m,\) = \(1,\), got \(2,\)"),
    (lambda: ExtendedMomentumSample(0.0, [0.0], [0.0], np.nan, [0.0],
                                    [[0.0]], M1),
     "non-finite field p"),
    (lambda: ReducedMomentumSample(np.nan, [0.0], [0.0], [0.0], [[0.0]], M1),
     "non-finite t nan"),
    (lambda: LagrangianModel(M1, lambda *a: np.nan, name="holed").value(
        0.0, [0.0], [0.0], [0.0], [[0.0]]),
     "holed: non-finite Lagrangian value"),
    (lambda: HamiltonianModel(M1, lambda *a: np.inf, name="holed").value(
        0.0, [0.0], [0.0], [0.0], [[0.0]]),
     "holed: non-finite Hamiltonian value"),
    (lambda: builtin_model("klein_gordon", {"potential": (0.0, 0.1)}),
     "klein_gordon takes no polynomial potential"),
], ids=["misshapen-x", "non-finite-affine-momentum", "non-finite-t",
        "non-finite-lagrangian", "non-finite-hamiltonian",
        "klein_gordon-potential"])
def test_samples_and_models_refused(call, message):
    with pytest.raises(ModelError, match=f"^{message}$"):
        call()


def test_non_finite_rejected():
    with pytest.raises(ModelError):
        JetSample(0.0, [0.0], [np.inf], [0.0], [[0.0]], M1)
    with pytest.raises(ModelError):
        JetSample(np.nan, [0.0], [0.0], [0.0], [[0.0]], M1)
