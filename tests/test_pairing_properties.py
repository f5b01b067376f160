"""Property tests of the Cauchy and cotangent pairings and of their
contraction into a per-node covector.

Random states and variations (time components k != 0) are drawn for the
built-in models with m in {0, 1} and n in {1, 2}; the two-argument
pairings are the references the covector form and the closed-form node
indicators are checked against. Stacked variations, lifted through the
oscillator and linear Hamilton-Jacobi sections, are checked against the
same lift, pairings, pushforward and restriction identity called one pair
at a time.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedonder_hj import cotangent
from dedonder_hj.cauchy import (CauchyState, TangentVariation,
                                _state_pairing_data, covector_residual,
                                dynamical_trajectory_residual,
                                integrate_density, make_grid,
                                pairing_covector, presymplectic_pairing,
                                recover_spatial_momenta,
                                standard_test_variations,
                                time_derivative_frames)
from dedonder_hj.cotangent import (CotangentState, CotangentVariation,
                                   cotangent_trajectory_residual,
                                   extended_form_covector,
                                   extended_form_pairing, omega_pairing,
                                   pullback_identity_residual,
                                   push_variation,
                                   standard_cotangent_variations,
                                   variational_derivative)
from dedonder_hj.hj import (_lift_with, lift_by_gamma, linear_gamma,
                            oscillator_gamma)
from dedonder_hj.legendre import hamiltonian_from_lagrangian
from dedonder_hj.models import (Dimensions, HamiltonianModel,
                                LagrangianModel, ModelError, builtin_model,
                                replace)

#: roundoff allowance relative to the scale of the summed terms
REL_TOL = 1e-13

BUILTINS = [("free_wave", {}), ("klein_gordon", {"mass": 0.7}),
            ("scalar_potential", {"mass": 0.5, "potential": (0.0, 0.2, 0.3)}),
            ("mechanics_oscillator", {"omega": 1.3})]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def fields(record):
    """The fields of a record in order, each with its ``name``."""
    return [SimpleNamespace(name=name) for name in record._fields]


def time_dependent_hamiltonian(n, t_cubed=0.0):
    """H = 1/2 |p_t|^2 - 1/2 |p_x|^2 + 1/2 (1 + t^2) |u|^2 + t_cubed t^3,
    so H depends on t and its partials do too."""
    dims = Dimensions(m=1, n=n)

    def value(t, x, u, p_t, p_x):
        return (0.5 * np.sum(p_t ** 2, axis=0)
                - 0.5 * np.sum(p_x ** 2, axis=(0, 1))
                + 0.5 * (1.0 + t ** 2) * np.sum(u ** 2, axis=0)
                + t_cubed * t ** 3)

    return HamiltonianModel(
        dims, value, d_u=lambda t, x, u, p_t, p_x: (1.0 + t ** 2) * u,
        d_pt=lambda t, x, u, p_t, p_x: np.array(p_t),
        d_px=lambda t, x, u, p_t, p_x: -np.asarray(p_x),
        name="time_dependent")


def time_dependent_lagrangian(n, t_cubed=0.0):
    """L = 1/2 (1 + t^2) |u_t|^2 - 1/2 |u_x|^2 - 1/2 |u|^2 + t_cubed t^3
    with its first partials in closed form."""
    dims = Dimensions(m=1, n=n)

    def value(t, x, u, u_t, u_x):
        return (0.5 * (1.0 + t ** 2) * np.sum(u_t ** 2, axis=0)
                - 0.5 * np.sum(u_x ** 2, axis=(0, 1))
                - 0.5 * np.sum(u ** 2, axis=0) + t_cubed * t ** 3)

    return LagrangianModel(
        dims, value, d_u=lambda t, x, u, u_t, u_x: -np.asarray(u),
        d_ut=lambda t, x, u, u_t, u_x: (1.0 + t ** 2) * np.asarray(u_t),
        d_ux=lambda t, x, u, u_t, u_x: -np.asarray(u_x),
        name="time_dependent")


class ReadLog:
    """A model seen through the set of attribute names read from it."""

    def __init__(self, model):
        self.model, self.names = model, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.model, name)


@st.composite
def cauchy_cases(draw, builtins_only=False):
    """(H, L or None, grid, rng) over the built-in models (and, unless
    ``builtins_only``, a time-dependent custom Hamiltonian)."""
    choices = len(BUILTINS) + (0 if builtins_only else 1)
    which = draw(st.integers(0, choices - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if which == len(BUILTINS):
        n = draw(st.integers(1, 2))
        return (time_dependent_hamiltonian(n), None,
                make_grid(draw(st.integers(3, 9))), n, rng)
    name, params = BUILTINS[which]
    if name == "mechanics_oscillator":
        L, grid, n = builtin_model(name, params), make_grid(1, m=0), 1
    else:
        n = draw(st.integers(1, 2))
        L = builtin_model(name, {**params, "n": n})
        grid = make_grid(draw(st.integers(3, 9)), length=draw(
            st.sampled_from([1.0, 2.5])))
    return hamiltonian_from_lagrangian(L), L, grid, n, rng


def random_state(grid, n, rng):
    N, m = grid.n_nodes, grid.m
    return CauchyState(rng.uniform(-1, 1), rng.normal(size=(n, N)),
                       rng.normal(size=(n, N)), rng.normal(size=(n, m, N)))


def nonzero_k(rng):
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 2.0)


def random_tangent(grid, n, rng):
    N, m = grid.n_nodes, grid.m
    return TangentVariation(nonzero_k(rng), rng.normal(size=(n, N)),
                            rng.normal(size=(n, N)),
                            rng.normal(size=(n, m, N)))


def random_cotangent(grid, n, rng):
    N = grid.n_nodes
    return CotangentVariation(nonzero_k(rng), rng.normal(size=(n, N)),
                              rng.normal(size=(n, N)))


def stack(variations, indicators=False):
    """The variations of a nonempty list, all of one space, as one
    stack."""
    first = variations[0]
    return type(first)(*(np.array([getattr(X, f.name) for X in variations])
                         for f in fields(first)[:-1]), indicators=indicators)


def rows(X):
    """The variations of a stack, one by one."""
    return [type(X)(*(getattr(X, f.name)[s] for f in fields(X)[:-1]))
            for s in range(len(X.k))]


def indicator_variations(grid, n):
    """Unit node indicators on every component of (u, p_t, p_x), built
    one by one; the reference for the closed form of
    :func:`covector_residual`."""
    N = grid.n_nodes
    zero = {"du": np.zeros((n, N)), "dp_t": np.zeros((n, N)),
            "dp_x": np.zeros((n, grid.m, N))}
    out = []
    for name, part in zero.items():
        for index in np.ndindex(part.shape):
            e = dict(zero, **{name: np.zeros_like(part)})
            e[name][index] = 1.0
            out.append(TangentVariation(0.0, **e))
    return out


def test_indicator_count():
    g = make_grid(6)
    assert len(indicator_variations(g, 1)) == 3 * 6
    assert len(indicator_variations(g, 2)) == 6 * 6


def variation_norm(grid, X):
    """sqrt(k^2 + integral of |du|^2 + |dp_t|^2 + |dp_x|^2) of one
    variation; the reference for the batched norms of the test sets."""
    total = X.k ** 2
    total += integrate_density(grid, np.sum(X.du ** 2, axis=0))
    total += integrate_density(grid, np.sum(X.dp_t ** 2, axis=0))
    if X.dp_x.size:
        total += integrate_density(grid, np.sum(X.dp_x ** 2, axis=(0, 1)))
    return float(np.sqrt(total))


def test_variation_norm():
    g = make_grid(4)
    X = TangentVariation(2.0, np.ones((1, 4)), np.zeros((1, 4)),
                         np.zeros((1, 1, 4)))
    assert variation_norm(g, X) == pytest.approx(np.sqrt(5.0), rel=1e-14)


def magnitude(*items):
    """Sum of the largest entries of arrays, scalars and variations."""
    total = 0.0
    for item in items:
        values = vars(item).values() if hasattr(item, "__dict__") else [item]
        total += sum(float(np.max(np.abs(v), initial=0.0)) for v in values)
    return total


def term_scale(grid, data, X, Y):
    """Bound on the sum of the magnitudes of the terms of pairing(X, Y)."""
    return (grid.n_nodes * float(np.max(grid.weights))
            * (1.0 + magnitude(*data)) * magnitude(X) * magnitude(Y))


@PROPERTY
@given(cauchy_cases())
def test_presymplectic_pairing_antisymmetric_and_bilinear(case):
    H, _, grid, n, rng = case
    state = random_state(grid, n, rng)
    X1, X2, Y = (random_tangent(grid, n, rng) for _ in range(3))
    assert presymplectic_pairing(H, grid, state, X1, X1) == 0.0
    assert presymplectic_pairing(H, grid, state, X1, Y) \
        == -presymplectic_pairing(H, grid, state, Y, X1)
    a, b = rng.normal(size=2)
    comb = TangentVariation(a * X1.k + b * X2.k, a * X1.du + b * X2.du,
                            a * X1.dp_t + b * X2.dp_t,
                            a * X1.dp_x + b * X2.dp_x)
    lhs = presymplectic_pairing(H, grid, state, comb, Y)
    rhs = a * presymplectic_pairing(H, grid, state, X1, Y) \
        + b * presymplectic_pairing(H, grid, state, X2, Y)
    data = _state_pairing_data(H, grid, state)
    scale = term_scale(grid, data, comb, Y) + term_scale(
        grid, data, X1, Y) * abs(a) + term_scale(grid, data, X2, Y) * abs(b)
    assert abs(lhs - rhs) <= REL_TOL * scale


@PROPERTY
@given(cauchy_cases())
def test_covector_matches_two_argument_pairing(case):
    H, _, grid, n, rng = case
    state = random_state(grid, n, rng)
    data = _state_pairing_data(H, grid, state)
    X = random_tangent(grid, n, rng)
    (c_u, c_pt, c_px), c_k = pairing_covector(grid, data, X)
    w = grid.weights
    for _ in range(4):
        Y = random_tangent(grid, n, rng)
        via_covector = (np.sum(c_u * Y.du * w) + np.sum(c_pt * Y.dp_t * w)
                        + np.sum(c_px * Y.dp_x * w) + c_k * Y.k)
        reference = presymplectic_pairing(H, grid, state, X, Y)
        assert abs(via_covector - reference) \
            <= REL_TOL * term_scale(grid, data, X, Y)


@PROPERTY
@given(cauchy_cases(builtins_only=True))
def test_cotangent_covector_matches_extended_form_pairing(case):
    _, L, grid, n, rng = case
    cs = CotangentState(rng.uniform(-1, 1), rng.normal(size=(n, grid.n_nodes)),
                        rng.normal(size=(n, grid.n_nodes)))
    dh = variational_derivative(L, grid, cs)
    X = random_cotangent(grid, n, rng)
    (c_u, c_pi), c_k = extended_form_covector(grid, dh, X)
    w = grid.weights
    for _ in range(4):
        Y = random_cotangent(grid, n, rng)
        via_covector = (np.sum(c_u * Y.du * w) + np.sum(c_pi * Y.dpi * w)
                        + c_k * Y.k)
        reference = extended_form_pairing(L, grid, cs, X, Y)
        assert abs(via_covector - reference) \
            <= REL_TOL * term_scale(grid, dh, X, Y)


@PROPERTY
@given(cauchy_cases())
def test_closed_form_indicators_match_materialized_set(case):
    H, _, grid, n, rng = case
    state = random_state(grid, n, rng)
    data = _state_pairing_data(H, grid, state)
    X = random_tangent(grid, n, rng)
    # a single zero variation as the dense part isolates the indicators
    zero = TangentVariation(0.0, np.zeros_like(X.du), np.zeros_like(X.dp_t),
                            np.zeros_like(X.dp_x))
    only_indicators = stack([zero], indicators=True)
    closed_form = covector_residual(grid, *pairing_covector(grid, data, X),
                                    only_indicators)
    indicators = indicator_variations(grid, n)
    assert len(only_indicators) == 1 + len(indicators)
    reference = max(abs(presymplectic_pairing(H, grid, state, X, e))
                    / (1.0 + variation_norm(grid, e)) for e in indicators)
    assert abs(closed_form - reference) <= REL_TOL * magnitude(X) * (
        1.0 + magnitude(*data))
    stacked = covector_residual(grid, *pairing_covector(grid, data, X),
                                stack(indicators))
    assert closed_form == stacked


@PROPERTY
@given(cauchy_cases())
def test_trajectory_residual_matches_two_argument_loop(case):
    H, _, grid, n, rng = case
    state = random_state(grid, n, rng)
    X = random_tangent(grid, n, rng)
    test_set = standard_test_variations(grid, n, rng=rng)
    assert len(test_set) == len(test_set.k) + grid.n_nodes * n * (2 + grid.m)
    # the reference set: probes and draws one by one, then the indicators
    singles = [TangentVariation(k, du, dpt, dpx) for k, du, dpt, dpx in
               zip(test_set.k, test_set.du, test_set.dp_t, test_set.dp_x)]
    singles += indicator_variations(grid, n)
    c_dot = TangentVariation(1.0, X.du, X.dp_t, X.dp_x)
    reference = max(abs(presymplectic_pairing(H, grid, state, c_dot, xi))
                    / (1.0 + variation_norm(grid, xi)) for xi in singles)
    batched = dynamical_trajectory_residual(H, grid, state,
                                            (X.du, X.dp_t, X.dp_x), test_set)
    from_list = dynamical_trajectory_residual(
        H, grid, state, (X.du, X.dp_t, X.dp_x), stack(singles))
    data = _state_pairing_data(H, grid, state)
    tol = REL_TOL * (1.0 + magnitude(*data)) * (1.0 + magnitude(c_dot))
    assert abs(batched - reference) <= tol
    assert abs(from_list - reference) <= tol


@PROPERTY
@given(cauchy_cases(builtins_only=True))
def test_cotangent_closed_form_indicators_match_materialized_set(case):
    _, L, grid, n, rng = case
    N = grid.n_nodes
    cs = CotangentState(0.0, rng.normal(size=(n, N)), rng.normal(size=(n, N)))
    X = random_cotangent(grid, n, rng)
    covector, c_k = extended_form_covector(
        grid, variational_derivative(L, grid, cs), X)
    zero = CotangentVariation(0.0, np.zeros((n, N)), np.zeros((n, N)))
    closed_form = covector_residual(
        grid, covector, c_k, stack([zero], indicators=True))
    singles = []
    for a in range(n):
        for j in range(N):
            e = np.zeros((n, N))
            e[a, j] = 1.0
            singles += [CotangentVariation(0.0, e, np.zeros((n, N))),
                        CotangentVariation(0.0, np.zeros((n, N)), e)]
    reference = max(abs(extended_form_pairing(L, grid, cs, X, e))
                    / (1.0 + np.sqrt(grid.weights[0])) for e in singles)
    assert abs(closed_form - reference) <= REL_TOL * magnitude(X) * (
        1.0 + magnitude(*variational_derivative(L, grid, cs)))


def test_cotangent_residual_matches_two_argument_loop():
    L = builtin_model("klein_gordon", {"mass": 1.0})
    grid = make_grid(8)
    rng = np.random.default_rng(4)
    times = np.arange(6) * 0.01
    frames = [CotangentState(t, rng.normal(size=(1, 8)),
                             rng.normal(size=(1, 8))) for t in times]
    batch = standard_cotangent_variations(grid, 1,
                                          rng=np.random.default_rng(3))
    singles = [CotangentVariation(k, du, dpi)
               for k, du, dpi in zip(batch.k, batch.du, batch.dpi)]
    stacked = CotangentState(times, np.array([f.u for f in frames]),
                             np.array([f.pi for f in frames]))
    as_batch = cotangent_trajectory_residual(L, grid, stacked,
                                             test_set=batch)
    assert cotangent_trajectory_residual(
        L, grid, stacked, test_set=stack(singles)) \
        == cotangent_trajectory_residual(
            L, grid, stacked, test_set=replace(batch, indicators=False))
    empty = CotangentVariation(np.zeros(0), np.zeros((0, 1, 8)),
                               np.zeros((0, 1, 8)))
    with pytest.raises(ModelError):
        cotangent_trajectory_residual(L, grid, stacked, test_set=empty)
    # reference: every frame, the dense set and the indicators one by one
    eye = np.eye(8)[:, None, :]
    singles += [CotangentVariation(0.0, e, 0 * e) for e in eye]
    singles += [CotangentVariation(0.0, 0 * e, e) for e in eye]
    u_dot, pi_dot = (time_derivative_frames(
        np.stack([getattr(f, name) for f in frames]), 0.01)
        for name in ("u", "pi"))
    w = grid.weights
    reference = max(
        abs(extended_form_pairing(L, grid, cs, CotangentVariation(1.0, ud, pd),
                                  xi))
        / (1.0 + np.sqrt(xi.k ** 2 + np.sum(w * (xi.du ** 2 + xi.dpi ** 2))))
        for cs, ud, pd in zip(frames, u_dot, pi_dot) for xi in singles)
    assert len(batch) == len(singles)
    assert as_batch == pytest.approx(reference, rel=1e-12)


def test_presymplectic_pairing_does_not_see_a_function_of_t_alone():
    # H and H + t^3 differ only in their time partial, whose k_X k_Y legs
    # cancel in X(H) k_Y - Y(H) k_X; the pairing reads no time partial
    n, grid, rng = 2, make_grid(7), np.random.default_rng(11)
    H, H3 = (ReadLog(time_dependent_hamiltonian(n, c)) for c in (0.0, 1.0))
    for _ in range(20):
        state = random_state(grid, n, rng)
        X, Y = random_tangent(grid, n, rng), random_tangent(grid, n, rng)
        assert presymplectic_pairing(H, grid, state, X, Y) \
            == presymplectic_pairing(H3, grid, state, X, Y)
    assert H.names | H3.names <= {"dims", "d_u", "d_pt", "d_px"}


def test_extended_form_pairing_does_not_see_a_function_of_t_alone():
    # the same for omega + dh wedge dt with L and L - t^3
    n, grid, rng = 2, make_grid(7), np.random.default_rng(12)
    L, L3 = (ReadLog(time_dependent_lagrangian(n, c)) for c in (0.0, -1.0))
    for _ in range(20):
        cs = CotangentState(rng.uniform(-1, 1), rng.normal(size=(n, 7)),
                            rng.normal(size=(n, 7)))
        X, Y = random_cotangent(grid, n, rng), random_cotangent(grid, n, rng)
        assert extended_form_pairing(L, grid, cs, X, Y) \
            == extended_form_pairing(L3, grid, cs, X, Y)
    assert L.names | L3.names <= {"dims", "value", "d_u", "d_ut", "d_ux"}


def test_one_time_legendre_solve_per_extended_form_pairing(monkeypatch):
    calls = []
    solve = cotangent.solve_time_velocity

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cotangent, "solve_time_velocity", counted)
    n, grid, rng = 1, make_grid(5), np.random.default_rng(13)
    L = time_dependent_lagrangian(n, 1.0)
    cs = CotangentState(0.4, rng.normal(size=(n, 5)), rng.normal(size=(n, 5)))
    for count in (1, 2, 3):
        extended_form_pairing(L, grid, cs, random_cotangent(grid, n, rng),
                              random_cotangent(grid, n, rng))
        assert len(calls) == count


@pytest.mark.parametrize("n", [1, 2])
def test_standard_test_set_stores_linear_bytes(n):
    N = 4096
    grid = make_grid(N)
    test_set = standard_test_variations(grid, n,
                                        rng=np.random.default_rng(0))
    stored = sum(v.nbytes for v in vars(test_set).values()
                 if hasattr(v, "nbytes"))
    assert stored <= 64 * 3 * n * N * 8
    assert len(test_set) == len(test_set.k) + 3 * n * N


# -- stacked variations --------------------------------------------------------

@st.composite
def lifted_stacks(draw):
    """(L, H, grid, state, V, W, singles) over the built-in models and the
    oscillator and linear sections: S pairs of configuration variations
    lifted as two stacks V and W at the section's lift of a random u, and
    the same pairs lifted one by one."""
    H, L, grid, n, rng = draw(cauchy_cases(builtins_only=True))
    dims = H.dims
    if draw(st.booleans()):
        gamma = oscillator_gamma(dims, omega=rng.uniform(0.2, 1.5))
    else:
        gamma = linear_gamma(dims, *rng.normal(size=4))
    t = rng.uniform(0.0, 0.5)
    state = lift_by_gamma(gamma, t, grid, rng.normal(size=(n, grid.n_nodes)))
    d = gamma.partials(t, grid.x, state.u)
    S = draw(st.integers(1, 8))
    configs = [(rng.normal(size=S), rng.normal(size=(S, n, grid.n_nodes)))
               for _ in range(2)]
    V, W = (_lift_with(d, k, du) for k, du in configs)
    singles = [[_lift_with(d, k[s], du[s]) for s in range(S)]
               for k, du in configs]
    return L, H, grid, state, V, W, singles


@PROPERTY
@given(lifted_stacks())
def test_stacked_lift_matches_single_lifts(case):
    *_, V, W, singles = case
    for lifted, ones in zip((V, W), singles):
        assert isinstance(lifted, TangentVariation)
        for name in ("k", "du", "dp_t", "dp_x"):
            single = np.stack([getattr(X, name) for X in ones])
            assert single.tobytes() == getattr(lifted, name).tobytes()


@PROPERTY
@given(lifted_stacks())
def test_stacked_pairing_matches_single_pairings(case):
    L, H, grid, state, V, W, (vs, ws) = case
    stacked = presymplectic_pairing(H, grid, state, V, W)
    assert stacked.shape == (len(vs),)
    single = np.array([presymplectic_pairing(H, grid, state, X, Y)
                       for X, Y in zip(vs, ws)])
    assert single.tobytes() == stacked.tobytes()
    # stacks of unlifted variations, through the test sets' constructor
    rng = np.random.default_rng(len(vs))
    n = state.u.shape[0]
    xs, ys = ([random_tangent(grid, n, rng) for _ in vs] for _ in range(2))
    stacked = presymplectic_pairing(H, grid, state, stack(xs), stack(ys))
    single = np.array([presymplectic_pairing(H, grid, state, X, Y)
                       for X, Y in zip(xs, ys)])
    assert single.tobytes() == stacked.tobytes()
    # the restriction identity and its pieces, at the lifted (u, p_t) with
    # the spatial momenta recovered onto the constraint
    on = CauchyState(state.t, state.u, state.p_t, recover_spatial_momenta(
        H, grid, state.u, state.p_t, state.t))
    cs = CotangentState(on.t, on.u, on.p_t)
    pairings = [
        lambda X, Y: omega_pairing(grid, push_variation(X),
                                   push_variation(Y)),
        lambda X, Y: extended_form_pairing(L, grid, cs, push_variation(X),
                                           push_variation(Y)),
        lambda X, Y: pullback_identity_residual(L, H, grid, on, X, Y)]
    for X, Y in ((V, W), (stack(xs), stack(ys))):
        pushed = push_variation(X)
        single = stack([push_variation(Z) for Z in rows(X)])
        for f in fields(pushed)[:-1]:
            assert getattr(single, f.name).tobytes() \
                == getattr(pushed, f.name).tobytes()
        for pairing in pairings:
            stacked = pairing(X, Y)
            assert stacked.shape == (len(vs),)
            single = np.array([pairing(A, B)
                               for A, B in zip(rows(X), rows(Y))])
            assert single.tobytes() == stacked.tobytes()


@PROPERTY
@given(lifted_stacks())
def test_stacked_pairing_antisymmetric(case):
    _, H, grid, state, V, W, _ = case
    data = _state_pairing_data(H, grid, state)
    forward = presymplectic_pairing(H, grid, state, V, W, _data=data)
    assert (presymplectic_pairing(H, grid, state, W, V, _data=data)
            == -forward).all()
    assert not presymplectic_pairing(H, grid, state, V, V, _data=data).any()
