"""Property tests of the residual checks on a leading frame axis.

Stored frames are one stacked state: t of shape (F,) and every field on a
leading frame axis, as ``cauchy.run_simulation`` returns them, sliced with
``cauchy.take_frames``. The per-frame residual functions (field energy,
constraint residual, trajectory residual, the cotangent trajectory
residual) and the section lift take F stacked frames and evaluate the
model once over all F N frame-nodes. For the built-in models with m in
{0, 1} and n in {1, 2}, and a model that reads x and t (pinned by an
example, since a stacked evaluation must lay x and t out frame by frame
to show it), and F around the block size (16 frames at
N = 128), a call on all F frames and the calls on the blocks of
``cauchy.frame_blocks`` must equal the single-state calls frame by frame,
bit for bit, a single state being frame shape (), not a stack of one, with
its per-frame type (a float, or arrays without a frame axis); so must the
stacked lift against the lifts of single frames, and the split,
contraction and pullback residuals of the lift check against its
frame-by-frame form, with the oscillator and linear sections. A
value-only model solves each block's velocities with one Newton
iteration count, so its results may move within the finite-difference
noise floor, and its velocities within twice the solve's stopping
tolerance. Stacks that are not finite, are mis-shaped or do not fit
(the grid, their velocities or the test set) are refused with the
library's own errors.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedonder_hj.cauchy import (CauchyState, GridError, TangentVariation,
                                _frame_samples, _state_pairing_data,
                                checked_frames, covector_residual,
                                dynamical_trajectory_residual, frame_blocks,
                                frame_velocities, gradient_fields, make_grid,
                                pairing_covector, presymplectic_pairing,
                                random_smooth_variation,
                                standard_test_variations, take_frames,
                                time_derivative_frames)
from dedonder_hj.cotangent import (CotangentState, CotangentVariation,
                                   cotangent_trajectory_residual,
                                   extended_form_covector,
                                   instantaneous_hamiltonian,
                                   restriction_map_R, solve_time_velocity,
                                   standard_cotangent_variations,
                                   time_legendre_constraint_residual,
                                   variational_derivative)
from dedonder_hj.hj import (_lift_with, hj_lift_solution_check,
                            lift_by_gamma, linear_gamma, oscillator_gamma)
from dedonder_hj.legendre import (NEWTON_TOL, _fd_noise_floor,
                                  hamiltonian_from_lagrangian)
from dedonder_hj.models import (DedonderError, HamiltonianModel,
                                LagrangianModel, ModelError, builtin_model,
                                replace)

BUILTINS = [("free_wave", {}), ("klein_gordon", {"mass": 0.7}),
            ("scalar_potential", {"mass": 0.5, "potential": (0.0, 0.2, 0.3)}),
            ("mechanics_oscillator", {"omega": 1.3})]

#: frame counts around the 16-frame block of N = 128
FRAME_COUNTS = [5, 16, 17, 33]

#: a value-only model's block against its frames, relative to max(1, |x|):
#: its Newton solves stop at the finite-difference noise floor of the
#: model, 100 eps / DEFAULT_FD_STEP = 2.2e-9 relative, so one iteration
#: count per block moves a result by no more than that floor
VALUE_ONLY_TOL = 1e-8

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def fields(record):
    """The fields of a record in order, each with its ``name``."""
    return [SimpleNamespace(name=name) for name in record._fields]


def value_only(model):
    return type(model)(model.dims, model._value)


def stack(states):
    """One state of the F frames ``states``, t of shape (F,) and each field
    on a leading frame axis."""
    cls = type(states[0])
    return cls(*(np.array([getattr(s, f.name) for s in states])
                 for f in fields(cls)))


def x_and_t_model(n):
    """Klein-Gordon L of mass term (1 + 0.3 sin 2 pi x + 0.1 t) |u|^2 / 2,
    which reads x and t, with analytic partials and an analytic paired
    Hamiltonian: a stacked evaluation that lays x or t out otherwise than
    its frames do changes its values."""
    kg = builtin_model("klein_gordon", {"n": n})
    ham = kg.paired_hamiltonian

    def potential(t, x, u):
        return 0.5 * (1.0 + 0.3 * np.sin(2 * np.pi * x[0]) + 0.1 * t) \
            * np.sum(np.square(u), axis=0)

    def d_potential(t, x, u, *_):
        return (1.0 + 0.3 * np.sin(2 * np.pi * x[0]) + 0.1 * t) * u

    L = LagrangianModel(
        kg.dims, lambda t, x, u, u_t, u_x: kg.value(t, x, u, u_t, u_x)
        - potential(t, x, u),
        d_u=lambda *args: -d_potential(*args), d_ut=kg.d_ut, d_ux=kg.d_ux,
        velocity_hessian=kg._hess, d2_vel_u=kg.d2_vel_u, name="x_and_t")
    L.paired_hamiltonian = HamiltonianModel(
        kg.dims, lambda t, x, u, p_t, p_x: ham.value(t, x, u, p_t, p_x)
        + potential(t, x, u),
        d_u=d_potential, d_pt=ham.d_pt, d_px=ham.d_px,
        momentum_jacobian=ham._momentum_jacobian,
        spatial_momenta=ham._spatial_momenta, name="x_and_t_hamiltonian")
    return L


def framed_run(L, grid, F, seed, indicators):
    """(L, H, grid, states, velocities, test set): F random frames of L on
    the grid, random velocities on the same leading axis, and the standard
    test set, with or without its node indicators (whose closed-form
    maximum would often hide the contraction's bits)."""
    rng = np.random.default_rng(seed)
    n, m, N = L.dims.n, grid.m, grid.n_nodes
    states = [CauchyState(0.1 + 0.01 * k, rng.normal(size=(n, N)),
                          rng.normal(size=(n, N)),
                          rng.normal(size=(n, m, N))) for k in range(F)]
    velocities = [rng.normal(size=(F, n, N)), rng.normal(size=(F, n, N)),
                  rng.normal(size=(F, n, m, N))]
    test = standard_test_variations(grid, n, rng=rng)
    return (L, hamiltonian_from_lagrangian(L), grid, states, velocities,
            replace(test, indicators=indicators))


@st.composite
def framed_runs(draw, value_only_model=False, nodes=(3, 7, 128)):
    """A :func:`framed_run` of a built-in model or of :func:`x_and_t_model`
    (or the same model given by its value alone)."""
    name, params = draw(st.sampled_from(BUILTINS + [("x_and_t", {})]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if name == "mechanics_oscillator":
        L, grid = builtin_model(name, params), make_grid(1, m=0)
    else:
        n = draw(st.integers(1, 2))
        L = x_and_t_model(n) if name == "x_and_t" \
            else builtin_model(name, {**params, "n": n})
        grid = make_grid(draw(st.sampled_from(nodes)))
    if value_only_model:
        L = value_only(L)
    return framed_run(L, grid, draw(st.sampled_from(FRAME_COUNTS)), seed,
                      draw(st.booleans()))


#: frames of a model that reads x and t, on which a stacked evaluation
#: laying x out node by node, not frame by frame, changes the results
X_AND_T_RUN = framed_run(x_and_t_model(1), make_grid(7), 5, 1, False)


def frame_by_frame(L, H, grid, states, velocities, test):
    """Energies, constraint residuals and trajectory residuals of the
    frames, one call per frame."""
    return np.array([
        [instantaneous_hamiltonian(L, grid, restriction_map_R(s)),
         time_legendre_constraint_residual(L, grid, s),
         dynamical_trajectory_residual(H, grid, s, [v[f] for v in velocities],
                                       test)]
        for f, s in enumerate(states)])


def stacked(L, H, grid, states, velocities, test, blocks):
    """The same, one call of each function per block of frames."""
    rows = []
    for block in blocks:
        frames = stack(states[block])
        rows.append(np.stack([
            instantaneous_hamiltonian(L, grid, restriction_map_R(frames)),
            time_legendre_constraint_residual(L, grid, frames),
            dynamical_trajectory_residual(
                H, grid, frames, [v[block] for v in velocities], test)],
            axis=1))
    return np.concatenate(rows)


@PROPERTY
@given(framed_runs())
@example(X_AND_T_RUN)
def test_stacked_frames_match_frame_by_frame(case):
    single = frame_by_frame(*case)
    F = len(case[3])
    for blocks in ([slice(0, F)], frame_blocks(case[2], F)):
        assert stacked(*case, blocks).tobytes() == single.tobytes()


@PROPERTY
@given(framed_runs())
@example(X_AND_T_RUN)
def test_single_state_is_its_row_of_the_stack(case):
    # one frame is frame shape (), not a stack of one: each call at
    # take_frames(stack, f) gives row f of the stacked call, bit for bit,
    # with the per-frame type. The energy, the constraint distance and the
    # lift are compared bit for bit above, so only their types are here.
    L, H, grid, states, _, _ = case
    frames = stack(states)
    gamma = linear_gamma(L.dims, 0.5, c=0.2)
    data = _state_pairing_data(H, grid, frames)
    u_t = solve_time_velocity(L, grid, frames.t, frames.u, frames.p_t)
    dh = variational_derivative(L, grid, restriction_map_R(frames))
    for f in range(len(states)):
        one = take_frames(frames, f)
        for rows, single in (
                (data, _state_pairing_data(H, grid, one)),
                ((u_t,), (solve_time_velocity(L, grid, one.t, one.u,
                                              one.p_t),)),
                (dh, variational_derivative(L, grid, restriction_map_R(one)))):
            assert len(single) == len(rows)
            for row, value in zip(rows, single):
                assert value.shape == row.shape[1:]
                assert value.tobytes() == row[f].tobytes()
        assert type(instantaneous_hamiltonian(
            L, grid, restriction_map_R(one))) is float
        assert type(time_legendre_constraint_residual(L, grid, one)) is float
        lifted = lift_by_gamma(gamma, one.t, grid, one.u)
        assert type(lifted) is CauchyState and type(lifted.t) is float
        assert [a.ndim for a in (lifted.u, lifted.p_t, lifted.p_x)] \
            == [2, 2, 3]


@PROPERTY
@given(framed_runs(nodes=(3, 7)))
def test_take_frames_returns_each_frames_own_values(case):
    states = case[3]
    F = len(states)
    for frames in (stack(states), stack([restriction_map_R(s)
                                         for s in states])):
        names = [f.name for f in fields(frames)]
        for k in range(F):
            one = take_frames(frames, k)
            assert one.t == frames.t[k] and np.ndim(one.t) == 0
            assert all(getattr(one, name).tobytes()
                       == getattr(frames, name)[k].tobytes()
                       for name in names[1:])
        for index in (slice(1, F - 1), [F - 1, 0, 2], slice(None, None, 2)):
            some = take_frames(frames, index)
            assert type(some) is type(frames)
            assert all(getattr(some, name).tobytes()
                       == getattr(frames, name)[index].tobytes()
                       for name in names)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 0)])
def test_take_frames_takes_the_rows_of_a_variation_stack(n, m):
    # the even and odd rows of one draw, as pairing-check takes its pairs,
    # against the stacks sliced by hand
    grid = make_grid(16) if m else make_grid(1, m=0)
    draws = random_smooth_variation(grid, n, np.random.default_rng(7),
                                    vertical=False, count=10)
    pushed = CotangentVariation(draws.k, draws.du, draws.dp_t)
    for i in (0, 1):
        rows = slice(i, None, 2)
        for stack_, parts in ((draws, ("k", "du", "dp_t", "dp_x")),
                              (pushed, ("k", "du", "dpi"))):
            taken = take_frames(stack_, rows)
            hand = type(stack_)(*(getattr(stack_, p)[rows] for p in parts))
            assert len(taken) == len(hand) == 5 and not taken.indicators
            for p in parts:
                assert getattr(taken, p).tobytes() \
                    == getattr(hand, p).tobytes()
    one = take_frames(draws, 3)
    assert np.ndim(one.k) == 0 and one.du.shape == (n, grid.n_nodes)


def test_take_frames_refuses_a_test_set():
    grid = make_grid(8)
    for test in (standard_test_variations(grid, 1),
                 standard_cotangent_variations(grid, 1)):
        with pytest.raises(ModelError, match="test set"):
            take_frames(test, slice(0, 2))


def test_take_frames_refuses_an_index_out_of_range():
    frames = CauchyState(np.arange(5) * 0.1, np.ones((5, 1, 8)),
                         np.zeros((5, 1, 8)), np.zeros((5, 1, 1, 8)))
    assert take_frames(frames, -1).t == frames.t[4]
    assert take_frames(frames, -5).t == 0.0
    for index in (5, 10, -6, [0, 7]):
        with pytest.raises(ModelError, match=r"cannot take frames .*"
                                             r"out of bounds .* size 5"):
            take_frames(frames, index)


def test_test_set_refuses_no_fields():
    with pytest.raises(ModelError, match="n >= 1 fields, got 0"):
        standard_test_variations(make_grid(16), 0)


def test_blocks_at_128_nodes_hold_16_frames():
    assert [(b.start, b.stop) for b in frame_blocks(make_grid(128), 33)] \
        == [(0, 16), (16, 32), (32, 48)]
    assert len(frame_blocks(make_grid(4096), 3)) == 3


@settings(max_examples=8, deadline=None, derandomize=True)
@given(framed_runs(value_only_model=True, nodes=(3, 7)))
def test_value_only_stacked_frames_within_the_noise_floor(case):
    single = frame_by_frame(*case)
    together = stacked(*case, [slice(0, len(case[3]))])
    assert np.all(np.abs(together - single)
                  <= VALUE_ONLY_TOL * np.maximum(1.0, np.abs(single)))


#: frames of the x- and t-reading model given by its value alone
VALUE_ONLY_X_AND_T_RUN = framed_run(value_only(x_and_t_model(1)),
                                    make_grid(7), 5, 1, False)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(framed_runs(value_only_model=True, nodes=(3, 7)))
@example(VALUE_ONLY_X_AND_T_RUN)
def test_value_only_stacked_velocities_within_the_stopping_tolerance(case):
    # the solve stops on the max norm of the residual over all its
    # samples, so the frames stacked with a frame set its Newton count:
    # each solution is only within the stopping tolerance, NEWTON_TOL or
    # the finite-difference noise floor of L where the solve stops there,
    # and with dL/du_t of unit Jacobian in u_t two solutions are within
    # twice that
    L, _, grid, states, _, _ = case
    frames = stack(states)
    u_t = solve_time_velocity(L, grid, frames.t, frames.u, frames.p_t)
    values = L.value(*_frame_samples(grid, frames.t, frames.u, u_t,
                                     gradient_fields(grid, frames.u)))
    tol = 2 * max(NEWTON_TOL, _fd_noise_floor(values))
    for f, s in enumerate(states):
        alone = solve_time_velocity(L, grid, s.t, s.u, s.p_t)
        assert np.max(np.abs(u_t[f] - alone)) <= tol


def test_frame_at_rest_in_a_block():
    # a built-in solve of dL/du_t = pi takes one exact Newton step from
    # zero; a frame whose pi is all within NEWTON_TOL of zero is returned
    # at the zero start when alone, and stepped (u_t = pi) in a block
    L = builtin_model("klein_gordon", {"mass": 1.0})
    grid = make_grid(8)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(3, 1, 8))
    pi = rng.normal(size=(3, 1, 8))
    pi[0] = 0.0
    pi[1] = 0.5 * NEWTON_TOL
    t = np.array([0.0, 0.1, 0.2])
    block = solve_time_velocity(L, grid, t, u, pi)
    singles = [solve_time_velocity(L, grid, t[f], u[f], pi[f])
               for f in range(3)]
    assert block[0].tobytes() == singles[0].tobytes()
    assert block[2].tobytes() == singles[2].tobytes()
    assert not singles[1].any()
    assert np.array_equal(block[1], pi[1])
    cs = CotangentState(t, u, pi)
    assert instantaneous_hamiltonian(L, grid, cs).tobytes() == np.array(
        [instantaneous_hamiltonian(L, grid, CotangentState(t[f], u[f], pi[f]))
         for f in range(3)]).tobytes()


# -- the lift check -------------------------------------------------------------

@st.composite
def lifted_runs(draw):
    """(H, section, grid, times, u frames): a built-in model, the
    oscillator or a linear section, and F random frames whose first is
    compatible with the section (constant, where the linear section's
    spatial momenta vanish)."""
    name, params = draw(st.sampled_from(BUILTINS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if name == "mechanics_oscillator":
        L, grid = builtin_model(name, params), make_grid(1, m=0)
    else:
        L = builtin_model(name, {**params, "n": draw(st.integers(1, 2))})
        grid = make_grid(draw(st.sampled_from([3, 7, 128])))
    dims, n, N = L.dims, L.dims.n, grid.n_nodes
    u_frames = rng.normal(size=(draw(st.sampled_from(FRAME_COUNTS)), n, N))
    u_frames[0] = rng.normal()
    if draw(st.booleans()):
        gamma = oscillator_gamma(dims, omega=rng.uniform(0.2, 1.5))
    else:
        a, b, c = rng.normal(size=3)
        gamma = linear_gamma(dims, a, b, c, -(c * u_frames[0, 0, 0]))
    times = 0.1 + 0.01 * np.arange(len(u_frames))
    return hamiltonian_from_lagrangian(L), gamma, grid, times, u_frames


def lift_residuals_frame_by_frame(H, gamma, grid, times, u_frames, rng):
    """Split, contraction and pullback residuals of the lift check with
    one pairing data, one section partial and one covector per frame."""
    dt, idx = checked_frames(times)
    n = u_frames.shape[1]
    test_set = standard_test_variations(grid, n, rng=rng)
    states = [lift_by_gamma(gamma, t, grid, u)
              for t, u in zip(times, u_frames)]
    u_dot, pt_dot, px_dot = frame_velocities(stack(states), dt)
    draws = random_smooth_variation(grid, n, rng, vertical=False, count=16)
    V, W = (TangentVariation(draws.k[i::2], draws.du[i::2],
                             draws.dp_t[i::2], draws.dp_x[i::2])
            for i in (0, 1))
    split = contraction = pullback = 0.0
    for k in idx:
        data = _state_pairing_data(H, grid, states[k])
        d = gamma.partials(times[k], grid.x, states[k].u)
        c_dot = TangentVariation(1.0, u_dot[k], pt_dot[k], px_dot[k])
        split = max(split, covector_residual(
            grid, *pairing_covector(grid, data, c_dot), test_set))
        X = _lift_with(d, 1.0, data[1])
        contraction = max(contraction, covector_residual(
            grid, *pairing_covector(grid, data, X), test_set))
        pairings = presymplectic_pairing(
            H, grid, states[k], _lift_with(d, V.k, V.du),
            _lift_with(d, W.k, W.du), _data=data)
        pullback = max(pullback, float(np.max(np.abs(pairings))))
    return states, split, contraction, pullback


@PROPERTY
@given(lifted_runs())
def test_lift_check_matches_frame_by_frame(case):
    _, *residuals = lift_residuals_frame_by_frame(
        *case, rng=np.random.default_rng(5))
    report = hj_lift_solution_check(*case, rng=np.random.default_rng(5))
    assert [report.split_residual, report.contraction_residual,
            report.pullback_residual] == residuals


@PROPERTY
@given(lifted_runs())
def test_stacked_lift_matches_single_lifts(case):
    _, gamma, grid, times, u_frames = case
    lifted = lift_by_gamma(gamma, times, grid, u_frames)
    singles = stack([lift_by_gamma(gamma, t, grid, u)
                     for t, u in zip(times, u_frames)])
    for f in fields(lifted):
        assert getattr(lifted, f.name).tobytes() \
            == getattr(singles, f.name).tobytes()


@pytest.mark.parametrize("fault, error", [
    ("nan", ModelError), ("other N", GridError), ("other F", ModelError),
    ("other n", ModelError)])
def test_stacked_lift_refuses_bad_frames(fault, error):
    gamma = oscillator_gamma(builtin_model("klein_gordon").dims, 1.0)
    times = 0.1 * np.arange(6)
    u_frames = np.ones((6, 1, 8))
    if fault == "nan":
        u_frames[3, 0, 2] = np.nan
    elif fault == "other F":
        times = times[:5]
    elif fault == "other n":
        u_frames = np.ones((6, 2, 8))
    grid = make_grid(9 if fault == "other N" else 8)
    with pytest.raises(error):
        lift_by_gamma(gamma, times, grid, u_frames)


# -- the cotangent trajectory residual --------------------------------------------

@st.composite
def cotangent_runs(draw):
    """(L, grid, frames, test set): F random cotangent frames of a built-in
    model, uniformly spaced in time, and the standard cotangent test set,
    with or without its node indicators."""
    L, _, grid, states, _, _ = draw(framed_runs())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    test = standard_cotangent_variations(grid, L.dims.n, rng=rng)
    return (L, grid, stack([restriction_map_R(s) for s in states]),
            replace(test, indicators=draw(st.booleans())))


def cotangent_residual_frame_by_frame(L, grid, frames, test_set):
    """The cotangent trajectory residual with one variational derivative
    and one covector residual per checked frame."""
    dt, idx = checked_frames(frames.t)
    u_dot, pi_dot = (time_derivative_frames(getattr(frames, name), dt)
                     for name in ("u", "pi"))
    worst = 0.0
    for k in idx:
        dh = variational_derivative(L, grid, CotangentState(
            frames.t[k], frames.u[k], frames.pi[k]))
        c_dot = CotangentVariation(1.0, u_dot[k], pi_dot[k])
        worst = np.maximum(worst, covector_residual(
            grid, *extended_form_covector(grid, dh, c_dot), test_set))
    return float(worst)


@PROPERTY
@given(cotangent_runs())
def test_stacked_cotangent_residual_matches_frame_by_frame(case):
    L, grid, frames, test = case
    assert np.float64(cotangent_trajectory_residual(
        L, grid, frames, test_set=test)).tobytes() == np.float64(
        cotangent_residual_frame_by_frame(*case)).tobytes()


def test_nan_lagrangian_gives_nan_cotangent_residual():
    # a free-wave L whose dL/du is NaN above u = 1.5, the first of six
    # frames at u = 2: the residual comes back NaN, where a Python max
    # over frames kept the finite residuals of the others (0.593)
    wave = builtin_model("free_wave")
    L = LagrangianModel(
        wave.dims, wave._value, d_ut=wave.d_ut, d_ux=wave.d_ux,
        velocity_hessian=wave._hess,
        d_u=lambda t, x, u, u_t, u_x: np.where(u > 1.5, np.nan, 0.0 * u))
    u = np.ones((6, 1, 8))
    u[0] = 2.0
    frames = CotangentState(0.1 * np.arange(6), u, np.zeros((6, 1, 8)))
    assert np.isnan(cotangent_trajectory_residual(L, make_grid(8), frames))


# -- refusals --------------------------------------------------------------------

FAULTS = ["nan", "inf", "other N in p_t", "other N", "other m",
          "velocity shape", "velocity nan", "test set shape"]


def corrupt(fault, frames, velocities, test, rng):
    """The fields (t, u, p_t, p_x) of a stack of frames, its velocities and
    the test set, with one fault."""
    t, u, p_t, p_x = (getattr(frames, f.name) for f in fields(frames))
    velocities = list(velocities)
    F, n, m, N = p_x.shape
    if fault in ("nan", "inf"):
        u = u.copy()
        u[-1, 0, -1] = np.nan if fault == "nan" else -np.inf
    elif fault == "other N in p_t":
        p_t = np.ones((F, n, N + 1))
    elif fault == "other N":
        u, p_t, p_x = (np.ones((F, n, N + 1)), np.ones((F, n, N + 1)),
                       np.ones((F, n, m, N + 1)))
        velocities = [np.ones(np.shape(a)[:-1] + (N + 1,))
                      for a in velocities]
    elif fault == "other m":
        p_x = np.ones((F, n, m + 1, N))
        velocities[2] = np.ones((F, n, m + 1, N))
    elif fault == "velocity shape":
        velocities[0] = velocities[0][:, :, :-1]
    elif fault == "velocity nan":
        velocities[1] = velocities[1].copy()
        velocities[1][-1, 0, 0] = np.nan
    else:
        test = standard_test_variations(
            make_grid(N + 3) if m else make_grid(1, m=0), n + 1, rng=rng)
    return (t, u, p_t, p_x), velocities, test


@PROPERTY
@given(framed_runs(nodes=(3, 7)), st.sampled_from(FAULTS))
def test_bad_frames_refused_with_the_library_errors(case, fault):
    L, H, grid, states, velocities, test = case
    (t, u, p_t, p_x), velocities, test = corrupt(
        fault, stack(states), velocities, test, np.random.default_rng(0))
    calls = [lambda: dynamical_trajectory_residual(
        H, grid, CauchyState(t, u, p_t, p_x), velocities, test)]
    if not fault.startswith(("velocity", "test")):
        # the constraint reads every field, the energy u and p_t alone
        calls.append(lambda: time_legendre_constraint_residual(
            L, grid, CauchyState(t, u, p_t, p_x)))
    if fault in FAULTS[:4]:
        calls.append(lambda: instantaneous_hamiltonian(
            L, grid, restriction_map_R(CauchyState(t, u, p_t, p_x))))
        calls.append(lambda: cotangent_trajectory_residual(
            L, grid, CotangentState(t, u, p_t)))
    for call in calls:
        with pytest.raises(DedonderError):
            call()


@pytest.mark.parametrize("fault", ["nan", "other N"])
def test_lift_check_refuses_bad_frames(fault):
    H = hamiltonian_from_lagrangian(builtin_model("klein_gordon"))
    gamma = oscillator_gamma(H.dims, 1.0)
    times = 0.1 * np.arange(6)
    u_frames = np.ones((6, 1, 8))
    if fault == "nan":
        u_frames[3, 0, 2] = np.nan
    grid = make_grid(8 if fault == "nan" else 9)
    with pytest.raises(DedonderError):
        hj_lift_solution_check(H, gamma, grid, times, u_frames)


def test_nan_partials_give_nan_residuals():
    # a Hamiltonian whose dH/du is NaN above u = 1.5 at finite frames: the
    # residuals come back NaN, where a Python max over frames and test
    # variations dropped them
    wave = builtin_model("free_wave").paired_hamiltonian
    H = HamiltonianModel(
        wave.dims, wave._value, d_pt=wave.d_pt, d_px=wave.d_px,
        d_u=lambda t, x, u, p_t, p_x: np.where(u > 1.5, np.nan, 0.0 * u))
    grid = make_grid(8)
    u_frames = np.ones((6, 1, 8))
    u_frames[4] = 2.0
    report = hj_lift_solution_check(H, linear_gamma(H.dims, 0.0), grid,
                                    0.1 * np.arange(6), u_frames)
    assert np.isnan(report.split_residual)
    state = CauchyState(0.0, u_frames[4], u_frames[4], np.ones((1, 1, 8)))
    assert np.isnan(dynamical_trajectory_residual(
        H, grid, state, (u_frames[4], u_frames[4], np.ones((1, 1, 8))),
        standard_test_variations(grid, 1)))
