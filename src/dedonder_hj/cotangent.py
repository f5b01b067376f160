"""Cotangent picture of the Cauchy dynamics.

Restricting a Cauchy state to (u, pi = p_t) lands in the cotangent data
space. The field energy

    h(t, u, pi) = integral of (-L + pi u_t),   u_t solving dL/du_t = pi,

drives the dynamics there through the two-form built from

    omega(X, Y) = integral of (X_u Y_pi - X_pi Y_u)

extended by dh wedge dt. Its variational derivatives are discrete-exact:
the u_x-dependence of L is differentiated through the transpose of the
central-difference stencil (the negative of the stencil itself on a
periodic grid), which makes the restriction map a strict pairing
isomorphism on states satisfying the spatial constraint and keeps the
trajectory equations equivalent to

    du/dt = dh/dpi,    dpi/dt = -dh/du.
"""

import numpy as np

from .cauchy import (_SHAPES, _SINGLE, _Frames, _Variation, _frame_samples,
                     _probe_rows, _sample_frames, _smooth_profile,
                     checked_frames, covector_residual, frame_blocks,
                     frame_velocities, gradient_fields, integrate_density,
                     presymplectic_pairing, spatial_derivative, take_frames)
from .hj import lift_by_gamma
from .legendre import _solve_nodewise
from .models import RefusedResidual


class ConstraintError(RefusedResidual):
    """State is off the image of the time-Legendre constraint."""
    what = "state off the momentum constraint"


class CotangentState(_Frames):
    """Time value plus per-node fields (u, pi); or F frames, with t of
    shape (F,) and each field on a leading frame axis."""
    t: float
    u: np.ndarray    # (n, N)
    pi: np.ndarray   # (n, N)


class CotangentVariation(_Variation):
    """Tangent vector to the cotangent data space, or a stack of S of
    them, as :class:`cauchy.TangentVariation`."""
    k: float
    du: np.ndarray    # (n, N), or (S, n, N)
    dpi: np.ndarray   # (n, N), or (S, n, N)
    indicators: bool = False


def restriction_map_R(state):
    """Keep (u, pi = p_t), discard the spatial momenta."""
    return CotangentState(state.t, state.u.copy(), state.p_t.copy())


def push_variation(X):
    """Pushforward of a Cauchy-space variation, or of a stack of them,
    through the restriction."""
    return CotangentVariation(X.k, X.du.copy(), X.dp_t.copy())


def solve_time_velocity(L, grid, t, u, pi):
    """Newton-solve dL/du_t = pi per node, with u_x from the grid. u and pi
    are (n, N) at a time t, or (F, n, N) at times t (F,), whose F N
    frame-nodes are then the samples of one solve, for L's n and the
    grid's N. Refuses a t of another shape and u and pi that are not both
    of one of those shapes; a NaN in pi comes back as NaN in u_t."""
    u, pi = _SHAPES.floats(grid, L, t=t, u=u, pi=pi)[1:]
    ts, xs, us, u_xs, pis = _frame_samples(grid, t, u,
                                           gradient_fields(grid, u), pi)
    return _sample_frames(_solve_nodewise(
        lambda ut: L.d_ut(ts, xs, us, ut, u_xs),
        lambda ut: L.value(ts, xs, us, ut, u_xs), pis,
        "time-Legendre solve", 1), t)


def instantaneous_hamiltonian(L, grid, cs):
    """Field energy: quadrature of (-L + pi u_t) at the solved velocity; for
    F stacked frames the (F,) array of each frame's energy."""
    t, u = cs.t, cs.u
    u_t = solve_time_velocity(L, grid, t, u, cs.pi)
    u_x = gradient_fields(grid, u)
    lag = _sample_frames(L.value(*_frame_samples(grid, t, u, u_t, u_x)), t)
    return integrate_density(grid, -lag + np.sum(cs.pi * u_t, axis=-2))


def variational_derivative(L, grid, cs):
    """Per-node variational derivatives (dh/du, dh/dpi) of the field
    energy, weight-normalized so that directional derivatives are
    quadratures of these fields against the variation.

    dh/dpi = u_t (the solved velocity); dh/du = -dL/du + D(dL/du_x),
    the second term being the exact discrete transpose of the stencil.
    For F stacked frames both carry the leading frame axis.
    """
    t, u = cs.t, cs.u
    u_t = solve_time_velocity(L, grid, t, u, cs.pi)
    args = _frame_samples(grid, t, u, u_t, gradient_fields(grid, u))
    dh_du = -_sample_frames(L.d_u(*args), t)
    d_ux = _sample_frames(L.d_ux(*args), t)  # (F, n, m, N) or (n, m, N)
    for j in range(grid.m):
        dh_du = dh_du + spatial_derivative(grid, d_ux[..., j, :])
    return dh_du, u_t.copy()


def omega_pairing(grid, X, Y):
    """Canonical pairing: quadrature of X_u Y_pi - X_pi Y_u. The time
    components do not enter. Refuses a Y that does not fit X or the grid,
    and stacks X and Y of different lengths."""
    _SHAPES.check(grid, None, X=X, Y=Y)
    integrand = np.sum(X.du * Y.dpi - X.dpi * Y.du, axis=-2)
    return integrate_density(grid, integrand)


def extended_form_pairing(L, grid, cs, X, Y):
    """Pairing of the two-form omega + dh wedge dt:

        omega(X, Y) + X(h) k_Y - Y(h) k_X

    with X(h) the derivative of the field energy along the vertical part
    (du, dpi) of X: the k_X k_Y dh/dt legs of the full derivative cancel.
    X and Y may be stacks of S variations each, or cs a state of F frames,
    as in :func:`cauchy.presymplectic_pairing`. Refuses variations that do
    not fit the state."""
    _SHAPES.check(grid, L, state=cs, X=X, Y=Y)
    if np.ndim(cs.t):
        _SINGLE.check(grid, L, X=X, Y=Y)
    dh_du, dh_dpi = variational_derivative(L, grid, cs)

    def directional(Z):
        return integrate_density(grid, np.sum(dh_du * Z.du + dh_dpi * Z.dpi,
                                              axis=-2))

    # grouped so that swapping X and Y negates every floating-point term
    t_energy = directional(X) * Y.k - directional(Y) * X.k
    return omega_pairing(grid, X, Y) + t_energy


def extended_form_covector(grid, dh, X):
    """Contraction i_X of :func:`extended_form_pairing` at a state with
    variational derivatives ``dh = (dh_du, dh_dpi)``: the per-node
    covector (c_u, c_pi) and the scalar c_k with

        pairing(X, Y) = integral of (c_u Y_u + c_pi Y_pi) + c_k k_Y.

    The dh/dt legs of X(h) k_Y and Y(h) k_X cancel."""
    dh_du, dh_dpi = dh
    c_k = integrate_density(grid, np.sum(dh_du * X.du + dh_dpi * X.dpi,
                                         axis=-2))
    return (-X.dpi - X.k * dh_du, X.du - X.k * dh_dpi), c_k


def standard_cotangent_variations(grid, n, rng=None):
    """Deterministic probes, node indicators and 8 seeded smooth
    variations on (u, pi); the vertical test set for cotangent residuals,
    one stack with the indicators only flagged."""
    rng = rng if rng is not None else np.random.default_rng(0)
    probes = _probe_rows(grid, n, 2)
    draws = np.empty((8, 2, n, grid.n_nodes))
    for s in range(8):
        draws[s] = _smooth_profile(grid, rng, n), _smooth_profile(grid, rng, n)
    return CotangentVariation(
        np.zeros(len(probes) + 8), *(np.concatenate([probes[:, :, c],
                                                     draws[:, c]])
                                     for c in (0, 1)), indicators=True)


def cotangent_trajectory_residual(L, grid, frames, test_set=None, rng=None):
    """max over the checked frames of a :class:`CotangentState` of F
    frames, each block of them in one pass (:func:`cauchy.frame_blocks`),
    and over test variations, of the normalized pairing of the frame
    velocity against the extended two-form; zero exactly when the frames
    satisfy du/dt = dh/dpi, dpi/dt = -dh/du, NaN when a pairing is."""
    dt, idx = checked_frames(frames.t)
    n = frames.u.shape[1]
    rng = rng if rng is not None else np.random.default_rng(0)
    if test_set is None:
        test_set = standard_cotangent_variations(grid, n, rng=rng)
    u_dot, pi_dot = frame_velocities(frames, dt, fields=("u", "pi"))
    worst = 0.0
    for block in frame_blocks(grid, len(idx)):
        ks = idx[block]
        c_dot = CotangentVariation(1.0, u_dot[ks], pi_dot[ks])
        dh = variational_derivative(L, grid, take_frames(frames, ks))
        worst = np.maximum(worst, np.max(covector_residual(
            grid, *extended_form_covector(grid, dh, c_dot), test_set)))
    return float(worst)


def time_legendre_constraint_residual(L, grid, state):
    """Sup-norm distance of a Cauchy state from the constraint set: the
    spatial momenta must equal dL/du_x at the jet reconstructed from
    (u, p_t). For F stacked frames the (F,) array of each frame's
    distance."""
    t, u = state.t, state.u
    _SHAPES.check(grid, L, u=u, p_x=state.p_x)
    u_t = solve_time_velocity(L, grid, t, u, state.p_t)
    u_x = gradient_fields(grid, u)
    expected = _sample_frames(L.d_ux(*_frame_samples(grid, t, u, u_t, u_x)),
                              t)
    out = np.max(np.abs(state.p_x - expected), axis=(-3, -2, -1),
                 initial=0.0)
    return float(out) if np.ndim(out) == 0 else out


def pullback_identity_residual(L, H, grid, state, X, Y):
    """|pairing of (omega + dh wedge dt) at the restricted state against
    the pushed variations - Cauchy-space pairing of (X, Y)|; for stacks X
    and Y of S variations each, or a state of F frames, the (S,) or (F,)
    array of each pair's or frame's residual, bit for bit.

    Raises :class:`ConstraintError` when the state, or a frame of it, is
    more than 1e-10 off the momentum constraint, or its distance is NaN,
    where the identity is not asserted; the error carries the distance of
    the first such frame in time order. Raises (through the two pairings)
    the shape contract's errors for variations that do not fit the state.
    """
    res = time_legendre_constraint_residual(L, grid, state)
    for r in np.atleast_1d(res)[np.argsort(state.t, axis=None,
                                           kind="stable")]:
        if not r <= 1e-10:
            raise ConstraintError(float(r), 1e-10)
    lhs = extended_form_pairing(L, grid, restriction_map_R(state),
                                push_variation(X), push_variation(Y))
    rhs = presymplectic_pairing(H, grid, state, X, Y)
    return np.abs(lhs - rhs)


def hat_gamma(gamma, t, grid, u):
    """Cotangent state induced by a Hamilton-Jacobi section: restriction
    of the section lift."""
    return restriction_map_R(lift_by_gamma(gamma, t, grid, u))
