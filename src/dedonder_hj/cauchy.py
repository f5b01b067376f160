"""Discretized Cauchy data space over a periodic spatial grid.

A state of the field system at fixed time is (u, p_t, p_x) sampled on N
uniform nodes of a circle of length l (a single weight-one node when
m = 0). The first-order field equations split into time evolution

    du/dt   = dH/dp_t
    dp_t/dt = -dH/du - sum_j d(p^j)/dx^j

plus the spatial constraint du/dx^j = dH/dp^j, which determines p_x from
u at every evaluation; p_x is recovered, never evolved.

The pairing of two tangent variations X, Y at a state integrates, node by
node,

    [X(H) k_Y - Y(H) k_X] + [X_u Y_{p_t} - X_{p_t} Y_u]
    + k_X [Y_{p_x} . D u - Y_u . D p_x] - k_Y [X_{p_x} . D u - X_u . D p_x]

where k is the time component of a variation, D the periodic central
difference and X(H) = H_u X_u + H_{p_t} X_{p_t} + H_{p_x} X_{p_x} the
vertical derivative of H: the k_X k_Y H_t legs of the full derivative
cancel. Contracting with a trajectory velocity (k = 1) and spanning
vertical test variations reproduces exactly the split field equations
above, which is what the trajectory residual measures.
"""

import numbers

import numpy as np

from .legendre import _solve_nodewise
from .models import (DedonderError, GridError, ModelError, Record, Shapes,
                     _finite)

#: power iterations of :func:`rhs_spectral_radius`
RHS_POWER_ITERATIONS = 30

#: amplitude of the deterministic and random smooth test variations;
#: sized so normalized residuals of O(h^2)-accurate trajectories stay
#: comparable across grid refinement.
VARIATION_SCALE = 0.25

#: largest |u| (and |p_t|) that a step of either integrator may reach
BLOWUP_BOUND = 1e8

#: samples per batched evaluation: the chunks of verify-hj's mesh, and the
#: frame-nodes of a block of frames in the residual checks
VERIFY_CHUNK = 2048


class BlowupError(DedonderError, RuntimeError):
    """A field went non-finite or past BLOWUP_BOUND during integration."""
    exit_code = 3


class CauchyGrid(Record):
    """Uniform periodic grid on a circle of length ``length`` (m = 1) or a
    single point with unit weight (m = 0)."""
    m: int
    n_nodes: int
    length: float
    spacing: float
    x: np.ndarray          # (m, N) node coordinates
    weights: np.ndarray    # (N,) quadrature weights

    def __post_init__(self):
        # the periodic neighbours of the nodes, in order, for _central
        N = self.n_nodes
        self.__dict__["_wrap"] = np.arange(-1, N + 1) % N


def make_grid(n_nodes, length=1.0, m=1):
    if not isinstance(n_nodes, numbers.Integral):
        raise GridError(f"n_nodes must be an integer, got {n_nodes!r}")
    if n_nodes < 1:
        raise GridError("n_nodes must be >= 1")
    if not 0 < length < np.inf:
        raise GridError("length must be positive and finite")
    if m == 0:
        if n_nodes != 1:
            raise GridError("m = 0 requires a single node")
        return CauchyGrid(m=0, n_nodes=1, length=1.0, spacing=1.0,
                          x=np.zeros((0, 1)), weights=np.ones(1))
    if m != 1:
        raise GridError("only m in {0, 1} is supported at runtime")
    h = length / n_nodes
    x = (np.arange(n_nodes) * h)[None, :]
    w = np.full(n_nodes, h)
    return CauchyGrid(m=1, n_nodes=n_nodes, length=float(length),
                      spacing=h, x=x, weights=w)


def spatial_derivative(grid, values):
    """Second-order periodic central difference along the node axis."""
    values = np.asarray(values, dtype=float)
    _SHAPES.check(grid, values=values)
    return _central(grid, values) if grid.m else np.zeros_like(values)


def _central(grid, values):
    """:func:`spatial_derivative` of float values on the nodes at m = 1,
    padded with one periodic neighbour on each side by one gather."""
    if grid.n_nodes < 3:
        raise GridError("central differences need at least 3 nodes")
    padded = values.take(grid._wrap, axis=-1)
    out = padded[..., 2:] - padded[..., :-2]
    out /= 2.0 * grid.spacing
    return out


def integrate_density(grid, values):
    """Quadrature sum_j w_j values_j over the node axis."""
    values = np.asarray(values, dtype=float)
    _SHAPES.check(grid, values=values)
    out = np.sum(values * grid.weights, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def gradient_fields(grid, values):
    """Spatial derivatives of per-node fields along each axis, (..., m, N).
    At m <= 1 every axis is the node axis, so this is a view of the one
    :func:`spatial_derivative`, with an empty axis at m = 0."""
    return spatial_derivative(grid, values)[..., None, :][..., :grid.m, :]


#: the fields of states (F frames at t (F,)) and variations (a stack of S),
#: a pairing's state, velocities and X and Y (one or a stack each, R and T)
_SHAPES = Shapes(**{
    "t": "F?", "u": "F? n N", "p_t": "F? n N", "p_x": "F? n m N",
    "pi": "F? n N", "k": "#S?", "du": "S? n N", "dp_t": "S? n N",
    "dp_x": "S? n m N", "dpi": "S? n N", "state.u": "F? n N",
    "state.p_x": "F? n m N", "dot.du": "F? n N", "dot.dp_x": "F? n m N",
    "X.k": "#S?", "X.du": "R? n N", "X.dp_x": "R? n m N", "Y.k": "#S?",
    "Y.du": "T? n N", "Y.dp_x": "T? n m N", "values": "... N"})

#: the fields of one frame, all of whose axes a model and a grid bind
_NODES = Shapes(u="n N", p_t="n N", p_x="n m N")

#: a pairing's X and Y at a stack of frames: single variations only
_SINGLE = Shapes(**{"X.du": "n N", "Y.du": "n N"})


class _Frames(Record):
    """Base of the states: t a float or (F,), finite fields as `_SHAPES`."""

    def __post_init__(self):
        _SHAPES.record(self)
        _finite(self, self._fields)


class CauchyState(_Frames):
    """Time value plus per-node fields (u, p_t, p_x); or F frames, with t
    of shape (F,) and each field on a leading frame axis, as
    :func:`run_simulation` returns them."""
    t: float
    u: np.ndarray      # (n, N)
    p_t: np.ndarray    # (n, N)
    p_x: np.ndarray    # (n, m, N)

    #: the :func:`_stages` that recovered p_x; set only by :func:`step_rk4`
    _stages = (None, None)


def take_frames(frames, index):
    """The frames ``index`` of a state of F frames, or the rows of a stack
    of variations: a slice or a list of indices gives a stack of those, one
    int a single one, negative ints counting from the end. A test set and
    an index out of range are refused (ModelError)."""
    if getattr(frames, "indicators", False):
        raise ModelError("cannot take rows of a test set")
    try:
        return type(frames)(*(getattr(frames, name)[index] for name in
                              frames._fields if name != "indicators"))
    except IndexError as exc:
        raise ModelError(f"cannot take frames {index}: {exc}") from exc


def frame_blocks(grid, count):
    """Slices of ``count`` frames in blocks of at most VERIFY_CHUNK
    frame-nodes, and at least one frame each."""
    size = max(1, VERIFY_CHUNK // grid.n_nodes)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _frame_samples(grid, t, *arrays):
    """(t, x, *arrays) of a pointwise model evaluation at the F N
    frame-nodes of arrays (F, ..., N), as independent samples: t (F,)
    repeated per node, the node coordinates per frame, and each array with
    the samples on its last axis, (..., F N). One frame, at a scalar t, is
    its N nodes: t repeated, the grid's x and the arrays as they are."""
    if not np.ndim(t):
        return (np.repeat(t, grid.n_nodes), grid.x, *arrays)
    F, N = len(t), grid.n_nodes
    return (np.repeat(t, N),
            np.repeat(grid.x[:, None], F, axis=1).reshape(grid.m, F * N),
            *(a.transpose((*range(1, a.ndim - 1), 0, a.ndim - 1))
              .reshape(a.shape[1:-1] + (F * N,)) for a in arrays))


def _sample_frames(values, t):
    """Inverse of :func:`_frame_samples` for a result over the samples at
    times t: values (..., F N) as an (F, ..., N) view, or at a scalar t
    one frame's values (..., N) as they are."""
    values = np.asarray(values, dtype=float)
    if not np.ndim(t):
        return values
    *lead, samples = values.shape
    return values.reshape(*lead, len(t), samples // len(t)).transpose(
        (len(lead), *range(len(lead)), len(lead) + 1))


class _Variation(Record):
    """Base of the variations; ``len`` counts the flagged indicators too."""

    def __post_init__(self):
        _SHAPES.record(self)

    def __len__(self):
        return len(self.k) + self.indicators * sum(
            a[0].size for a in _variation_parts(self))


class TangentVariation(_Variation):
    """Tangent vector to the Cauchy data space: time component k plus
    vertical per-node components; or a stack of S of them, k of shape (S,)
    and every component on the same leading axis. A stack used as a test
    set with ``indicators`` set also holds the unit node indicators on
    every component, which are never built (see :func:`covector_residual`);
    ``len`` counts them."""
    k: float
    du: np.ndarray     # (n, N), or (S, n, N)
    dp_t: np.ndarray   # (n, N), or (S, n, N)
    dp_x: np.ndarray   # (n, m, N), or (S, n, m, N)
    indicators: bool = False


def _variation_parts(X):
    """The per-node components of a variation of either space: its fields
    after k, up to the ``indicators`` flag."""
    return [getattr(X, name) for name in X._fields[1:-1]]


def recover_spatial_momenta(H, grid, u, p_t=None, t=0.0):
    """Solve the spatial constraint dH/dp^j_a = (D u^a)_j for p_x at every
    node by damped Newton, from the model's closed-form ``spatial_momenta``
    when it has one (then one check of dH/dp_x) and from zero otherwise,
    with the p_x block of ``H.momentum_jacobian`` as the per-node Jacobian
    when the model supplies one, central differences of dH/dp_x otherwise."""
    u = np.asarray(u, dtype=float)
    p_t = np.zeros_like(u) if p_t is None else np.asarray(p_t, dtype=float)
    return _stages(H, grid)[2](t, u, p_t)


def _stages(H, grid):
    """(H, grid, recover, rhs), bound once. ``recover(t, u, p_t)`` is p_x of
    float arrays (one tuple compare checks them, the contract words a
    refusal); ``rhs(t, u, p_t, p_x=None)`` is (u_dot, p_t_dot)."""
    _NODES.check(grid, H)     # a model for another m
    x, m = grid.x, grid.m
    shape = n, N = H.dims.n, grid.n_nodes
    partials, value = H._partials, H.value    # resolved at H's construction
    d_u, d_pt, d_px = partials["d_u"], partials["d_pt"], partials["d_px"]
    closed = H.has_closed_form_spatial_momenta and H.spatial_momenta
    jacobian = H.has_analytic_momentum_jacobian and H.momentum_jacobian

    def px_jacobian(*at):
        return jacobian(*at)["p_x"][:, 1:]

    def recover(t, u, p_t):
        if u.shape != shape or p_t.shape != shape:
            _NODES.check(grid, H, u=u, p_t=p_t)
        if not m:
            return np.zeros((n, 0, N))
        u_x = _central(grid, u)[:, None]
        at = t, x, u, p_t
        return _solve_nodewise(d_px, value, u_x, "momentum recovery", 2,
                               px_jacobian if jacobian else None,
                               closed(*at, u_x) if closed else None, at)

    def rhs(t, u, p_t, p_x=None):
        p_x = recover(t, u, p_t) if p_x is None else p_x
        at = t, x, u, p_t, p_x
        u_dot, p_t_dot = d_pt(*at), -d_u(*at)
        for j in range(m):
            p_t_dot = p_t_dot - _central(grid, p_x[:, j])
        return u_dot, p_t_dot

    return H, grid, recover, rhs


def _check_dt(dt):
    if not 0 < dt < np.inf:
        raise ModelError("dt must be positive and finite")


def _check_count(name, count, least):
    if not isinstance(count, numbers.Integral):
        raise ModelError(f"{name} must be an integer, got {count!r}")
    if count < least:
        raise ModelError(f"{name} must be >= {least}")


def _rk4_update(y, dt, k1, k2, k3, k4):
    """y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4) with the stage sum
    accumulated in place: the same operations in the same order, bit for
    bit, since floating-point + and * commute."""
    out = 2 * k2
    out += k1
    out += 2 * k3
    out += k4
    out *= dt / 6
    return y + out


def step_rk4(H, grid, state, dt):
    """Classical fourth-order Runge-Kutta step on (u, p_t), p_x recovered
    at every stage and on the returned state, which carries the stages: a
    step from it under the same H and grid object reuses them and its p_x;
    other states are checked first. run_simulation checks finiteness."""
    _check_dt(dt)
    t, u, p, p_x = state.t, state.u, state.p_t, state.p_x
    stages = state._stages
    if stages[0] is not H or stages[1] is not grid:
        _NODES.check(grid, H, u=u, p_t=p, p_x=p_x)
        stages, p_x = _stages(H, grid), None
    *_, recover, rhs = stages
    k1u, k1p = rhs(t, u, p, p_x)
    k2u, k2p = rhs(t + dt / 2, u + dt / 2 * k1u, p + dt / 2 * k1p)
    k3u, k3p = rhs(t + dt / 2, u + dt / 2 * k2u, p + dt / 2 * k2p)
    k4u, k4p = rhs(t + dt, u + dt * k3u, p + dt * k3p)
    u_new = _rk4_update(u, dt, k1u, k2u, k3u, k4u)
    p_new = _rk4_update(p, dt, k1p, k2p, k3p, k4p)
    t += dt
    p_x = recover(t, u_new, p_new)
    for values in (u_new, p_new, p_x):
        values.setflags(write=False)    # so the carried p_x cannot go stale
    out = object.__new__(CauchyState)       # no conversions or checks
    out.__dict__.update(t=t, u=u_new, p_t=p_new, p_x=p_x, _stages=stages)
    return out


def rhs_spectral_radius(H, grid, state):
    """Spectral radius of the method-of-lines right-hand side on (u, p_t)
    linearised at ``state``, estimated from below. The Jacobian J acts by
    central differences of the right-hand side; :data:`RHS_POWER_ITERATIONS`
    power iterations run on J^2, since a wave spectrum pairs +-i w of
    equal modulus. The iterates are orthogonalised and the largest Ritz
    value taken (Arnoldi; Saad, Numerical Methods for Large Eigenvalue
    Problems, ch. 6): within 4e-4 of the Klein-Gordon radius at N = 128
    to 1024, where the last iterate alone is up to 1 % low. A right-hand
    side that overflows near ``state`` has no radius to estimate: a
    non-finite Arnoldi matrix raises :class:`ModelError`."""
    stage = _stages(H, grid)[3]
    x0 = np.stack([state.u, state.p_t])
    eps = 1e-4 * max(1.0, float(np.abs(x0).max()))

    def rhs(x):
        return np.array(stage(state.t, *x))

    def jvp(v):
        return (rhs(x0 + eps * v) - rhs(x0 - eps * v)) / (2 * eps)

    v = np.random.default_rng(0).standard_normal(x0.shape)
    basis = [v / np.linalg.norm(v)]
    k = RHS_POWER_ITERATIONS
    hess = np.zeros((k + 1, k))
    # overflow shows as a non-finite matrix, refused below
    with np.errstate(all="ignore"):
        for j in range(k):
            w = jvp(jvp(basis[j]))
            for i, b in enumerate(basis):
                hess[i, j] = np.vdot(b, w)
                w = w - hess[i, j] * b
            hess[j + 1, j] = np.linalg.norm(w)
            if hess[j + 1, j] <= 1e-10 * np.abs(hess[:, j]).max():
                k = j + 1     # the Krylov space is exhausted
                break
            basis.append(w / hess[j + 1, j])
    if not np.isfinite(hess[:k, :k]).all():
        raise ModelError(f"the right-hand side linearised at "
                         f"t = {state.t:g} is not finite: no stability "
                         f"estimate")
    return float(np.sqrt(np.abs(np.linalg.eigvals(hess[:k, :k])).max()))


def _check_peak(step, **fields):
    """Raise :class:`BlowupError` naming ``step`` at the first field that
    is non-finite, or above :data:`BLOWUP_BOUND` in magnitude."""
    for name, values in fields.items():
        peak = np.maximum.reduce(np.abs(values), axis=None)
        if not peak < np.inf:
            raise BlowupError(f"non-finite {name} at step {step}")
        if peak > BLOWUP_BOUND:
            raise BlowupError(f"|{name}| exceeded {BLOWUP_BOUND:g} at step "
                              f"{step}")


def run_simulation(H, grid, state0, dt, n_steps, store_every=1):
    """Integrate ``n_steps`` RK4 steps and return the stored states as one
    :class:`CauchyState` of F frames: every ``store_every``-th, with the
    initial and final states always included. Each step's u and p_t pass
    :func:`_check_peak`. A state0 that does not fit H and the grid is
    refused before any step."""
    _check_dt(dt)
    _NODES.check(grid, H, u=state0.u, p_t=state0.p_t, p_x=state0.p_x)

    def step(k, state):
        state = step_rk4(H, grid, state, dt)
        _check_peak(k, u=state.u, p_t=state.p_t)
        return state

    return CauchyState(*_integrate(step, state0, CauchyState._values,
                                   n_steps, store_every))


def _integrate(step, y, fields, n_steps, store_every):
    """The driver of both flows: y_k = step(k, y_{k-1}) from y_0 = y up to
    n_steps, fields(y_k) stored at k = 0, n_steps and each store_every-th."""
    _check_count("n_steps", n_steps, 0)
    _check_count("store_every", store_every, 1)
    F = 1 - (-n_steps // store_every)   # 1 + ceil(n_steps / store_every)
    frames = [np.empty((F,) + np.shape(a)) for a in fields(y)]
    for k in range(n_steps + 1):   # k = 0 is the initial state
        y = step(k, y) if k else y
        if k % store_every == 0 or k == n_steps:
            for out, a in zip(frames, fields(y)):
                out[-(-k // store_every)] = a   # frame ceil(k / store_every)
    return frames


# -- presymplectic pairing ---------------------------------------------------

def _state_pairing_data(H, grid, state):
    """State-dependent fields of the pairing integrand, with a leading
    frame axis for F stacked frames; the H partials are evaluated once
    over all frame-nodes."""
    t, u, p_x = state.t, state.u, state.p_x
    args = _frame_samples(grid, t, u, state.p_t, p_x)
    return tuple(_sample_frames(f(*args), t)
                 for f in (H.d_u, H.d_pt, H.d_px)) \
        + (gradient_fields(grid, u), spatial_derivative(grid, p_x))


# The component axes are counted back from the node axis, so the same
# lines serve one variation and a stack of them (leading axis S), at one
# frame or at a stack of frames (leading axis F).

def _vertical_h(data, X):
    h_u, h_pt, h_px = data[:3]
    return (np.sum(h_u * X.du, axis=-2) + np.sum(h_pt * X.dp_t, axis=-2)
            + np.sum(h_px * X.dp_x, axis=(-3, -2)))


def _momentum_bracket(data, X):
    du_grid, dpx_grid = data[3:]
    return (np.sum(X.dp_x * du_grid, axis=(-3, -2))
            - np.sum(X.du[..., None, :] * dpx_grid, axis=(-3, -2)))


def presymplectic_pairing(H, grid, state, X, Y, _data=None):
    """Pairing of two tangent variations at a state; bilinear and exactly
    antisymmetric by construction. X and Y may also be stacks of S
    variations each: the result is then the (S,) array of the pairings of
    X[s] with Y[s], each equal to its single pairing bit for bit. A state
    of F frames pairs single variations only, into the (F,) array of each
    frame's pairing. Refuses variations that do not fit the state."""
    _SHAPES.check(grid, H, state=state, X=X, Y=Y)
    if np.ndim(state.t):
        _SINGLE.check(grid, H, X=X, Y=Y)
    data = _state_pairing_data(H, grid, state) if _data is None else _data
    k_x, k_y = np.asarray(X.k)[..., None], np.asarray(Y.k)[..., None]
    # grouped so that swapping X and Y negates every floating-point term
    t_energy = _vertical_h(data, X) * k_y - _vertical_h(data, Y) * k_x
    t_canonical = np.sum(X.du * Y.dp_t - X.dp_t * Y.du, axis=-2)
    t_momentum = k_x * _momentum_bracket(data, Y) \
        - k_y * _momentum_bracket(data, X)
    return integrate_density(grid, (t_energy + t_canonical) + t_momentum)


def pairing_covector(grid, data, X):
    """Contraction i_X of the pairing, from ``_state_pairing_data``: the
    per-node covector (c_u, c_pt, c_px) and the scalar c_k with

        pairing(X, Y) = integral of (c_u Y_u + c_pt Y_pt + c_px . Y_px)
                        + c_k k_Y

    for every Y."""
    h_u, h_pt, h_px, du_grid, dpx_grid = data
    c_u = -X.k * h_u - X.dp_t - X.k * np.sum(dpx_grid, axis=-2)
    c_pt = X.du - X.k * h_pt
    c_px = X.k * (du_grid - h_px)
    c_k = integrate_density(grid, _vertical_h(data, X)
                            - _momentum_bracket(data, X))
    return (c_u, c_pt, c_px), c_k


def covector_residual(grid, covector, c_k, test_set):
    """max over a test set, a nonempty stack of variations Y of either
    space, of |pairing(X, Y)| / (1 + |Y|), with the pairing given by i_X
    as a covector (one per-node array per component of Y) and a time
    coefficient ``c_k``, and |Y| = sqrt(k^2 + integral of the squared
    components). With a leading frame axis F on the covector and c_k of
    shape (F,), the result is the (F,) array of each frame's residual.

    Each frame's contraction is one BLAS gemv, ``np.dot`` of the (S, K)
    test matrix with the frame's K covector entries, so a stack of frames
    gives each frame's residual bit for bit (one gemm over the stack would
    not). The unit indicator on component c at node j pairs to w_j c[j]
    and has norm sqrt(w_j), so when the set includes the indicators their
    maximum is taken in closed form and they are never built: O(N) per
    frame."""
    if np.ndim(test_set.k) != 1 or not len(test_set.k):
        raise ModelError("test_set must be a nonempty stack of variations")
    w = grid.weights
    single = np.ndim(c_k) == 0
    c_k = np.reshape(c_k, (-1, 1))
    values = c_k * test_set.k
    norms = test_set.k ** 2
    worst = 0.0
    for c, Y in zip(covector, _variation_parts(test_set)):
        norms = norms + integrate_density(
            grid, np.sum(Y ** 2, axis=tuple(range(1, Y.ndim - 1))))
        cw = c * w
        tests = Y.reshape(len(Y), -1)
        values = values + np.array(
            [np.dot(tests, row) for row in cw.reshape(len(c_k), -1)])
        if test_set.indicators:
            worst = np.maximum(worst, np.max(
                np.abs(cw) / (1.0 + np.sqrt(w)),
                axis=tuple(range(cw.ndim - Y.ndim + 1, cw.ndim)),
                initial=0.0))
    dense = np.max(np.abs(values) / (1.0 + np.sqrt(norms)), axis=-1,
                   initial=0.0)
    out = np.maximum(worst, dense)
    return float(out[0]) if single else out


def dynamical_trajectory_residual(H, grid, state, state_dot, test_set):
    """max over test variations of |pairing(c_dot, xi)| / (1 + |xi|) with
    the trajectory velocity assembled from ``state_dot`` and k = 1.

    ``state_dot`` is (u_dot, p_t_dot, p_x_dot), shaped as the state's
    fields; ``test_set`` is a nonempty stack of variations. A state of F
    stacked frames with velocities on the same leading axis gives the (F,)
    array of each frame's residual, bit for bit. Refuses velocities that
    are not finite or not shaped as the fields, and test variations not
    shaped as one frame of them.
    """
    c_dot = TangentVariation(1.0, *state_dot)
    _SHAPES.check(grid, H, state=state, dot=c_dot, Y=test_set)
    _finite(c_dot, ("du", "dp_t", "dp_x"))
    covector, c_k = pairing_covector(
        grid, _state_pairing_data(H, grid, state), c_dot)
    return covector_residual(grid, covector, c_k, test_set)


#: frames the five-point time derivative of a residual check needs
MIN_CHECKED_FRAMES = 5


def checked_frames(times):
    """Frame spacing of K uniformly stored frames and the indices a
    residual check visits: every (K // 32)-th and the last."""
    times = np.asarray(times, dtype=float)
    K = len(times)
    if K < MIN_CHECKED_FRAMES:
        raise ModelError(f"need at least {MIN_CHECKED_FRAMES} stored frames")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt):
        raise ModelError("frames must be uniformly spaced in time")
    idx = list(range(0, K, max(1, K // 32)))
    if idx[-1] != K - 1:
        idx.append(K - 1)
    return dt, idx


# -- test variation sets -----------------------------------------------------

def _smooth_profile(grid, rng, n):
    """Random smooth per-node field of amplitude VARIATION_SCALE built
    from the 4 lowest Fourier modes; the draw sequence is grid-independent
    so refinement studies sample the same underlying functions."""
    if grid.m == 0:
        return rng.normal(scale=VARIATION_SCALE, size=(n, 1))
    xs = grid.x[0] / grid.length
    out = np.zeros((n, grid.n_nodes))
    for a in range(n):
        coeffs = rng.normal(size=(4, 2))
        for mode in range(4):
            sigma = VARIATION_SCALE / (1.0 + mode) ** 2
            ca, cb = sigma * coeffs[mode]
            if mode == 0:
                out[a] += ca
            else:
                out[a] += ca * np.cos(2 * np.pi * mode * xs) \
                    + cb * np.sin(2 * np.pi * mode * xs)
    return out


def random_smooth_variation(grid, n, rng, vertical=True, count=1):
    """A stack of ``count`` random smooth variations, drawn one after the
    other: k (unless ``vertical``, which leaves k = 0), then du, dp_t and
    each dp_x[:, j] as :func:`_smooth_profile`."""
    k = np.zeros(count)
    du, dp_t = np.empty((2, count, n, grid.n_nodes))
    dp_x = np.empty((count, n, grid.m, grid.n_nodes))
    for s in range(count):
        if not vertical:
            k[s] = rng.normal(scale=VARIATION_SCALE)
        du[s] = _smooth_profile(grid, rng, n)
        dp_t[s] = _smooth_profile(grid, rng, n)
        for j in range(grid.m):
            dp_x[s, :, j] = _smooth_profile(grid, rng, n)
    return TangentVariation(k, du, dp_t, dp_x)


def probe_profiles(grid):
    """Constant and (m = 1) first-harmonic profiles of the probes."""
    profiles = [np.full(grid.n_nodes, VARIATION_SCALE)]
    if grid.m == 1:
        xs = grid.x[0] / grid.length
        profiles.append(VARIATION_SCALE * np.sin(2 * np.pi * xs))
        profiles.append(VARIATION_SCALE * np.cos(2 * np.pi * xs))
    return profiles


def _probe_rows(grid, n, channels):
    """The probes of a test set whose variations have ``channels``
    per-node components per field, as one array (P n channels, n,
    channels, N): for each probe profile, each field a and each channel c
    in turn, the variation whose component c of field a is the profile,
    zero elsewhere."""
    profiles = probe_profiles(grid)
    R, N = n * channels, grid.n_nodes
    rows = np.zeros((len(profiles), R, R, N))
    rows[:, range(R), range(R)] = np.array(profiles)[:, None]
    return rows.reshape(-1, n, channels, N)


def standard_test_variations(grid, n, rng=None):
    """Deterministic probes, node indicators and 8 seeded random smooth
    variations; the default vertical test set used by residual checks.

    The constant and first-harmonic probes on each field block make
    residual detection independent of the random draws. The probes and
    random draws are one stack of O(N) bytes; the indicators are only
    flagged, never built."""
    if n < 1:
        raise ModelError(f"a test set needs n >= 1 fields, got {n}")
    rng = rng if rng is not None else np.random.default_rng(0)
    probes = _probe_rows(grid, n, 2 + grid.m)
    draws = random_smooth_variation(grid, n, rng, count=8)
    return TangentVariation(
        np.zeros(len(probes) + 8),
        *(np.concatenate([p, d]) for p, d in zip(
            (probes[:, :, 0], probes[:, :, 1], probes[:, :, 2:]),
            (draws.du, draws.dp_t, draws.dp_x))), indicators=True)


def frame_velocities(frames, dt, fields=("u", "p_t", "p_x")):
    """:func:`time_derivative_frames` of each named field of a state of F
    uniformly stored frames, one array per field."""
    return [time_derivative_frames(getattr(frames, name), dt)
            for name in fields]


def time_derivative_frames(frames, dt):
    """Fourth-order finite-difference time derivative of stored frames.

    ``frames`` has the frame index first; interior points use the central
    five-point stencil, the first and last two frames use shifted
    five-point stencils of the same order. Needs at least five frames.
    """
    frames = np.asarray(frames, dtype=float)
    K = frames.shape[0]
    if K < MIN_CHECKED_FRAMES:
        raise ModelError(f"need at least {MIN_CHECKED_FRAMES} frames for "
                         f"time differencing")
    out = np.empty_like(frames)
    c = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    out[2:K - 2] = sum(c[i] * frames[i:K - 4 + i] for i in range(5))
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    fwd1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    out[0] = sum(fwd[i] * frames[i] for i in range(5))
    out[1] = sum(fwd1[i] * frames[i] for i in range(5))
    out[K - 1] = -sum(fwd[i] * frames[K - 1 - i] for i in range(5))
    out[K - 2] = -sum(fwd1[i] * frames[K - 1 - i] for i in range(5))
    return out / dt
