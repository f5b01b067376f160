"""Hamilton-Jacobi sections and characteristic integration.

A Hamilton-Jacobi section assigns momenta to configuration points,

    (t, x, u) -> (gamma_p, gamma_pt, gamma_px),

with gamma_p the affine slot. Verification is residual-based:

* closedness of the section as a form (component symmetry in u plus the
  mixed du-dt-dx component),
* the pointwise Hamilton-Jacobi condition

      H_u + H_px . d(gamma_px)/du + H_pt . d(gamma_pt)/du
          + d(gamma_px)/dx + d(gamma_pt)/dt = 0

  with H-partials evaluated at the lifted point,
* flatness of the induced connection Gamma_i = dH/dp_i composed with the
  section.

For a verified section, the field equations reduce to the decoupled
per-node characteristic ODE du/dt = Gamma_0(t, x, u); lifting the
characteristic flow back by the section reproduces a solution of the full
first-order system, which `hj_lift_solution_check` certifies through the
Cauchy-space pairing residuals.
"""

import numpy as np

from .cauchy import (_NODES, _SHAPES, CauchyState, TangentVariation,
                     _check_dt, _check_peak, _frame_samples, _integrate,
                     _rk4_update, _sample_frames, _state_pairing_data,
                     checked_frames, covector_residual, frame_blocks,
                     frame_velocities, gradient_fields, pairing_covector,
                     presymplectic_pairing, random_smooth_variation,
                     standard_test_variations, take_frames)
from .legendre import ConnectionCoefficients
from .models import (_POINT, _SAMPLES, DedonderError, ModelError, Record,
                     RefusedResidual, central_difference)


class GammaDomainError(DedonderError, ValueError):
    """Section evaluated outside its admissible domain (e.g. near a pole)."""


class IncompatibleDataError(RefusedResidual):
    """Initial data is not an integral submanifold of the restricted
    connection; certification refused."""
    what = "initial data incompatible with the restricted connection"


class HJSection:
    """Momentum-valued section with partial-derivative access.

    Component callables take ``(t, x, u)``, with u a float array, and
    broadcast over a trailing axis, which holds grid nodes (t scalar,
    x (m, N), u (n, N)) or independent samples (t (P,), x (m, P),
    u (n, P)): ``pt -> (n, ...)``, ``px -> (n, m, ...)``, ``p -> (...)``.
    ``momenta``, ``p`` and ``partials`` check the domain with t as given
    and return float arrays. Analytic partials may be supplied via the
    ``partials`` hook returning a dict with keys

        "pt_t" (n,...), "pt_x" (n,m,...), "pt_u" (n,n,...),
        "px_t" (n,m,...), "px_x" (n,m,m,...), "px_u" (n,m,n,...),
        "p_u" (n,...)

    otherwise central finite differences of the components are used.
    """

    name = "the section"    # in the shape contract's refusals

    def __init__(self, dims, pt, px, p=None, partials=None,
                 domain_guard=None):
        self.dims = dims
        self._pt = pt
        self._px = px
        self._p = p if p is not None else \
            (lambda t, x, u: np.zeros(u.shape[1:]))
        self._partials = partials
        self._guard = domain_guard

    def _check(self, t):
        if self._guard is not None:
            self._guard(t)

    def _component(self, f, t, x, u):
        self._check(t)
        return np.asarray(f(t, x, np.asarray(u, dtype=float)), dtype=float)

    def momenta(self, t, x, u):
        """The lift (gamma_pt, gamma_px) of (t, x, u)."""
        self._check(t)
        u = np.asarray(u, dtype=float)
        return (np.asarray(self._pt(t, x, u), dtype=float),
                np.asarray(self._px(t, x, u), dtype=float))

    def p(self, t, x, u):
        return self._component(self._p, t, x, u)

    def partials(self, t, x, u):
        self._check(t)
        u = np.asarray(u, dtype=float)
        if self._partials is not None:
            return {key: np.asarray(value, dtype=float)
                    for key, value in self._partials(t, x, u).items()}
        return {f"{name}_{var}": central_difference(
                    lambda *a, f=f: self._component(f, *a), (t, x, u), wrt,
                    comp_axes=min(wrt, 1))
                for name, f in (("pt", self._pt), ("px", self._px),
                                ("p", self._p))
                for wrt, var in enumerate("txu") if name != "p" or var == "u"}


# -- built-in section families ----------------------------------------------

def linear_gamma(dims, a, b=0.0, c=0.0, d=0.0, p_const=0.0):
    """gamma_pt = a u + b, gamma_px = c u + d (componentwise), gamma_p
    constant. Closed for any parameters."""
    n, m = dims.n, dims.m
    a, b, c, d, p_const = (float(v) for v in (a, b, c, d, p_const))

    def pt(t, x, u):
        return a * u + b

    def px(t, x, u):
        return np.broadcast_to((c * u + d)[:, None], (n, m) + u.shape[1:]).copy()

    def p(t, x, u):
        return np.full(u.shape[1:], p_const)

    def partials(t, x, u):
        tail = u.shape[1:]
        eye = np.eye(n).reshape((n, n) + (1,) * len(tail))
        return {
            "pt_t": np.zeros((n,) + tail),
            "pt_x": np.zeros((n, m) + tail),
            "pt_u": a * eye * np.ones((1, 1) + tail),
            "px_t": np.zeros((n, m) + tail),
            "px_x": np.zeros((n, m, m) + tail),
            "px_u": (c * eye)[:, None] * np.ones((1, m, 1) + tail),
            "p_u": np.zeros((n,) + tail),
        }

    return HJSection(dims, pt, px, p=p, partials=partials)


#: distance from a pole of tan within which the oscillator section refuses
POLE_TOL = 1e-3


def oscillator_gamma(dims, omega, phi=0.0):
    """gamma_pt = a(t) u with a(t) = -omega tan(omega t + phi), gamma_px = 0
    and gamma_p = a'(t) |u|^2 / 2, which makes the section closed.

    Solves the Hamilton-Jacobi condition for the oscillator (m = 0) and
    for the mass-omega Klein-Gordon model (m = 1) since a' + a^2 + omega^2
    = 0. Evaluation refuses within :data:`POLE_TOL` of the poles of tan.
    """
    n, m = dims.n, dims.m
    omega = float(omega)
    phi = float(phi)

    def guard(t):
        if omega == 0.0:
            return
        z = omega * t + phi
        w = (z - np.pi / 2.0) % np.pi
        if isinstance(w, float):
            if min(w, np.pi - w) >= POLE_TOL:
                return
        else:
            near = np.ravel(np.minimum(w, np.pi - w) < POLE_TOL)
            if not near.any():
                return
            z = np.ravel(z)[np.argmax(near)]    # first offending sample
        raise GammaDomainError(
            f"oscillator section evaluated within {POLE_TOL:g} of a "
            f"tan pole (omega t + phi = {z:.6f})")

    def a(t):
        return -omega * np.tan(omega * t + phi)

    def a_prime(t):
        return -omega ** 2 / np.cos(omega * t + phi) ** 2

    def pt(t, x, u):
        return a(t) * u

    def px(t, x, u):
        return np.zeros((n, m) + u.shape[1:])

    def p(t, x, u):
        return 0.5 * a_prime(t) * np.sum(u ** 2, axis=0)

    def partials(t, x, u):
        tail = u.shape[1:]
        eye = np.eye(n).reshape((n, n) + (1,) * len(tail))
        return {
            "pt_t": a_prime(t) * u,
            "pt_x": np.zeros((n, m) + tail),
            "pt_u": a(t) * eye * np.ones((1, 1) + tail),
            "px_t": np.zeros((n, m) + tail),
            "px_x": np.zeros((n, m, m) + tail),
            "px_u": np.zeros((n, m, n) + tail),
            "p_u": a_prime(t) * u,
        }

    return HJSection(dims, pt, px, p=p, partials=partials,
                     domain_guard=guard)


GAMMA_FAMILIES = ("linear", "oscillator")


def gamma_family(name, dims, params=None):
    """Construct a named section family; used by scenario configs."""
    params = dict(params or {})
    if name == "linear":
        gamma = linear_gamma(dims, a=params.pop("a", 0.0),
                             b=params.pop("b", 0.0), c=params.pop("c", 0.0),
                             d=params.pop("d", 0.0),
                             p_const=params.pop("p_const", 0.0))
    elif name == "oscillator":
        gamma = oscillator_gamma(dims, omega=params.pop("omega", 1.0),
                                 phi=params.pop("phi", 0.0))
    else:
        raise ModelError(f"unknown gamma family {name!r}; known: "
                         + ", ".join(GAMMA_FAMILIES))
    if params:
        raise ModelError(f"unused parameters for {name}: {sorted(params)}")
    return gamma


# -- verification residuals ---------------------------------------------------

class ClosednessResidual(Record):
    """Exterior-derivative components of the section, sample axis first."""
    symmetry_t: np.ndarray    # (P, n, n): d(gamma_pt_a)/du_b antisymmetrized
    symmetry_x: np.ndarray    # (P, m, n, n)
    mixed: np.ndarray         # (P, n): d(gamma_p)/du - d_t gamma_pt - d_x gamma_px

    def max_abs(self):
        return float(np.max(self.per_sample(), initial=0.0))

    def per_sample(self):
        """Largest absolute component at each sample, shape (P,)."""
        parts = (self.symmetry_t, self.symmetry_x, self.mixed)
        return np.max([np.max(np.abs(a), axis=tuple(range(1, a.ndim)),
                              initial=0.0) for a in parts], axis=0)


def gamma_closedness_residual(gamma, t, x=None, u=None):
    """Closedness residuals of the section, sample axis first.

    Called as ``(gamma, t, x, u)`` with t of shape (P,), x (m, P) and
    u (n, P), one evaluation of the section partials covers all P samples;
    a scalar t with x (m,) and u (n,) is one sample (P = 1). Called as
    ``(gamma, samples)`` with a list of (t, x, u) points, the points are
    stacked along the sample axis; each is checked as one point before.
    Samples of other shapes are refused (ModelError).
    """
    n, m = gamma.dims.n, gamma.dims.m
    if x is None:
        points = t
        for p in points:
            _POINT.check(None, gamma, t=p[0], x=p[1], u=p[2])
        t = np.array([p[0] for p in points], dtype=float)
        x = np.array([p[1] for p in points], dtype=float).reshape(len(t), m).T
        u = np.array([p[2] for p in points], dtype=float).reshape(len(t), n).T
    x, u = _SAMPLES.floats(None, gamma, t=t, x=x, u=u)[1:]
    P = u[0].size

    def samples_first(a):
        return np.moveaxis(a.reshape(a.shape[:a.ndim - u.ndim + 1] + (P,)),
                           -1, 0)

    d = gamma.partials(t, x, u)
    pt_u = d["pt_u"]                                      # (n, n, ...)
    px_u = np.moveaxis(d["px_u"], 1, 0)                   # (m, n, n, ...)
    mixed = d["p_u"] - d["pt_t"] - np.einsum("ajj...->a...", d["px_x"])
    return ClosednessResidual(
        symmetry_t=samples_first(pt_u - np.swapaxes(pt_u, 0, 1)),
        symmetry_x=samples_first(px_u - np.swapaxes(px_u, 1, 2)),
        mixed=samples_first(mixed))


def _check_pair(H, gamma):
    """Refuse a Hamiltonian and a section of different dimensions."""
    if H.dims != gamma.dims:
        raise ModelError(f"{H.name} is for m = {H.dims.m}, n = {H.dims.n}, "
                         f"the section for m = {gamma.dims.m}, "
                         f"n = {gamma.dims.n}")


def hj_residual(H, gamma, t, x, u):
    """Hamilton-Jacobi residual per field component, shape (n, ...).

    t, x and u may carry a trailing sample axis: t (P,), x (m, P),
    u (n, P) give a residual of shape (n, P), evaluated with one call to
    each section and Hamiltonian partial; a scalar t with x (m,) and u (n,)
    gives one point's (n,). Samples of other shapes are refused
    (ModelError). Zero together with closedness certifies the section as a
    solution of the Hamilton-Jacobi condition for H.
    """
    _check_pair(H, gamma)
    x, u = _SAMPLES.floats(None, gamma, t=t, x=x, u=u)[1:]
    args = (t, x, u) + gamma.momenta(t, x, u)
    h_u = H.d_u(*args)
    h_pt = H.d_pt(*args)
    h_px = H.d_px(*args)
    d = gamma.partials(t, x, u)
    res = h_u.astype(float).copy()
    res += np.einsum("b...,ba...->a...", h_pt, d["pt_u"])
    res += np.einsum("bj...,bja...->a...", h_px, d["px_u"])
    res += np.einsum("ajj...->a...", d["px_x"])
    res += d["pt_t"]
    return res


def reduced_connection(H, gamma):
    """Connection on the configuration bundle induced by the section:
    Gamma^a_i = dH/dp^i_a at the lifted point (time slot first). Partials
    come from the chain rule when both H and the section expose them; like
    both, they broadcast over a trailing sample axis of (t, x, u)."""
    _check_pair(H, gamma)

    def coefficients(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return H.d_momenta(t, x, u, *gamma.momenta(t, x, u))

    def partials(t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        J = H.momentum_jacobian(t, x, u, *gamma.momenta(t, x, u))
        g = gamma.partials(t, x, u)
        J_pt, J_px = J["p_t"], J["p_x"]

        def chain(explicit, d_pt, d_px, k=""):
            # derivative along t, or along every x^k or u^k as the free
            # index k: the explicit part plus the momentum Jacobian against
            # the section's derivative
            out = explicit + np.einsum(f"aib...,b{k}...->ai{k}...", J_pt, d_pt)
            out += np.einsum(f"aibj...,bj{k}...->ai{k}...", J_px, d_px)
            return out

        return {"t": chain(J["t"], g["pt_t"], g["px_t"]),
                "x": chain(J["x"], g["pt_x"], g["px_x"], "k"),
                "u": chain(J["u"], g["pt_u"], g["px_u"], "k")}

    return ConnectionCoefficients(H.dims, coefficients, partials=partials)


def restricted_connection_residual(H, gamma, grid, u, t):
    """Per-node residual (D u^a)_j - Gamma^a_j(t, x_j, u_j); zero means the
    field is an integral submanifold of the fixed-time restricted
    connection. Empty, shape (n, 0, 1), for m = 0. Refuses (GridError) a
    section or u that does not fit the grid, and (ModelError) H and a
    section of different dimensions."""
    _check_pair(H, gamma)
    u, = _NODES.floats(grid, gamma, u=u)
    gamma_x = H.d_px(t, grid.x, u, *gamma.momenta(t, grid.x, u))  # (n, m, N)
    return gradient_fields(grid, u) - gamma_x


def check_compatibility(H, gamma, grid, u, t):
    """Largest entry of :func:`restricted_connection_residual`; raises
    :class:`IncompatibleDataError` above 10 h^2 or when not a number (a
    section with NaN momenta), and ModelError for a non-finite u. Finite
    data at m = 0 have an empty residual, so they pass wherever the
    section evaluates."""
    compat = restricted_connection_residual(H, gamma, grid, u, t)
    if not np.isfinite(u).all():
        raise ModelError("non-finite field u")
    residual = float(np.max(np.abs(compat), initial=0.0))
    tol = 10.0 * grid.spacing ** 2
    if not residual <= tol:
        raise IncompatibleDataError(residual, tol)
    return residual


def evolve_characteristics(H, gamma, grid, u0, t0, dt, t_final,
                           store_every=1):
    """Integrate the per-node characteristic ODE du/dt = Gamma_0(t, x, u)
    with RK4; no spatial coupling enters. Returns (times, u_frames); a
    non-finite u0 or a blow-up is refused as by ``cauchy.run_simulation``."""
    _check_pair(H, gamma)
    _check_dt(dt)
    if not -np.inf < t0 <= t_final < np.inf:
        raise ModelError("t0 and t_final must be finite, t_final >= t0")
    u, = _NODES.floats(grid, gamma, u=u0)
    if not np.isfinite(u).all():
        raise ModelError("non-finite field u")
    n_steps = int(round((t_final - t0) / dt))
    if abs(t0 + n_steps * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ModelError("t_final - t0 must be an integer number of steps")

    def rhs(t, uu):
        return H.d_pt(t, grid.x, uu, *gamma.momenta(t, grid.x, uu))

    def step(k, y):
        t, u = y
        k1 = rhs(t, u)
        k2 = rhs(t + dt / 2, u + dt / 2 * k1)
        k3 = rhs(t + dt / 2, u + dt / 2 * k2)
        k4 = rhs(t + dt, u + dt * k3)
        u = _rk4_update(u, dt, k1, k2, k3, k4)
        _check_peak(k, u=u)
        return t0 + k * dt, u

    return tuple(_integrate(step, (t0, u), tuple, n_steps, store_every))


def lift_by_gamma(gamma, t, grid, u):
    """Cauchy state with momenta read off the section at every node: one
    frame at a time t, with u (n, N), or F frames at times t (F,), with u
    (F, n, N), whose F N frame-nodes are then the samples of one section
    evaluation. Refuses (GridError) a section or u that does not fit the
    grid."""
    u = _SHAPES.floats(grid, gamma, t=t, u=u)[1]
    p_t, p_x = (np.ascontiguousarray(_sample_frames(p, t)) for p in
                gamma.momenta(*_frame_samples(grid, t, u)))
    return CauchyState(t, u, p_t, p_x)


def _lift_with(d, k, du):
    """Pushforward of a configuration-space variation (k, du) at u through
    the section lift, from the section partials ``d`` at the N nodes of u:
    momenta vary by k d_t gamma + d_u gamma . du. A scalar k with du
    (n, N) gives one variation, k (S,) with du (S, n, N) a stack of S.
    Partials of F frames on a leading axis, with du (F, n, N), lift at
    each frame."""
    du = np.asarray(du, dtype=float)
    k_t = np.asarray(k)[..., None, None]
    dpt = k_t * d["pt_t"] + np.einsum("...abN,...bN->...aN", d["pt_u"], du)
    dpx = k_t[..., None] * d["px_t"] \
        + np.einsum("...ajbN,...bN->...ajN", d["px_u"], du)
    return TangentVariation(k, du, dpt, dpx)


class HJLiftReport(Record):
    """Residual classes of a lifted characteristic trajectory."""
    compatibility_residual: float
    split_residual: float         # field-equation residual of the lifted curve
    contraction_residual: float   # pairing of the lifted horizontal generator
    pullback_residual: float      # pairing of two lifted variations
    frames_checked: int


def hj_lift_solution_check(H, gamma, grid, times, u_frames, rng=None):
    """Certify a characteristic trajectory by lifting it with the section
    and measuring three residual classes against the pairing: over the
    standard test set, and for 8 pairs of lifted random variations.

    The frames are lifted in one pass (:func:`lift_by_gamma`). The split
    and contraction residuals are computed once per block of checked
    frames (:func:`cauchy.frame_blocks`), the section partials once over
    the block's frame-nodes; the pullback pairs are one stacked pairing
    per frame. Refuses (raises :class:`IncompatibleDataError`) when the
    initial frame fails :func:`check_compatibility`, which also refuses H
    and a section of different dimensions.
    """
    times = np.asarray(times, dtype=float)
    u_frames = np.asarray(u_frames, dtype=float)
    n = u_frames.shape[1]
    dt, idx = checked_frames(times)
    compat_res = check_compatibility(H, gamma, grid, u_frames[0], times[0])

    rng = rng if rng is not None else np.random.default_rng(0)
    test_set = standard_test_variations(grid, n, rng=rng)
    lifted = lift_by_gamma(gamma, times, grid, u_frames)
    velocities = [v[idx] for v in frame_velocities(lifted, dt)]

    split = 0.0
    contraction = 0.0
    pullback = 0.0
    # 8 pairs (V, W) of random variations, drawn V, W, V, W, ... as one
    # stack: one lift of each half and one pairing per frame
    draws = random_smooth_variation(grid, n, rng, vertical=False, count=16)
    for block in frame_blocks(grid, len(idx)):
        frames = take_frames(lifted, idx[block])
        data = _state_pairing_data(H, grid, frames)
        d = {key: _sample_frames(value, frames.t) for key, value in
             gamma.partials(*_frame_samples(grid, frames.t,
                                            frames.u)).items()}
        c_dot = TangentVariation(1.0, *(v[block] for v in velocities))
        split = np.maximum(split, np.max(covector_residual(
            grid, *pairing_covector(grid, data, c_dot), test_set)))
        # horizontal generator: du = Gamma_0 = H_pt at the lifted point
        X = _lift_with(d, 1.0, data[1])
        contraction = np.maximum(contraction, np.max(covector_residual(
            grid, *pairing_covector(grid, data, X), test_set)))
        for f in range(len(frames.t)):
            d_f = {key: value[f] for key, value in d.items()}
            V, W = (_lift_with(d_f, draws.k[i::2], draws.du[i::2])
                    for i in (0, 1))
            pairings = presymplectic_pairing(
                H, grid, take_frames(frames, f), V, W,
                _data=tuple(a[f] for a in data))
            pullback = np.maximum(pullback, np.max(np.abs(pairings)))
    return HJLiftReport(compatibility_residual=compat_res,
                        split_residual=float(split),
                        contraction_residual=float(contraction),
                        pullback_residual=float(pullback),
                        frames_checked=len(idx))
