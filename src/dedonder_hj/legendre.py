"""Point-level variational calculus.

Momentum maps from velocities (p_t = dL/du_t, p_x = dL/du_x and the affine
slot p = L - sum_i (dL/du_i) u_i), their Newton inversion for regular
Lagrangians, the induced Hamiltonian H = sum_i p_i u_i - L, residuals of
the Euler-Lagrange and first-order Hamiltonian field equations along
sections, and the curvature residual of a connection on the configuration
bundle.
"""

import math

import numpy as np

from .models import (_SAMPLES, DEFAULT_FD_STEP, DedonderError, Dimensions,
                     ExtendedMomentumSample, HamiltonianModel, JetSample,
                     ModelError, Record, ReducedMomentumSample, Shapes,
                     _partial, _resolved, central_difference, pack_velocities,
                     unpack_velocities)

REGULARITY_TOL = 1e-10
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
_FD_NOISE_FACTOR = 100.0


class NewtonError(DedonderError, RuntimeError):
    """Newton iteration failed: singular system or no convergence."""
    exit_code = 3


def legendre_extended(L, jet):
    """Velocity-to-momentum map including the affine slot.

    p_t = dL/du_t,  p_x = dL/du_x,  p = L - dL/du_t . u_t - dL/du_x . u_x
    """
    if jet.dims != L.dims:
        raise ModelError("jet dimensions do not match model")
    args = (jet.t, jet.x, jet.u, jet.u_t, jet.u_x)
    value = float(L.value(*args))
    p_t = L.d_ut(*args)
    p_x = L.d_ux(*args)
    p = value - float(np.dot(p_t, jet.u_t)) - float(np.sum(p_x * jet.u_x))
    return ExtendedMomentumSample(jet.t, jet.x, jet.u, p, p_t, p_x, jet.dims)


def legendre_reduced(L, jet):
    """The extended map with the affine slot dropped."""
    return legendre_extended(L, jet).reduced()


class RegularityReport(Record):
    determinant: float
    condition: float
    is_regular: bool
    tolerance: float


def regularity_check(L, jet):
    """Determinant and condition estimate of the velocity Hessian, regular
    when |det| >= REGULARITY_TOL."""
    H = np.asarray(L.velocity_hessian(jet.t, jet.x, jet.u, jet.u_t, jet.u_x))
    det = float(np.linalg.det(H))
    cond = float(np.linalg.cond(H))
    return RegularityReport(determinant=det, condition=cond,
                            is_regular=abs(det) >= REGULARITY_TOL,
                            tolerance=REGULARITY_TOL)


def _fd_noise_floor(value):
    """Smallest residual a gradient of ``value`` by central differences of
    step DEFAULT_FD_STEP resolves: the roundoff eps |value| of each
    evaluation divided by the step, with |value| at least 1, times
    _FD_NOISE_FACTOR (Kelley, Solving Nonlinear Equations with Newton's
    Method, ch. 1-2)."""
    scale = max(1.0, float(np.max(np.abs(value))))
    return _FD_NOISE_FACTOR * np.finfo(float).eps * scale / DEFAULT_FD_STEP


def _solve_nodewise(g, value, target, what, comp_axes, jacobian=None,
                    start=None, args=()):
    """Damped Newton iteration for g(*args, v) = target from v = ``start``,
    or v = 0 when None, to NEWTON_TOL in the max norm within
    NEWTON_MAX_ITER steps; a start within NEWTON_TOL is returned as it is,
    after one evaluation of g and no Jacobian.

    The first ``comp_axes`` axes of v are the unknowns of one node; any
    further axes are nodes, and unknowns couple only within a node (no
    further axes: one node). The per-node Jacobians come from
    ``jacobian(*args, v)`` when given, where one without node axes serves
    every node, and are central differences of g in v otherwise; one
    unknown per node is a division, more a batched solve. Each step is
    halved, up to 30 times, until the residual decreases; ``what`` names
    the solve in errors. When the full step does not decrease it, v is
    returned if its residual is within the finite-difference noise of g, a
    partial of the model function ``value(*args, v)``: no shorter step can
    resolve more. A residual that is not finite has no solution to
    converge to: v comes back as NaN, so the caller's finiteness check
    reports it.
    """
    shape = target.shape
    x = np.zeros(shape) if start is None else start
    r = g(*args, x) - target
    # np.maximum.reduce: ndarray.max goes through a Python wrapper
    rnorm = np.maximum.reduce(np.abs(r), axis=None)
    if rnorm <= NEWTON_TOL:
        return x
    rows = math.prod(shape[:comp_axes])
    if jacobian is None:
        def jacobian(*point):
            return central_difference(g, point, len(args), comp_axes)

    for _ in range(NEWTON_MAX_ITER):
        if not rnorm < np.inf:
            return np.full_like(x, np.nan)
        try:
            J = jacobian(*args, x)
            if rows == 1:
                J = np.reshape(J, -1)
                if not J.all():
                    raise np.linalg.LinAlgError("Singular matrix")
                step = r / J
            else:
                step = np.linalg.solve(
                    np.moveaxis(np.reshape(J, (rows, rows, -1)), -1, 0),
                    r.reshape(rows, -1).T[..., None])[..., 0]
                step = step.T.reshape(shape)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"{what}: singular Jacobian: {exc}") from exc
        scale = 1.0
        for _ in range(30):
            trial = x - scale * step
            r_trial = g(*args, trial) - target
            r_trial_norm = np.maximum.reduce(np.abs(r_trial), axis=None)
            if r_trial_norm <= NEWTON_TOL:
                return trial
            if r_trial_norm < rnorm:
                x, r, rnorm = trial, r_trial, r_trial_norm
                break
            if scale == 1.0 and rnorm <= _fd_noise_floor(value(*args, x)):
                return x
            scale *= 0.5
        else:
            raise NewtonError(f"{what}: damped Newton step stalled")
    raise NewtonError(f"{what}: no convergence after {NEWTON_MAX_ITER} "
                      f"iterations (residual {rnorm:.3e})")


def solve_velocities(L, t, x, u, p_t, p_x):
    """Newton-solve dL/du_i = (p_t, p_x) for the velocities, batched over a
    trailing grid axis, with the velocity Hessian as the Jacobian."""
    def at(f):
        return lambda v: f(t, x, u, *unpack_velocities(v, L.dims))

    vel = _solve_nodewise(at(L.d_velocities), at(L.value),
                          pack_velocities(p_t, p_x), "velocity solve", 1,
                          at(L.velocity_hessian))
    return unpack_velocities(vel, L.dims)


def inverse_legendre(L, sample):
    """Invert the reduced momentum map at one point, returning the jet."""
    if sample.dims != L.dims:
        raise ModelError("sample dimensions do not match model")
    u_t, u_x = solve_velocities(L, sample.t, sample.x, sample.u,
                                sample.p_t, sample.p_x)
    return JetSample(sample.t, sample.x, sample.u, u_t, u_x, sample.dims)


def hamiltonian_from_lagrangian(L):
    """Hamiltonian H(t, x, u, p_t, p_x) = p . u_i - L at the inverted
    velocities.

    Built-in models carry a closed-form Hamiltonian which is returned
    directly. Otherwise each evaluation Newton-inverts the momentum map;
    the first partials then follow without differentiation, since at the
    solved velocities dH/dp_i = u_i and dH/du = -dL/du.
    """
    paired = getattr(L, "paired_hamiltonian", None)
    if paired is not None:
        return paired

    def solved(t, x, u, p_t, p_x):
        return solve_velocities(L, t, x, u, p_t, p_x)

    def value(t, x, u, p_t, p_x):
        u_t, u_x = solved(t, x, u, p_t, p_x)
        pt = np.asarray(p_t, dtype=float)
        px = np.asarray(p_x, dtype=float)
        return (np.sum(pt * u_t, axis=0) + np.sum(px * u_x, axis=(0, 1))
                - L.value(t, x, u, u_t, u_x))

    def d_u(t, x, u, p_t, p_x):
        u_t, u_x = solved(t, x, u, p_t, p_x)
        return -L.d_u(t, x, u, u_t, u_x)

    def d_pt(t, x, u, p_t, p_x):
        u_t, _ = solved(t, x, u, p_t, p_x)
        return u_t

    def d_px(t, x, u, p_t, p_x):
        _, u_x = solved(t, x, u, p_t, p_x)
        return u_x

    return HamiltonianModel(L.dims, value, d_u=d_u, d_pt=d_pt, d_px=d_px,
                            name=L.name + "_hamiltonian")


# -- sections and field-equation residuals ---------------------------------

class FieldSection:
    """A field section u(t, x) with derivative access up to second order.

    Derivative callables may be given analytically; whatever is missing is
    produced by nested central differences of ``u``, each resolved once at
    construction (``_partials``). Signatures take
    ``(t, x)`` with ``x`` an (m,) array and return (n,), (n, m) or
    (n, m, m) arrays as appropriate.
    """

    def __init__(self, dims, u, u_t=None, u_x=None, u_tt=None, u_tx=None,
                 u_xx=None):
        self.dims = dims
        self._u = u
        self._partials = {
            "u_t": _partial(u_t, self.u, 0, comp_axes=0),
            "u_x": _partial(u_x, self.u, 1),
            "u_tt": _partial(u_tt, self.u_t, 0, comp_axes=0),
            "u_tx": _partial(u_tx, self.u_t, 1),
            "u_xx": _partial(u_xx, self.u_x, 1)}

    def u(self, t, x):
        return np.asarray(self._u(t, x), dtype=float)

    u_t, u_x, u_tt, u_tx, u_xx = map(_resolved,
                                     ("u_t", "u_x", "u_tt", "u_tx", "u_xx"))

    def jet(self, t, x):
        x = np.asarray(x, dtype=float)
        return JetSample(t, x, self.u(t, x), self.u_t(t, x), self.u_x(t, x),
                         self.dims)

    def base_second(self, t, x):
        """Section second derivatives over base-slot pairs, (m+1, m+1, n)."""
        m, n = self.dims.m, self.dims.n
        out = np.zeros((m + 1, m + 1, n))
        out[0, 0] = self.u_tt(t, x)
        utx = self.u_tx(t, x)
        uxx = self.u_xx(t, x)
        for j in range(m):
            out[0, 1 + j] = utx[:, j]
            out[1 + j, 0] = utx[:, j]
            for i in range(m):
                out[1 + i, 1 + j] = uxx[:, i, j]
        return out


def _section_calculus(L, section, t, x):
    """One jet of a field section at (t, x) and the chain rule through it.

    Returns the jet, the section's first derivatives over base slots
    (m+1, n; 0 = time), and the total base derivatives D_i p_t (n, m+1)
    and D_i p_x (n, m, m+1) of the momenta dL/du^alpha_i, base slot i
    last. The chain rule adds the explicit (t, x) dependence of L, the
    u-dependence against the section's first derivatives and the velocity
    dependence against its second derivatives.
    """
    m = L.dims.m
    x = np.asarray(x, dtype=float)
    jet = section.jet(t, x)
    args = (jet.t, jet.x, jet.u, jet.u_t, jet.u_x)
    Hvv = np.asarray(L.velocity_hessian(*args))        # (S, S)
    Hvu = np.asarray(L.d2_vel_u(*args))                # (S, n)
    Hvt = np.asarray(L.d2_vel_t(*args))                # (S,)
    Hvx = np.asarray(L.d2_vel_x(*args))                # (S, m)
    first = np.concatenate([jet.u_t[None], jet.u_x.T])  # (m+1, n)
    second = section.base_second(t, x)                 # (m+1, m+1, n)
    D = np.zeros((m + 1, L.dims.n_velocity_slots))
    for i in range(m + 1):
        expl = Hvt if i == 0 else Hvx[:, i - 1]
        # D_i of the section's velocities, in slot order
        vel_i = pack_velocities(second[0, i], second[1:, i].T)
        D[i] = expl + Hvu @ first[i] + Hvv.T @ vel_i
    return (jet, first) + unpack_velocities(D.T, L.dims)


def euler_lagrange_residual(L, section, points):
    """Euler-Lagrange residual dL/du^a - D_i(dL/du^a_i) at base points.

    ``points`` is an iterable of (t, x) pairs; returns (len(points), n).
    """
    out = np.zeros((len(points), L.dims.n))
    for k, (t, x) in enumerate(points):
        jet, _, d_pt, d_px = _section_calculus(L, section, t, x)
        du = L.d_u(jet.t, jet.x, jet.u, jet.u_t, jet.u_x)
        out[k] = du - (d_pt[:, 0] + np.einsum("ajj->a", d_px[:, :, 1:]))
    return out


class MomentumSection(Record):
    """A momentum-space section: ``fields(t, x)`` returns (u, p_t, p_x,
    d_base_u, d_t_pt, d_x_px) at one base point, shaped (n,), (n,),
    (n, m), (m+1, n), (n,) and (n, m, m), where d_base_u holds the first
    derivatives of u over base slots (0 = time) and
    d_x_px[a, i, j] = d p^j_a / d x^i."""
    dims: Dimensions
    fields: object


#: the six fields of a momentum section at one point, in order
_SECTION = Shapes(u="n", p_t="n", p_x="n m", d_base_u="m+1 n", d_t_pt="n",
                  d_x_px="n m m")


def legendre_transform_section(L, section):
    """Momentum section obtained by composing a field section with the
    velocity-to-momentum map; derivatives by the total-derivative chain
    rule, so analytic inputs give analytic outputs. All six fields of a
    point come from one jet."""
    def fields(t, x):
        jet, first, d_pt, d_px = _section_calculus(L, section, t, x)
        args = (jet.t, jet.x, jet.u, jet.u_t, jet.u_x)
        return (jet.u, L.d_ut(*args), L.d_ux(*args), first, d_pt[:, 0],
                d_px[:, :, 1:])

    return MomentumSection(L.dims, fields)


class HdwSectionResidual(Record):
    """Residuals of the first-order Hamiltonian field equations along a
    momentum section: ``gradient`` holds du^a/dx^i - dH/dp^i_a over all
    base slots (time first), ``divergence`` holds
    dp^t_a/dt + sum_j dp^j_a/dx^j + dH/du^a."""
    gradient: np.ndarray     # (P, n, m+1)
    divergence: np.ndarray   # (P, n)

    def max_abs(self):
        return float(np.maximum(np.max(np.abs(self.gradient), initial=0.0),
                                np.max(np.abs(self.divergence), initial=0.0)))


def hdw_residual(H, section, points):
    """Hamiltonian field-equation residuals along a momentum section. The
    six fields of each point are shaped as ``MomentumSection`` gives them,
    or refused (ModelError)."""
    dims = H.dims
    if dims != section.dims:
        raise ModelError("section dimensions do not match model")
    n, m = dims.n, dims.m
    grad = np.zeros((len(points), n, m + 1))
    div = np.zeros((len(points), n))
    for k, (t, x) in enumerate(points):
        x = np.asarray(x, dtype=float)
        u, p_t, p_x, base_u, dtpt, dxpx = _SECTION.floats(None, H, **dict(
            zip(_SECTION.specs, section.fields(t, x))))
        sample = ReducedMomentumSample(t, x, u, p_t, p_x, dims)
        args = (sample.t, sample.x, sample.u, sample.p_t, sample.p_x)
        grad[k] = base_u.T - H.d_momenta(*args)
        div[k] = dtpt + np.einsum("ajj->a", dxpx) + H.d_u(*args)
    return HdwSectionResidual(gradient=grad, divergence=div)


# -- Ehresmann connections on the configuration bundle ----------------------

class ConnectionCoefficients:
    """Horizontal-lift coefficients Gamma^alpha_i(t, x, u) of a connection
    on the configuration bundle, time slot first.

    ``coefficients(t, x, u)`` returns (n, m+1, ...), where ``...`` is the
    trailing sample axis of t (P,), x (m, P) and u (n, P), or nothing for
    a single point. Partial derivatives with respect to (t, x^j, u^beta)
    may be supplied analytically as ``partials(t, x, u) -> dict`` with
    keys "t" (n, m+1, ...), "x" (n, m+1, m, ...) and "u" (n, m+1, n, ...);
    otherwise central differences are used.
    """

    def __init__(self, dims, coefficients, partials=None):
        self.dims = dims
        self._coefficients = coefficients
        self._partials = partials

    def coefficients(self, t, x, u):
        out = np.asarray(self._coefficients(t, x, u), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ModelError("non-finite connection coefficients")
        return out

    def partials(self, t, x, u):
        if self._partials is not None:
            return self._partials(t, x, u)
        return {var: central_difference(self.coefficients, (t, x, u), wrt,
                                        comp_axes=min(wrt, 1))
                for wrt, var in enumerate("txu")}


def flatness_residual(connection, t, x, u):
    """Curvature residual of the connection over base-slot pairs.

    R^alpha_{ij} = d_i Gamma^alpha_j - d_j Gamma^alpha_i
                   + Gamma^beta_i d_{u^beta} Gamma^alpha_j
                   - Gamma^beta_j d_{u^beta} Gamma^alpha_i

    with i, j over (t, x^1..x^m), shape (n, m+1, m+1, ...). t, x and u may
    carry a trailing sample axis (t (P,), x (m, P), u (n, P)), evaluated
    in one call to the coefficients and their partials; samples of other
    shapes are refused (ModelError). Antisymmetric in (i, j); the
    connection is flat iff the residual vanishes.
    """
    x, u = _SAMPLES.floats(None, connection, t=t, x=x, u=u)[1:]
    G = connection.coefficients(t, x, u)            # (n, m+1, ...)
    P = connection.partials(t, x, u)
    # D[a, i, j] = d_i Gamma^a_j and B[a, i, j] = Gamma^b_i d_{u^b} Gamma^a_j
    D = np.concatenate([P["t"][:, None], np.moveaxis(P["x"], 2, 1)], axis=1)
    B = np.einsum("bi...,ajb...->aij...", G, P["u"])
    return (D - np.swapaxes(D, 1, 2)) + (B - np.swapaxes(B, 1, 2))
