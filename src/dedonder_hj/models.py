"""Field-theory problem definitions on a (1+m)-dimensional base.

Fields are sections u(t, x) with n components over time plus m spatial
dimensions (m in {0, 1} at runtime, everything indexed for general m).
A Lagrangian is evaluated on first-order jet data (t, x, u, u_t, u_x),
a Hamiltonian on reduced momentum data (t, x, u, p_t, p_x) where p_t is
the temporal momentum and p_x the spatial momenta.

All evaluators broadcast over a trailing grid axis, so the same model
serves both point-level calculus and vectorized method-of-lines runs:

    u, u_t, p_t : (n,) or (n, N)
    u_x, p_x    : (n, m) or (n, m, N)
    x           : (m,) or (m, N)
    t           : scalar or (N,)

Analytic partials are used when a model supplies them; otherwise central
finite differences of step DEFAULT_FD_STEP fill in, exactly 0.0 in t for
a function that does not depend on t. There is no first partial in t:
the pairings never read one, since their k_X k_Y dH/dt legs cancel.
"""

import numpy as np

DEFAULT_FD_STEP = 1e-5

BUILTIN_MODEL_NAMES = ("free_wave", "klein_gordon", "scalar_potential",
                       "mechanics_oscillator")


class DedonderError(Exception):
    """Base class of the package's errors; ``exit_code`` is the CLI's exit
    status: 2 invalid input (the default), 3 numerical failure, 4 refusal."""
    exit_code = 2


class ModelError(DedonderError, ValueError):
    """Bad model construction or evaluation request."""


class RefusedResidual(DedonderError, RuntimeError):
    """A residual above its tolerance, or not finite, so ``what`` is
    refused."""
    exit_code = 4

    def __init__(self, residual, tol):
        excess = "> tol" if np.isfinite(residual) else "is not finite; tol"
        super().__init__(f"{self.what}: residual {residual:.6e} {excess} "
                         f"{tol:.3e}")
        self.residual, self.tol = residual, tol


class GridError(DedonderError, ValueError):
    """Bad grid construction or use."""


class Shapes:
    """A shape contract in the idiom of numpy's generalized-ufunc
    signatures (README, "Shape contract"): specs such as ``"F? n N"`` name
    the axes of arguments (``A?`` optional, ``...`` any leading ones, and
    ``#A?`` a scalar that broadcasts), and each name binds one size, and
    presence, across a call; a model binds n, m and the m+1 base slots."""

    def __init__(self, **specs):
        self.specs = {}
        for name, spec in specs.items():
            tokens = tuple(spec.lstrip("#").split())
            axes = tuple(a.rstrip("?") for a in tokens if a != "...")
            key = next((a[:-1] for a in tokens if a.endswith("?")), None)
            self.specs[name] = (tokens, spec[:1] == "#", axes, key,
                                tuple(a for a in axes if a != key))

    def check(self, grid=None, model=None, **arrays):
        """Check arrays (None passes) and records, field f of r as "r.f"."""
        dims = None if model is None else model.dims
        sizes = {} if dims is None else {"n": dims.n, "m": dims.m,
                                         "m+1": dims.m + 1}
        if grid is not None:
            if sizes.setdefault("m", grid.m) != grid.m:
                raise GridError(f"{model.name} is for m = {dims.m}, the grid "
                                f"has m = {grid.m}")
            sizes["N"] = grid.n_nodes
        for name, a in arrays.items():
            fields = [(f"{name}.{f}", getattr(a, f)) for f in a._fields
                      if f"{name}.{f}" in self.specs] \
                if isinstance(a, Record) else [(name, a)]
            for key, value in fields:
                if value is not None:
                    self._bind(key, np.shape(value), sizes, grid is not None)

    def _bind(self, name, shape, sizes, gridded):
        """Bind argument ``name``'s axes to ``shape``, or raise at a fault."""
        tokens, broadcast, axes, key, short = self.specs[name]
        got, absent = shape, key and len(shape) < len(axes)
        if tokens[:1] == ("...",):
            shape = shape[max(0, len(shape) - len(axes)):]
        elif absent:
            if broadcast and not shape:
                return
            axes = short
        error = ModelError if len(shape) != len(axes) or absent and \
            sizes.setdefault(key, None) is not None else None
        for axis, size in zip(axes, () if error else shape):
            if sizes.setdefault(axis, size) != size:  # None: bound absent
                error = GridError if gridded and axis in "Nm" else ModelError
                break
        if error:
            want = [str(sizes.get(a.rstrip("?"), a)) for a in tokens
                    if sizes.get(a.rstrip("?"), 0) is not None]
            spec, bound = ("(" + ", ".join(s) + ("," if len(s) == 1 else "")
                           + ")" for s in (tokens, want))
            raise error(f"{name} must have shape {spec} = {bound}, got {got}")

    def floats(self, grid=None, model=None, **arrays):
        """The arrays as float arrays, in order, checked."""
        arrays = {k: np.asarray(a, dtype=float) for k, a in arrays.items()}
        self.check(grid, model, **arrays)
        return list(arrays.values())

    def record(self, record, model=None):
        """Set a record's fields that have a spec to float arrays; check."""
        names = [name for name in record._fields if name in self.specs]
        record.__dict__.update(zip(names, self.floats(None, model, **{
            name: getattr(record, name) for name in names})))


def _finite(record, names):
    """Make the fields ``names`` of no axes floats; refuse any not finite."""
    for name in names:
        value = getattr(record, name)
        if value.ndim == 0:
            value = record.__dict__[name] = float(value)
        if not np.isfinite(value).all():
            raise ModelError(f"non-finite t {value}" if name == "t"
                             else f"non-finite field {name}")


#: a point sample's arrays, and pointwise samples, P on a trailing axis
_POINT = Shapes(t="", x="m", u="n", u_t="n", u_x="n m", p="", p_t="n",
                p_x="n m")
_SAMPLES = Shapes(t="#P?", x="m P?", u="n P?")


class Record:
    """Base of the package's records. The annotated names of a subclass
    are its fields, and a class-level value of a field is its default.
    ``__init__`` binds positional and keyword values to the fields and
    then calls ``__post_init__``, which may convert them with
    ``object.__setattr__``; after that a record refuses assignment and
    deletion, and it compares, hashes and prints over its fields in
    order."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} fields, "
                            f"got {len(args)} positional values")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for "
                                f"field {name!r}")
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected field "
                                f"{name!r}")
            values[name] = value
        for name in names[len(args):]:
            if name not in values:
                if name not in cls.__dict__:
                    raise TypeError(f"{cls.__name__}() missing field "
                                    f"{name!r}")
                values[name] = cls.__dict__[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an "
                             f"immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an "
                             f"immutable {type(self).__name__}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


def replace(record, **changes):
    """A new record of the type of ``record`` with the fields named in
    ``changes`` replaced; it is built by ``__init__``, so its
    ``__post_init__`` runs again."""
    return type(record)(**{**{name: getattr(record, name)
                              for name in record._fields}, **changes})


class Dimensions(Record):
    """m spatial base dimensions plus time, n field components."""
    m: int
    n: int

    def __post_init__(self):
        if self.m not in (0, 1):
            raise ModelError(f"m must be 0 or 1, got {self.m}")
        if self.n < 1:
            raise ModelError(f"n must be >= 1, got {self.n}")

    @property
    def n_velocity_slots(self):
        """Number of first-derivative slots u^alpha_i, i over (t, x^j)."""
        return self.n * (self.m + 1)


class _Point(Record):
    """Base of the point samples: fields shaped by their dims, finite."""

    def __post_init__(self):
        _POINT.record(self, model=self)
        _finite(self, self._fields[:-1])


class JetSample(_Point):
    """First-order jet data (t, x, u, u_t, u_x) at a single base point."""
    t: float
    x: np.ndarray
    u: np.ndarray
    u_t: np.ndarray
    u_x: np.ndarray
    dims: Dimensions


class ExtendedMomentumSample(_Point):
    """Extended momentum data (t, x, u, p, p_t, p_x); p is the affine slot."""
    t: float
    x: np.ndarray
    u: np.ndarray
    p: float
    p_t: np.ndarray
    p_x: np.ndarray
    dims: Dimensions

    def reduced(self):
        return ReducedMomentumSample(self.t, self.x, self.u, self.p_t,
                                     self.p_x, self.dims)


class ReducedMomentumSample(_Point):
    """Reduced momentum data (t, x, u, p_t, p_x)."""
    t: float
    x: np.ndarray
    u: np.ndarray
    p_t: np.ndarray
    p_x: np.ndarray
    dims: Dimensions


def central_difference(f, args, wrt, comp_axes=1):
    """Central differences (f(.., a + s e_c, ..) - f(.., a - s e_c, ..)) / 2s,
    s = DEFAULT_FD_STEP, of f(*args) in each component c of a = args[wrt].

    The components index the first ``comp_axes`` axes of a (0 for a scalar
    slot such as t, 1 for u, x or p_t, 2 for u_x or p_x); any further axes
    of a are node axes, perturbed together. Each perturbed slot is a copy
    of a. The derivative axes follow the axes of f's value and precede the
    trailing node axes it shares with a.
    """
    args = list(args)
    a = args[wrt]
    step = DEFAULT_FD_STEP
    if comp_axes:
        a = np.asarray(a, dtype=float)
        comps = a.shape[:comp_axes]
        shifts = []
        for c in np.ndindex(comps):
            hi, lo = a.copy(), a.copy()
            hi[c] += step
            lo[c] -= step
            shifts.append((hi, lo))
    else:
        shifts = [(a + step, a - step)]
    cols = []
    for hi, lo in shifts:
        args[wrt] = hi
        f_hi = np.asarray(f(*args), dtype=float)
        args[wrt] = lo
        cols.append((f_hi - np.asarray(f(*args), dtype=float)) / (2 * step))
    if not comp_axes:
        return cols[0]
    args[wrt] = a
    value = cols[0] if cols else np.asarray(f(*args), dtype=float)
    axis = value.ndim - (a.ndim - comp_axes)
    shape = value.shape[:axis] + comps + value.shape[axis:]
    if not cols:
        return np.zeros(shape)
    return np.stack(cols, axis=axis).reshape(shape)


def _partial(analytic, f, wrt, comp_axes=1):
    """The one analytic-or-difference rule, decided once when a model or a
    section is built: the partial in slot ``wrt`` of the arguments, as a
    function of them, is ``analytic`` with its value as a float array
    when a partial is supplied, else the :func:`central_difference` of f."""
    if analytic is None:
        return lambda *args: central_difference(f, args, wrt, comp_axes)
    return lambda *args: np.asarray(analytic(*args), dtype=float)


def _resolved(name):
    """The method that evaluates the partial ``name`` of ``_partials``."""
    return lambda self, *args: self._partials[name](*args)


def pack_velocities(u_t, u_x):
    """Stack (u_t, u_x) into the flat velocity vector; slots are u_t first,
    then u_x in component-major order."""
    u_t = np.asarray(u_t, dtype=float)
    u_x = np.asarray(u_x, dtype=float)
    n, m = u_x.shape[0], u_x.shape[1]
    tail = u_x.shape[2:]
    return np.concatenate([u_t, u_x.reshape((n * m,) + tail)], axis=0)


def unpack_velocities(v, dims):
    """Inverse of :func:`pack_velocities`."""
    v = np.asarray(v, dtype=float)
    n, m = dims.n, dims.m
    tail = v.shape[1:]
    return v[:n], v[n:].reshape((n, m) + tail)


class LagrangianModel:
    """Pointwise Lagrangian with batched evaluation and optional analytic
    partials.

    ``value(t, x, u, u_t, u_x)`` must broadcast over a trailing grid axis.
    Analytic first partials, the velocity Hessian and the mixed second
    partials needed by total derivatives along sections may be supplied;
    anything missing falls back to central differences of ``value``. Each
    partial is resolved once, at construction (``_partials``): d_u, d_ut,
    d_ux and the mixed d2_vel_u (S, n, ...), d2_vel_t (S, ...) and
    d2_vel_x (S, m, ...) of the velocity slots.
    """

    def __init__(self, dims, value, *, d_u=None, d_ut=None, d_ux=None,
                 velocity_hessian=None, d2_vel_u=None, d2_vel_t=None,
                 d2_vel_x=None, name="custom"):
        self.dims = dims
        self.name = name
        self._value = value
        self._hess = velocity_hessian
        vel = self.d_velocities
        self._partials = {
            "d_u": _partial(d_u, value, 2), "d_ut": _partial(d_ut, value, 3),
            "d_ux": _partial(d_ux, value, 4, comp_axes=2),
            "d2_vel_u": _partial(d2_vel_u, vel, 2),
            "d2_vel_t": _partial(d2_vel_t, vel, 0, comp_axes=0),
            "d2_vel_x": _partial(d2_vel_x, vel, 1)}

    # -- batched evaluation ------------------------------------------------

    def value(self, t, x, u, u_t, u_x):
        out = self._value(t, x, u, u_t, u_x)
        out = np.asarray(out, dtype=float)
        if not np.all(np.isfinite(out)):
            raise ModelError(f"{self.name}: non-finite Lagrangian value")
        return out if out.ndim else float(out)

    d_u, d_ut, d_ux = map(_resolved, ("d_u", "d_ut", "d_ux"))
    d2_vel_u, d2_vel_t, d2_vel_x = map(_resolved,
                                       ("d2_vel_u", "d2_vel_t", "d2_vel_x"))

    def d_velocities(self, t, x, u, u_t, u_x):
        """All velocity partials packed into slot order, shape (S, ...)."""
        return pack_velocities(self.d_ut(t, x, u, u_t, u_x),
                               self.d_ux(t, x, u, u_t, u_x))

    def velocity_hessian(self, t, x, u, u_t, u_x):
        """Second partials of L in the velocity slots, shape (S, S, ...)."""
        if self._hess is not None:
            return np.asarray(self._hess(t, x, u, u_t, u_x), dtype=float)
        return central_difference(
            lambda v: self.d_velocities(t, x, u,
                                        *unpack_velocities(v, self.dims)),
            (pack_velocities(u_t, u_x),), 0)

    # -- point-level API ---------------------------------------------------

    def __call__(self, jet):
        return float(self.value(jet.t, jet.x, jet.u, jet.u_t, jet.u_x))


class HamiltonianModel:
    """Pointwise Hamiltonian with batched evaluation, analogous to
    :class:`LagrangianModel`. ``momentum_jacobian`` exposes the derivatives
    of (dH/dp_t, dH/dp_x) with respect to all arguments; it backs the
    chain rule for connections induced by Hamilton-Jacobi sections.
    ``spatial_momenta(t, x, u, p_t, u_x)``, when given, returns a new
    array p_x of the shape of u_x solving dH/dp_x(t, x, u, p_t, p_x) = u_x
    in closed form; momentum recovery starts its Newton solve there. The
    partials are resolved at construction, as L's are.
    """

    def __init__(self, dims, value, *, d_u=None, d_pt=None, d_px=None,
                 momentum_jacobian=None, spatial_momenta=None,
                 name="custom"):
        self.dims = dims
        self.name = name
        self._value = value
        self._momentum_jacobian = momentum_jacobian
        self._spatial_momenta = spatial_momenta
        self.has_analytic_momentum_jacobian = momentum_jacobian is not None
        self.has_closed_form_spatial_momenta = spatial_momenta is not None
        self._partials = {
            "d_u": _partial(d_u, value, 2), "d_pt": _partial(d_pt, value, 3),
            "d_px": _partial(d_px, value, 4, comp_axes=2)}

    def value(self, t, x, u, p_t, p_x):
        out = np.asarray(self._value(t, x, u, p_t, p_x), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ModelError(f"{self.name}: non-finite Hamiltonian value")
        return out if out.ndim else float(out)

    d_u, d_pt, d_px = map(_resolved, ("d_u", "d_pt", "d_px"))

    def d_momenta(self, t, x, u, p_t, p_x):
        """Momentum partials as one (n, m+1, ...) block, time slot first."""
        dpt = self.d_pt(t, x, u, p_t, p_x)
        dpx = self.d_px(t, x, u, p_t, p_x)
        return np.concatenate([dpt[:, None], dpx], axis=1)

    def momentum_jacobian(self, t, x, u, p_t, p_x):
        """Derivatives of d_momenta with respect to (t, x, u, p_t, p_x).

        Returns a dict with arrays keyed ``"t"`` (n, m+1, ...), ``"x"``
        (n, m+1, m, ...), ``"u"`` (n, m+1, n, ...), ``"p_t"``
        (n, m+1, n, ...) and ``"p_x"`` (n, m+1, n, m, ...), where ``...``
        are the trailing node axes of u. Finite differences unless the
        model supplies an analytic version.
        """
        if self._momentum_jacobian is not None:
            return self._momentum_jacobian(t, x, u, p_t, p_x)
        args = (t, x, u, p_t, p_x)
        return {var: central_difference(self.d_momenta, args, wrt,
                                        comp_axes=(0, 1, 1, 1, 2)[wrt])
                for wrt, var in enumerate(("t", "x", "u", "p_t", "p_x"))}

    def spatial_momenta(self, t, x, u, p_t, u_x):
        """The model's closed-form p_x with dH/dp_x = u_x, shaped as u_x."""
        if self._spatial_momenta is None:
            raise ModelError(f"{self.name}: no closed-form spatial momenta")
        u_x = np.asarray(u_x, dtype=float)
        out = np.asarray(self._spatial_momenta(t, x, u, p_t, u_x),
                         dtype=float)
        if out.shape != u_x.shape:
            raise ModelError(f"{self.name}: spatial momenta must have the "
                             f"shape of u_x, {u_x.shape}, got {out.shape}")
        return out

    def __call__(self, sample):
        return float(self.value(sample.t, sample.x, sample.u, sample.p_t,
                                sample.p_x))


# -- built-in models -------------------------------------------------------

def _poly_value(coeffs, u):
    out = np.zeros_like(u)
    for k, c in enumerate(coeffs):
        if c != 0.0:
            out = out + c * u ** k
    return out


def _poly_deriv(coeffs, u):
    out = np.zeros_like(u)
    for k, c in enumerate(coeffs):
        if k >= 1 and c != 0.0:
            out = out + k * c * u ** (k - 1)
    return out


def _over_nodes(a, tail):
    """Read-only view of the point-level array a over trailing node axes."""
    return np.broadcast_to(a.reshape(a.shape + (1,) * len(tail)),
                           a.shape + tail)


def _quadratic_wave_family(dims, mass=0.0, potential=None, name="free_wave"):
    """L = 1/2 |u_t|^2 - 1/2 |u_x|^2 - 1/2 mass^2 |u|^2 - V(u); at m = 0
    u_x is empty and L is the oscillator of frequency mass."""
    n, m = dims.n, dims.m
    coeffs = tuple(float(c) for c in (potential or ()))
    mass = float(mass)

    def body(sign):
        """Value and u-partial of K(v_t, v_x) + sign P(u), with
        K = 1/2 |v_t|^2 - 1/2 |v_x|^2 and P = 1/2 mass^2 |u|^2 + V(u):
        L on velocities at sign -1, H on momenta at sign +1."""
        def value(t, x, u, v_t, v_x):
            u = np.asarray(u, dtype=float)
            v_t = np.asarray(v_t, dtype=float)
            v_x = np.asarray(v_x, dtype=float)
            out = (0.5 * np.sum(v_t ** 2, axis=0)
                   - 0.5 * np.sum(v_x ** 2, axis=(0, 1)))
            if mass != 0.0:
                out = out + sign * (0.5 * mass ** 2 * np.sum(u ** 2, axis=0))
            if coeffs:
                out = out + sign * np.sum(_poly_value(coeffs, u), axis=0)
            return out

        def d_u(t, x, u, v_t, v_x):
            u = np.asarray(u, dtype=float)
            out = sign * mass ** 2 * u
            if coeffs:
                out = out + sign * _poly_deriv(coeffs, u)
            return out

        return value, d_u

    def d_vt(t, x, u, v_t, v_x):
        return np.asarray(v_t, dtype=float).copy()

    def d_vx(t, x, u, v_t, v_x):
        return -np.asarray(v_x, dtype=float)

    def hessian(t, x, u, u_t, u_x):
        diag = np.concatenate([np.ones(n), -np.ones(n * m)])
        base = np.asarray(np.asarray(u_t, dtype=float)[0], dtype=float)
        H = np.diag(diag)
        return H.reshape(H.shape + (1,) * base.ndim) * np.ones_like(base)

    S = dims.n_velocity_slots

    def d2_vel_u(t, x, u, u_t, u_x):
        base = np.asarray(np.asarray(u_t, dtype=float)[0], dtype=float)
        return np.zeros((S, n) + base.shape)

    value, d_u = body(-1.0)
    lag = LagrangianModel(dims, value, d_u=d_u, d_ut=d_vt, d_ux=d_vx,
                          velocity_hessian=hessian, d2_vel_u=d2_vel_u,
                          name=name)

    jac_pt = np.zeros((n, m + 1, n))
    jac_px = np.zeros((n, m + 1, n, m))
    for a in range(n):
        jac_pt[a, 0, a] = 1.0
        for j in range(m):
            jac_px[a, 1 + j, a, j] = -1.0

    point = {"t": np.zeros((n, m + 1)), "x": np.zeros((n, m + 1, m)),
             "u": np.zeros((n, m + 1, n)), "p_t": jac_pt, "p_x": jac_px}

    def h_momentum_jacobian(t, x, u, p_t, p_x):
        tail = np.shape(u)[1:]
        return {k: _over_nodes(a, tail) for k, a in point.items()}

    def h_spatial_momenta(t, x, u, p_t, u_x):
        # dH/dp_x = -p_x; 0.0 - u_x, not -u_x, is +0.0 where u_x = 0, as
        # the Newton solve from zero is
        return 0.0 - np.asarray(u_x, dtype=float)

    h_value, h_du = body(1.0)
    ham = HamiltonianModel(dims, h_value, d_u=h_du, d_pt=d_vt, d_px=d_vx,
                           momentum_jacobian=h_momentum_jacobian,
                           spatial_momenta=h_spatial_momenta,
                           name=name + "_hamiltonian")
    lag.paired_hamiltonian = ham
    return lag


def builtin_model(name, params=None):
    """Construct one of the built-in Lagrangian models.

    ``free_wave``            L = 1/2 u_t^2 - 1/2 u_x^2            (m = 1)
    ``klein_gordon``         adds - 1/2 mass^2 u^2                (m = 1)
    ``scalar_potential``     adds - V(u), V polynomial            (m = 1)
    ``mechanics_oscillator`` L = 1/2 u_t^2 - 1/2 omega^2 u^2      (m = 0)

    Mechanics is a field theory over time alone, so the oscillator is the
    m = 0 Klein-Gordon field of mass omega (either sign; only omega^2
    enters). All carry analytic partials, analytic velocity Hessians and a
    paired analytic Hamiltonian.
    """
    params = dict(params or {})
    if name not in BUILTIN_MODEL_NAMES:
        raise ModelError(f"unknown model {name!r}; known: "
                         + ", ".join(BUILTIN_MODEL_NAMES))
    n = int(params.pop("n", 1))
    declared_m = params.pop("m", None)
    expected_m = 0 if name == "mechanics_oscillator" else 1
    if declared_m is not None and int(declared_m) != expected_m:
        raise ModelError(f"{name} requires m={expected_m}, got m={declared_m}")
    dims = Dimensions(m=expected_m, n=n)

    if name == "mechanics_oscillator":
        mass, potential = float(params.pop("omega", 1.0)), None
    else:
        mass = float(params.pop("mass", 0.0))
        if mass < 0:
            raise ModelError("mass must be non-negative")
        potential = params.pop("potential", None)
    if name == "free_wave":
        if mass != 0.0 or potential:
            raise ModelError("free_wave takes no mass or potential")
        model = _quadratic_wave_family(dims, name=name)
    elif name == "scalar_potential":
        model = _quadratic_wave_family(dims, mass=mass,
                                       potential=potential or (), name=name)
    else:  # klein_gordon, and the oscillator as its m = 0 member
        if potential:
            raise ModelError(f"{name} takes no polynomial potential")
        model = _quadratic_wave_family(dims, mass=mass, name=name)
    if params:
        raise ModelError(f"unused parameters for {name}: {sorted(params)}")
    return model
