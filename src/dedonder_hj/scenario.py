"""Scenario configuration: sectioned key=value files.

A scenario file looks like

    [model]
    name = klein_gordon
    mass = 1.0

    [grid]
    n_nodes = 128

    [time]
    dt = 0.001
    t_final = 1.0

    [initial]
    family = constant
    amplitude = 1.0

    [gamma]
    family = oscillator
    omega = 1.0

    [output]
    directory = out

Blank lines and '#' comments are ignored. Every fixed key is read,
defaulted and bounded through :data:`KEYS`; the other keys of [model] and
[gamma] are the parameters of the model and section families. Validation
errors carry the file path and line number of the offending key.
"""

import os
from typing import Callable, NamedTuple

import numpy as np

from .cauchy import (MIN_CHECKED_FRAMES, CauchyState, make_grid,
                     recover_spatial_momenta, rhs_spectral_radius)
from .hj import GAMMA_FAMILIES, gamma_family
from .legendre import hamiltonian_from_lagrangian
from .models import (BUILTIN_MODEL_NAMES, DedonderError, ModelError, Record,
                     builtin_model)

INITIAL_FAMILIES = ("constant", "sine", "traveling_wave", "custom_table")

#: classical RK4 is stable on the imaginary axis up to |lambda dt| = 2 sqrt 2
#: (Hairer & Wanner, Solving ODEs II, section IV.2)
RK4_IMAGINARY_BOUND = 2.0 * np.sqrt(2.0)


class ScenarioError(DedonderError, ValueError):
    """Malformed or invalid scenario configuration."""


class Scenario(Record):
    path: str
    model_name: str
    model_params: dict
    n_nodes: int
    length: float
    dt: float
    t_final: float
    initial_family: str
    initial_params: dict
    gamma_name: str | None
    gamma_params: dict
    output_dir: str
    precision: int
    store_every: int
    verify_box: dict
    verify_samples: int
    verify_tol: float
    pairing_steps: int
    pairing_pairs: int

    @property
    def m(self):
        return 0 if self.model_name == "mechanics_oscillator" else 1

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


def _parse_sections(path):
    sections = {}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc})")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value'")
        if current is None:
            raise ScenarioError(f"{path}:{lineno}: key outside any [section]")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ScenarioError(f"{path}:{lineno}: empty key")
        key = key.lower()
        if key in sections[current]:
            raise ScenarioError(f"{path}:{lineno}: duplicate key "
                                f"{current}.{key} (first on line "
                                f"{sections[current][key][1]})")
        sections[current][key] = (value, lineno)
    return sections


def _as_float(value, lineno, path, name):
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"{path}:{lineno}: {name} must be a number, "
                            f"got {value!r}")
    if not np.isfinite(number):
        raise ScenarioError(f"{path}:{lineno}: {name} must be a finite "
                            f"number, got {value!r}")
    return number


def _as_squarable(value, lineno, path, name):
    """:func:`_as_float` of a number whose square is finite too."""
    number = _as_float(value, lineno, path, name)
    if not np.isfinite(number * number):
        raise ScenarioError(f"{path}:{lineno}: {name} is too large (its "
                            f"square overflows), got {value!r}")
    return number


def _as_numbers(value, lineno, path, name):
    return tuple(_as_float(p, lineno, path, name) for p in value.split(","))


def _as_int(value, lineno, path, name):
    """An integer that fits numpy's index type, so a count or a mode never
    overflows an array size or a float."""
    try:
        number = int(value)
    except ValueError:
        raise ScenarioError(f"{path}:{lineno}: {name} must be an integer, "
                            f"got {value!r}")
    index = np.iinfo(np.intp)
    if not index.min <= number <= index.max:
        raise ScenarioError(f"{path}:{lineno}: {name} must be in "
                            f"{index.min}..{index.max}")
    return number


def _as_pair(value, lineno, path, name):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ScenarioError(f"{path}:{lineno}: {name} must be 'lo,hi'")
    return (_as_float(parts[0], lineno, path, name),
            _as_float(parts[1], lineno, path, name))


def _as_text(value, lineno, path, name):
    return value


def _beside_scenario(value, lineno, path, name):
    """A file path relative to the scenario file's directory."""
    return os.path.join(os.path.dirname(path), value)


def _one_of(known):
    """Reader of a name from ``known``."""
    def read(value, lineno, path, name):
        if value not in known:
            raise ScenarioError(f"{path}:{lineno}: unknown {name} {value!r}; "
                                f"known: {', '.join(known)}")
        return value
    return read


def _as_initial_family(value, lineno, path, name):
    """A name from INITIAL_FAMILIES; '-' reads as '_' (traveling-wave)."""
    return _one_of(INITIAL_FAMILIES)(value.replace("-", "_"), lineno, path,
                                     name)


_REQUIRED = object()


class Key(NamedTuple):
    """A fixed key: ``read(value, lineno, path, name)`` converts its text,
    ``default`` stands in when it is absent (without one it is required),
    and a value that fails ``bound`` is refused as '<name> <refusal>'."""
    read: Callable
    default: object = _REQUIRED
    bound: Callable | None = None
    refusal: str = ""


#: every fixed key, in the order it is read. The model decides the default
#: and the bounds of grid.n_nodes, and gamma.family is required in a [gamma]
#: section; :func:`parse_scenario` checks both.
KEYS = {
    "model.name": Key(_one_of(BUILTIN_MODEL_NAMES)),
    "grid.n_nodes": Key(_as_int, None),
    "grid.length": Key(_as_squarable, 1.0, lambda v: v > 0,
                       "must be positive"),
    "time.dt": Key(_as_float, bound=lambda v: v > 0,
                   refusal="must be positive"),
    "time.t_final": Key(_as_float),
    "initial.family": Key(_as_initial_family),
    "initial.amplitude": Key(_as_float, 1.0),
    "initial.velocity": Key(_as_float, 0.0),
    "initial.mode": Key(_as_int, 1),
    "initial.phase": Key(_as_float, 0.0),
    "initial.file": Key(_beside_scenario, None),
    "initial.perturb_px": Key(_as_float, 0.0),
    "gamma.family": Key(_one_of(GAMMA_FAMILIES), None),
    "gamma.box_t": Key(_as_pair, (0.0, 1.0)),
    "gamma.box_x": Key(_as_pair, (0.0, 1.0)),
    "gamma.box_u": Key(_as_pair, (-2.0, 2.0)),
    "gamma.samples_per_axis": Key(_as_int, 10, lambda v: v >= 1,
                                  "must be >= 1"),
    "gamma.verify_tol": Key(_as_float, 1e-10, lambda v: v >= 0,
                            "must be >= 0"),
    "output.directory": Key(_as_text, "out"),
    "output.precision": Key(_as_int, 17, lambda v: 1 <= v <= 17,
                            "must be in 1..17"),
    "output.store_every": Key(_as_int, 1, lambda v: v >= 1, "must be >= 1"),
    "output.pairing_steps": Key(_as_int, 10,
                                lambda v: v >= MIN_CHECKED_FRAMES - 1,
                                f"must be >= {MIN_CHECKED_FRAMES - 1} (the "
                                f"trajectory residual needs "
                                f"{MIN_CHECKED_FRAMES} frames)"),
    "output.pairing_pairs": Key(_as_int, 20, lambda v: v >= 1,
                                "must be >= 1"),
}

#: readers of the free-form [model] parameters; any other is a number
MODEL_PARAMS = {"n": _as_int, "mass": _as_squarable, "omega": _as_squarable,
                "potential": _as_numbers}


def _params(sections, section, path, readers):
    """The remaining keys of ``section`` as family parameters, each read by
    its reader in ``readers`` or as a number."""
    return {key: readers.get(key, _as_float)(value, lineno, path,
                                             f"{section}.{key}")
            for key, (value, lineno) in sections.pop(section, {}).items()}


def parse_scenario(path):
    """Parse and validate a scenario file; every default is applied here."""
    sections = _parse_sections(path)
    values, lines = {}, {}
    for key_name, key in KEYS.items():
        section, _, field = key_name.partition(".")
        text, ln = sections.get(section, {}).pop(field, (None, None))
        if text is None and key.default is _REQUIRED:
            raise ScenarioError(f"{path}: missing required key {key_name}")
        value = key.default if text is None else \
            key.read(text, ln, path, key_name)
        if key.bound is not None and not key.bound(value):
            raise ScenarioError(f"{path}:{ln}: {key_name} {key.refusal}")
        values[key_name], lines[key_name] = value, ln
    n_line = sections.get("model", {}).get("n", (None, None))[1]
    model_params = _params(sections, "model", path, MODEL_PARAMS)
    if model_params.get("mass", 0.0) < 0:
        raise ScenarioError(f"{path}: model.mass must be non-negative")

    name = values["model.name"]
    oscillator = name == "mechanics_oscillator"
    n_nodes, ln = values["grid.n_nodes"], lines["grid.n_nodes"]
    if n_nodes is None:
        n_nodes = 1 if oscillator else 64
    min_nodes = 1 if oscillator else 3  # central stencil
    if n_nodes < min_nodes:
        raise ScenarioError(f"{path}:{ln}: grid.n_nodes must be >= "
                            f"{min_nodes}")
    if oscillator and n_nodes != 1:
        raise ScenarioError(f"{path}:{ln}: grid.n_nodes must be 1 for "
                            f"mechanics_oscillator")
    # the bound of _as_int, on the bytes of one (n, N) float64 field
    n, index_max = model_params.get("n", 1), np.iinfo(np.intp).max
    if 8 * n_nodes * n > index_max:
        raise ScenarioError(f"{path}:{ln if n_nodes >= n else n_line}: "
                            f"grid.n_nodes * model.n = {n_nodes * n} float64 "
                            f"values exceed {index_max} bytes")

    dt, t_final, ln = values["time.dt"], values["time.t_final"], \
        lines["time.t_final"]
    if t_final < dt:
        raise ScenarioError(f"{path}:{ln}: time.t_final must be >= time.dt")
    if not np.isfinite(t_final / dt):
        raise ScenarioError(f"{path}:{lines['time.dt']}: time.dt is too "
                            f"small (time.t_final / time.dt overflows)")
    if round(t_final / dt) > index_max:
        raise ScenarioError(f"{path}:{ln}: time.t_final / time.dt = "
                            f"{t_final / dt:.6g} steps exceed {index_max}")
    if abs(round(t_final / dt) * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ScenarioError(f"{path}:{ln}: time.t_final must be a whole "
                            f"number of time.dt steps")

    family = values["initial.family"]
    if family in ("sine", "traveling_wave") and oscillator:
        raise ScenarioError(f"{path}: initial.family {family!r} needs a "
                            f"spatial grid (m = 1 model)")
    if family == "custom_table" and values["initial.file"] is None:
        raise ScenarioError(f"{path}: initial.family custom_table requires "
                            f"initial.file")
    # under a linear model the right-hand side of initial data whose u and
    # p_t are at most v is at most v max(1, mass, 1 / h)^2, with h / 2 on a
    # grid sweep's grid, and the stages of an RK4 step and their sum grow
    # it less than 64-fold (check_stability refuses a nonlinear potential
    # that overflows)
    length = values["grid.length"]
    mass = model_params.get("mass", model_params.get("omega", 0.0))
    rate = max(1.0, abs(mass), 2.0 * n_nodes / length)
    for key in ("initial.amplitude", "initial.velocity"):
        if family != "custom_table" \
                and not np.isfinite(64.0 * abs(values[key]) * rate * rate):
            raise ScenarioError(
                f"{path}:{lines[key] or lines['grid.length']}: {key} = "
                f"{values[key]:g} is too large for {n_nodes} nodes on "
                f"grid.length = {length:g} (the first RK4 step of the "
                f"initial field overflows)")

    gamma_name = values["gamma.family"]
    if gamma_name is None and "gamma" in sections:
        raise ScenarioError(f"{path}: missing required key gamma.family")
    gamma_lines = {key: ln for key, (_, ln) in sections.get("gamma",
                                                            {}).items()}
    gamma_params = _params(sections, "gamma", path, {"omega": _as_squarable})
    if gamma_name == "linear":
        # the section k u + s, and k times it in the Hamilton-Jacobi
        # residual, at the largest |u| it is evaluated at
        u_max = max(abs(v) for v in values["gamma.box_u"]
                    + (values["initial.amplitude"],))
        for slope, shift in (("a", "b"), ("c", "d")):
            k, s = (abs(gamma_params.get(key, 0.0)) for key in (slope, shift))
            if not np.isfinite((k + 1.0) * (k * u_max + s)):
                raise ScenarioError(
                    f"{path}:{gamma_lines[slope]}: gamma.{slope} = "
                    f"{gamma_params[slope]:g} is "
                    f"too large (gamma.{slope} * (gamma.{slope} u + "
                    f"gamma.{shift}) overflows at |u| = {u_max:g}, the "
                    f"largest of gamma.box_u and initial.amplitude)")

    # the same bound on the bytes of the (1 + m + n, samples^(1 + m + n))
    # verification mesh; an exponent capped at 64 keeps the verdict
    axes, samples = 1 + (not oscillator) + n, values["gamma.samples_per_axis"]
    if gamma_name is not None \
            and 8 * axes * samples ** min(axes, 64) > index_max:
        raise ScenarioError(
            f"{path}:{lines['gamma.samples_per_axis'] or n_line}: "
            f"gamma.samples_per_axis = {samples} gives {samples} ** {axes} "
            f"mesh samples of {axes} float64 values, more than {index_max} "
            f"bytes")

    for sec_name, entries in sections.items():
        for key, (_, lineno) in entries.items():
            raise ScenarioError(f"{path}:{lineno}: unknown key "
                                f"{sec_name}.{key}")

    return Scenario(
        path=path, model_name=name, model_params=model_params,
        n_nodes=n_nodes, length=values["grid.length"], dt=dt,
        t_final=t_final, initial_family=family,
        initial_params={k.removeprefix("initial."): value
                        for k, value in values.items()
                        if k.startswith("initial.") and k != "initial.family"},
        gamma_name=gamma_name, gamma_params=gamma_params,
        output_dir=values["output.directory"],
        precision=values["output.precision"],
        store_every=values["output.store_every"],
        verify_box={axis: values[f"gamma.box_{axis}"] for axis in "txu"},
        verify_samples=values["gamma.samples_per_axis"],
        verify_tol=values["gamma.verify_tol"],
        pairing_steps=values["output.pairing_steps"],
        pairing_pairs=values["output.pairing_pairs"])


def _mass(scenario):
    """Mass of the linear models; the oscillator is Klein-Gordon at m = 0
    with mass omega."""
    if scenario.model_name == "mechanics_oscillator":
        return scenario.model_params.get("omega", 1.0)
    return scenario.model_params.get("mass", 0.0)


def check_stability(scenario, H, grid, state0):
    """Refuse a run whose RK4 step is unstable: dt |lambda| must stay
    within :data:`RK4_IMAGINARY_BOUND`. For the linear models the spectrum
    under the composed central stencil is imaginary with |lambda| up to
    sqrt(1/h^2 + mass^2), and |omega| for the oscillator, which has no
    grid term; for ``scalar_potential`` |lambda| is estimated by power
    iteration of the right-hand side of H on ``grid`` linearised at
    ``state0``, the state the run steps from."""
    if scenario.model_name == "mechanics_oscillator":
        rate, what = abs(_mass(scenario)), "dt*|omega|"
    elif scenario.model_name in ("free_wave", "klein_gordon"):
        rate = np.hypot(scenario.n_nodes / scenario.length, _mass(scenario))
        what = "dt*sqrt(1/h^2 + mass^2)"
    else:  # scalar_potential
        try:
            rate = rhs_spectral_radius(H, grid, state0)
        except ModelError as exc:
            raise ScenarioError(f"{scenario.path}: {exc}") from exc
        what = "dt*|lambda| (linearised at t = 0)"
    if scenario.dt * rate > RK4_IMAGINARY_BOUND:
        raise ScenarioError(
            f"{scenario.path}: RK4 unstable at N={scenario.n_nodes}: "
            f"{what} = {scenario.dt * rate:.6g} exceeds "
            f"2*sqrt(2) = {RK4_IMAGINARY_BOUND:.6g}; "
            f"need dt <= {RK4_IMAGINARY_BOUND / rate:.6g}")


# -- scenario realization -----------------------------------------------------

def build_model(scenario):
    try:
        return builtin_model(scenario.model_name, scenario.model_params)
    except ModelError as exc:
        raise ScenarioError(f"{scenario.path}: {exc}") from exc


def build_grid(scenario):
    return make_grid(scenario.n_nodes, length=scenario.length, m=scenario.m)


def build_gamma(scenario, dims):
    if scenario.gamma_name is None:
        raise ScenarioError(f"{scenario.path}: this command requires a "
                            f"[gamma] section")
    try:
        return gamma_family(scenario.gamma_name, dims, scenario.gamma_params)
    except ModelError as exc:
        raise ScenarioError(f"{scenario.path}: {exc}") from exc


def _load_table(path, n, n_nodes):
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{path}: cannot read initial table ({exc})")
    if rows.shape != (n_nodes, 2 * n):
        raise ScenarioError(f"{path}: initial table must be "
                            f"{n_nodes} x {2 * n} (u then p_t columns), "
                            f"got {rows.shape}")
    return rows[:, :n].T.copy(), rows[:, n:].T.copy()


def initial_fields(scenario, grid, n):
    """Per-node (u, p_t) of the scenario's initial family."""
    params = scenario.initial_params
    family = scenario.initial_family
    N = grid.n_nodes
    amp = params["amplitude"]
    if family == "constant":
        return np.full((n, N), amp), np.full((n, N), params["velocity"])
    if family == "custom_table":
        return _load_table(params["file"], n, N)
    kappa = 2.0 * np.pi * params["mode"] / grid.length
    xs = grid.x[0]
    if family == "sine":
        u = amp * np.sin(kappa * xs + params["phase"])
        return np.tile(u, (n, 1)), np.zeros((n, N))
    # traveling_wave: profile moving right at unit speed
    u = amp * np.sin(kappa * xs)
    p_t = -amp * kappa * np.cos(kappa * xs)
    return np.tile(u, (n, 1)), np.tile(p_t, (n, 1))


def initial_state(scenario, grid, L, H):
    u, p_t = initial_fields(scenario, grid, L.dims.n)
    p_x = recover_spatial_momenta(H, grid, u, p_t=p_t, t=0.0)
    return CauchyState(0.0, u, p_t, p_x)


def exact_solution(scenario):
    """Closed-form solution u(t) -> (n, N) for oracle-backed scenarios,
    or None when unavailable."""
    family = scenario.initial_family
    name = scenario.model_name
    params = scenario.initial_params
    amp, vel, phase = params["amplitude"], params["velocity"], params["phase"]

    if family == "constant":
        if name == "scalar_potential":
            return None
        omega = _mass(scenario)

        def sol_const(t, grid, n):
            # (vel / omega) sin(omega t) tends to vel t as omega -> 0: the
            # limit serves wherever vel / omega is not finite
            if omega != 0.0 and np.isfinite(vel / omega):
                drift = (vel / omega) * np.sin(omega * t)
            else:
                drift = vel * t
            return np.full((n, grid.n_nodes), amp * np.cos(omega * t) + drift)

        return sol_const

    if name not in ("free_wave", "klein_gordon"):
        return None
    mass = _mass(scenario)
    kappa = 2.0 * np.pi * params["mode"] / scenario.length
    if family == "sine":
        omega = np.hypot(kappa, mass)

        def sol_sine(t, grid, n):
            u = amp * np.sin(kappa * grid.x[0] + phase) * np.cos(omega * t)
            return np.tile(u, (n, 1))

        return sol_sine
    if family == "traveling_wave" and mass == 0.0:

        def sol_travel(t, grid, n):
            u = amp * np.sin(kappa * (grid.x[0] - t))
            return np.tile(u, (n, 1))

        return sol_travel
    return None


def hamiltonian_for(L):
    return hamiltonian_from_lagrangian(L)
