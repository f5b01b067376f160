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

Blank lines and '#' comments are ignored. Validation errors carry the
file path and line number of the offending key.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .cauchy import (CauchyState, make_grid, recover_spatial_momenta,
                     rhs_spectral_radius)
from .hj import GAMMA_FAMILIES, gamma_family
from .legendre import hamiltonian_from_lagrangian
from .models import BUILTIN_MODEL_NAMES, ModelError, builtin_model

INITIAL_FAMILIES = ("constant", "sine", "traveling_wave", "custom_table")

#: classical RK4 is stable on the imaginary axis up to |lambda dt| = 2 sqrt 2
#: (Hairer & Wanner, Solving ODEs II, section IV.2)
RK4_IMAGINARY_BOUND = 2.0 * np.sqrt(2.0)


class ScenarioError(ValueError):
    """Malformed or invalid scenario configuration."""


@dataclass
class Scenario:
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
    verify_box: dict = field(default_factory=dict)
    verify_samples: int = 10
    verify_tol: float = 1e-10
    pairing_steps: int = 10
    pairing_pairs: int = 20

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


def _take(sections, section, key, required=False, path=""):
    entry = sections.get(section, {}).pop(key, None)
    if entry is None and required:
        raise ScenarioError(f"{path}: missing required key {section}.{key}")
    return entry or (None, None)


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


def _as_int(value, lineno, path, name):
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"{path}:{lineno}: {name} must be an integer, "
                            f"got {value!r}")


def _as_pair(value, lineno, path, name):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ScenarioError(f"{path}:{lineno}: {name} must be 'lo,hi'")
    return (_as_float(parts[0], lineno, path, name),
            _as_float(parts[1], lineno, path, name))


def parse_scenario(path):
    """Parse and validate a scenario file; defaults are applied here."""
    sections = _parse_sections(path)

    name, ln = _take(sections, "model", "name", required=True, path=path)
    if name not in BUILTIN_MODEL_NAMES:
        raise ScenarioError(f"{path}:{ln}: unknown model.name {name!r}; "
                            f"known: {', '.join(BUILTIN_MODEL_NAMES)}")
    model_params = {}
    for key in list(sections.get("model", {})):
        value, lineno = sections["model"].pop(key)
        if key == "potential":
            model_params[key] = tuple(
                _as_float(p, lineno, path, "model.potential")
                for p in value.split(","))
        elif key == "n":
            model_params[key] = _as_int(value, lineno, path, "model.n")
        elif key in ("mass", "omega"):
            model_params[key] = _as_squarable(value, lineno, path,
                                              f"model.{key}")
        else:
            model_params[key] = _as_float(value, lineno, path, f"model.{key}")
    if model_params.get("mass", 0.0) < 0:
        raise ScenarioError(f"{path}: model.mass must be non-negative")

    default_nodes = 1 if name == "mechanics_oscillator" else 64
    value, ln = _take(sections, "grid", "n_nodes", path=path)
    n_nodes = default_nodes if value is None else _as_int(value, ln, path,
                                                          "grid.n_nodes")
    min_nodes = 1 if name == "mechanics_oscillator" else 3  # central stencil
    if n_nodes < min_nodes:
        raise ScenarioError(f"{path}:{ln}: grid.n_nodes must be >= "
                            f"{min_nodes}")
    if name == "mechanics_oscillator" and n_nodes != 1:
        raise ScenarioError(f"{path}:{ln}: grid.n_nodes must be 1 for "
                            f"mechanics_oscillator")
    value, ln = _take(sections, "grid", "length", path=path)
    length = 1.0 if value is None else _as_float(value, ln, path, "grid.length")
    if length <= 0:
        raise ScenarioError(f"{path}:{ln}: grid.length must be positive")

    value, dt_ln = _take(sections, "time", "dt", required=True, path=path)
    dt = _as_float(value, dt_ln, path, "time.dt")
    if dt <= 0:
        raise ScenarioError(f"{path}:{dt_ln}: time.dt must be positive")
    value, ln = _take(sections, "time", "t_final", required=True, path=path)
    t_final = _as_float(value, ln, path, "time.t_final")
    if t_final < dt:
        raise ScenarioError(f"{path}:{ln}: time.t_final must be >= time.dt")
    if not np.isfinite(t_final / dt):
        raise ScenarioError(f"{path}:{dt_ln}: time.dt is too small "
                            f"(time.t_final / time.dt overflows)")
    if abs(round(t_final / dt) * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ScenarioError(f"{path}:{ln}: time.t_final must be a whole "
                            f"number of time.dt steps")

    family, ln = _take(sections, "initial", "family", required=True, path=path)
    family = family.replace("-", "_")
    if family not in INITIAL_FAMILIES:
        raise ScenarioError(f"{path}:{ln}: unknown initial.family "
                            f"{family!r}; known: {', '.join(INITIAL_FAMILIES)}")
    initial_params = {}
    for key in list(sections.get("initial", {})):
        value, lineno = sections["initial"].pop(key)
        if key == "file":  # relative to the scenario file's directory
            initial_params[key] = os.path.join(os.path.dirname(path), value)
        elif key == "mode":
            initial_params[key] = _as_int(value, lineno, path, "initial.mode")
        elif key in ("amplitude", "velocity", "phase", "perturb_px"):
            initial_params[key] = _as_float(value, lineno, path,
                                            f"initial.{key}")
        else:
            raise ScenarioError(f"{path}:{lineno}: unknown key "
                                f"initial.{key}")
    if family in ("sine", "traveling_wave") and name == "mechanics_oscillator":
        raise ScenarioError(f"{path}: initial.family {family!r} needs a "
                            f"spatial grid (m = 1 model)")
    if family == "custom_table" and "file" not in initial_params:
        raise ScenarioError(f"{path}: initial.family custom_table requires "
                            f"initial.file")

    gamma_name = None
    gamma_params = {}
    verify_box = {}
    verify_samples = 10
    verify_tol = 1e-10
    if "gamma" in sections:
        gname, ln = _take(sections, "gamma", "family", required=True,
                          path=path)
        if gname not in GAMMA_FAMILIES:
            raise ScenarioError(f"{path}:{ln}: unknown gamma.family "
                                f"{gname!r}; known: {', '.join(GAMMA_FAMILIES)}")
        gamma_name = gname
        for key in list(sections.get("gamma", {})):
            value, lineno = sections["gamma"].pop(key)
            if key in ("box_t", "box_x", "box_u"):
                verify_box[key[4:]] = _as_pair(value, lineno, path,
                                               f"gamma.{key}")
            elif key == "samples_per_axis":
                verify_samples = _as_int(value, lineno, path,
                                         "gamma.samples_per_axis")
                if verify_samples < 1:
                    raise ScenarioError(f"{path}:{lineno}: "
                                        f"gamma.samples_per_axis must be "
                                        f">= 1")
            elif key == "omega":
                gamma_params[key] = _as_squarable(value, lineno, path,
                                                  "gamma.omega")
            elif key == "verify_tol":
                verify_tol = _as_float(value, lineno, path, "gamma.verify_tol")
                if verify_tol < 0:
                    raise ScenarioError(f"{path}:{lineno}: "
                                        f"gamma.verify_tol must be >= 0")
            else:
                gamma_params[key] = _as_float(value, lineno, path,
                                              f"gamma.{key}")

    value, ln = _take(sections, "output", "directory", path=path)
    output_dir = value if value is not None else "out"
    value, ln = _take(sections, "output", "precision", path=path)
    precision = 17 if value is None else _as_int(value, ln, path,
                                                 "output.precision")
    if not (1 <= precision <= 17):
        raise ScenarioError(f"{path}:{ln}: output.precision must be in 1..17")
    value, ln = _take(sections, "output", "store_every", path=path)
    store_every = 1 if value is None else _as_int(value, ln, path,
                                                  "output.store_every")
    if store_every < 1:
        raise ScenarioError(f"{path}:{ln}: output.store_every must be >= 1")
    value, ln = _take(sections, "output", "pairing_steps", path=path)
    pairing_steps = 10 if value is None else _as_int(value, ln, path,
                                                     "output.pairing_steps")
    if pairing_steps < 4:
        raise ScenarioError(f"{path}:{ln}: output.pairing_steps must be >= 4 "
                            f"(the trajectory residual needs 5 frames)")
    value, ln = _take(sections, "output", "pairing_pairs", path=path)
    pairing_pairs = 20 if value is None else _as_int(value, ln, path,
                                                     "output.pairing_pairs")
    if pairing_pairs < 1:
        raise ScenarioError(f"{path}:{ln}: output.pairing_pairs must be >= 1")

    for sec_name, entries in sections.items():
        for key, (_, lineno) in entries.items():
            raise ScenarioError(f"{path}:{lineno}: unknown key "
                                f"{sec_name}.{key}")

    return Scenario(path=path, model_name=name, model_params=model_params,
                    n_nodes=n_nodes, length=length, dt=dt, t_final=t_final,
                    initial_family=family, initial_params=initial_params,
                    gamma_name=gamma_name, gamma_params=gamma_params,
                    output_dir=output_dir, precision=precision,
                    store_every=store_every, verify_box=verify_box,
                    verify_samples=verify_samples, verify_tol=verify_tol,
                    pairing_steps=pairing_steps, pairing_pairs=pairing_pairs)


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
        rate = rhs_spectral_radius(H, grid, state0)
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
    params = dict(scenario.initial_params)
    family = scenario.initial_family
    N = grid.n_nodes
    if family == "constant":
        amp = params.get("amplitude", 1.0)
        vel = params.get("velocity", 0.0)
        return np.full((n, N), amp), np.full((n, N), vel)
    if family == "custom_table":
        return _load_table(params["file"], n, N)
    mode = int(params.get("mode", 1))
    amp = params.get("amplitude", 1.0)
    kappa = 2.0 * np.pi * mode / grid.length
    xs = grid.x[0]
    if family == "sine":
        phase = params.get("phase", 0.0)
        u = amp * np.sin(kappa * xs + phase)
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
    params = dict(scenario.initial_params)
    amp = params.get("amplitude", 1.0)
    vel = params.get("velocity", 0.0)
    mode = int(params.get("mode", 1))
    phase = params.get("phase", 0.0)

    if family == "constant":
        if name == "scalar_potential":
            return None
        omega = _mass(scenario)

        def sol_const(t, grid, n):
            if omega == 0.0:
                val = amp + vel * t
            else:
                val = amp * np.cos(omega * t) + (vel / omega) * np.sin(omega * t)
            return np.full((n, grid.n_nodes), val)

        return sol_const

    if name not in ("free_wave", "klein_gordon"):
        return None
    mass = _mass(scenario)
    kappa = 2.0 * np.pi * mode / scenario.length
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
