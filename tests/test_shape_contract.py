"""Property test of the shape contract at the checked entry points.

Each example builds valid arguments for one entry point, for a built-in
model with n in {1, 2} and m in {0, 1}, single or with a frame, stack or
sample axis, and checks that the call goes through. Then it mis-shapes
them in one way: a wrong n, N, m, F, S or P, or one argument with an axis
removed or an extra one. The call must raise a ``DedonderError``, and a
``GridError`` exactly when the wrong size is one the grid fixes: N, or m
at an entry point that takes a grid.

A wrong size is given to one argument, or to every field of a record the
entry point takes (a state on another node count is a whole state), and
only for a size that something else binds: the model, the grid or
another argument. A removed or extra axis is given to one argument or one
field of a record. The model evaluators (``L.value``, ``H.d_px``, ...)
are not checked: they sit on the integrator's hot path, and every entry
point checks its arguments before it evaluates the model.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedonder_hj.cauchy import (CauchyState, GridError, TangentVariation,
                                make_grid, presymplectic_pairing,
                                recover_spatial_momenta, run_simulation,
                                step_rk4)
from dedonder_hj.cotangent import (CotangentState, CotangentVariation,
                                   extended_form_pairing,
                                   instantaneous_hamiltonian, omega_pairing,
                                   solve_time_velocity,
                                   time_legendre_constraint_residual,
                                   variational_derivative)
from dedonder_hj.hj import (check_compatibility, evolve_characteristics,
                            gamma_closedness_residual, hj_residual,
                            lift_by_gamma, oscillator_gamma,
                            reduced_connection,
                            restricted_connection_residual)
from dedonder_hj.legendre import flatness_residual
from dedonder_hj.models import DedonderError, builtin_model

#: the size of an extra axis, unlike any other size drawn here
EXTRA = 11

STATE = [("t", "F"), ("u", "F n N"), ("p_t", "F n N"), ("p_x", "F n m N")]
COTANGENT = [("t", "F"), ("u", "F n N"), ("pi", "F n N")]


def variation(tag, cotangent=False):
    fields = [("k", "S"), ("du", "S n N")]
    fields += [("dpi", "S n N")] if cotangent else [("dp_t", "S n N"),
                                                     ("dp_x", "S n m N")]
    return [(tag + name, axes) for name, axes in fields]


def cauchy_state(a, tag=""):
    return CauchyState(*(a[tag + name] for name, _ in STATE))


def cotangent_state(a, tag=""):
    return CotangentState(*(a[tag + name] for name, _ in COTANGENT))


def tangent(a, tag):
    return TangentVariation(*(a[name] for name, _ in variation(tag)))


def cotangent_variation(a, tag):
    return CotangentVariation(*(a[name] for name, _ in variation(tag, True)))


#: name: (takes a grid, takes frames, groups of arguments, call); a group
#: is one argument or the fields of one record, (name, axes) each, with F,
#: S and P dropped when the example has none
ENTRY_POINTS = {
    "CauchyState": (False, True, [[f] for f in STATE],
                    lambda c, a: cauchy_state(a)),
    "CotangentState": (False, True, [[f] for f in COTANGENT],
                       lambda c, a: cotangent_state(a)),
    "TangentVariation": (False, False, [[f] for f in variation("")],
                         lambda c, a: tangent(a, "")),
    "CotangentVariation": (False, False, [[f] for f in variation("", True)],
                           lambda c, a: cotangent_variation(a, "")),
    "presymplectic_pairing": (
        True, False, [STATE, variation("X."), variation("Y.")],
        lambda c, a: presymplectic_pairing(c.H, c.grid, cauchy_state(a),
                                           tangent(a, "X."),
                                           tangent(a, "Y."))),
    "omega_pairing": (
        True, False, [variation("X.", True), variation("Y.", True)],
        lambda c, a: omega_pairing(c.grid, cotangent_variation(a, "X."),
                                   cotangent_variation(a, "Y."))),
    "extended_form_pairing": (
        True, False, [COTANGENT, variation("X.", True),
                      variation("Y.", True)],
        lambda c, a: extended_form_pairing(
            c.L, c.grid, cotangent_state(a), cotangent_variation(a, "X."),
            cotangent_variation(a, "Y."))),
    "recover_spatial_momenta": (
        True, False, [[("u", "n N")], [("p_t", "n N")]],
        lambda c, a: recover_spatial_momenta(c.H, c.grid, a["u"],
                                             p_t=a["p_t"])),
    "step_rk4": (True, False, [STATE], lambda c, a: step_rk4(
        c.H, c.grid, cauchy_state(a), 1e-3)),
    "run_simulation": (True, False, [STATE], lambda c, a: run_simulation(
        c.H, c.grid, cauchy_state(a), 1e-3, 1)),
    "solve_time_velocity": (
        True, True, [[f] for f in COTANGENT],
        lambda c, a: solve_time_velocity(c.L, c.grid, a["t"], a["u"],
                                         a["pi"])),
    "instantaneous_hamiltonian": (
        True, True, [COTANGENT],
        lambda c, a: instantaneous_hamiltonian(c.L, c.grid,
                                               cotangent_state(a))),
    "variational_derivative": (
        True, True, [COTANGENT],
        lambda c, a: variational_derivative(c.L, c.grid,
                                            cotangent_state(a))),
    "time_legendre_constraint_residual": (
        True, True, [STATE],
        lambda c, a: time_legendre_constraint_residual(c.L, c.grid,
                                                       cauchy_state(a))),
    "hj_residual": (
        False, False, [[("t", "P")], [("x", "m P")], [("u", "n P")]],
        lambda c, a: hj_residual(c.H, c.gamma, a["t"], a["x"], a["u"])),
    "gamma_closedness_residual": (
        False, False, [[("t", "P")], [("x", "m P")], [("u", "n P")]],
        lambda c, a: gamma_closedness_residual(c.gamma, a["t"], a["x"],
                                               a["u"])),
    "flatness_residual": (
        False, False, [[("t", "P")], [("x", "m P")], [("u", "n P")]],
        lambda c, a: flatness_residual(reduced_connection(c.H, c.gamma),
                                       a["t"], a["x"], a["u"])),
    "restricted_connection_residual": (
        True, False, [[("u", "n N")]],
        lambda c, a: restricted_connection_residual(c.H, c.gamma, c.grid,
                                                    a["u"], 0.1)),
    "check_compatibility": (
        True, False, [[("u", "n N")]],
        lambda c, a: check_compatibility(c.H, c.gamma, c.grid, a["u"], 0.1)),
    "evolve_characteristics": (
        True, False, [[("u", "n N")]],
        lambda c, a: evolve_characteristics(c.H, c.gamma, c.grid, a["u"],
                                            0.0, 0.1, 0.1)),
    "lift_by_gamma": (
        True, True, [[("t", "F")], [("u", "F n N")]],
        lambda c, a: lift_by_gamma(c.gamma, a["t"], c.grid, a["u"])),
}

#: the entry points that take pointwise samples, whose scalar t broadcasts
SAMPLES = ("hj_residual", "gamma_closedness_residual", "flatness_residual")

#: a variation's k, which broadcasts as a scalar too
BROADCAST = ("k", "X.k", "Y.k")

#: the entry points that take no model, so that nothing binds n and m
NO_MODEL = ("CauchyState", "CotangentState", "TangentVariation",
            "CotangentVariation", "omega_pairing")


def shapes(groups, sizes):
    """Each argument's shape, F, S and P dropped where sizes has None."""
    return {name: tuple(sizes[a] for a in axes.split()
                        if sizes.get(a, 0) is not None)
            for group in groups for name, axes in group}


@st.composite
def cases(draw):
    """(entry point, (m, n, N), valid shapes, mis-shaped shapes, whether
    the mis-shaping is a GridError)."""
    entry = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    gridded, framed, groups, _ = ENTRY_POINTS[entry]
    m, n = draw(st.sampled_from([0, 1])), draw(st.sampled_from([1, 2]))
    N = draw(st.sampled_from([3, 5])) if m else 1
    sizes = {"n": n, "m": m, "N": N,
             "F": draw(st.sampled_from([None, 2, 3])) if framed else None,
             "S": draw(st.sampled_from([None, 2, 3])),
             "P": draw(st.sampled_from([None, 2, 4]))}
    valid = shapes(groups, sizes)
    # a size is bound when the model or the grid fixes it, or when two
    # groups both carry it
    bound = {a: a in "nm" and entry not in NO_MODEL or gridded and a in "Nm"
             or sum(any(a in axes.split() for _, axes in g)
                    for g in groups) > 1 for a in sizes}
    faults = [("size", g, a) for g, group in enumerate(groups)
              for a in sorted({a for _, axes in group for a in axes.split()})
              if bound[a] and sizes[a] is not None]
    faults += [(kind, name, None) for kind in ("drop", "add")
               for name, shape in valid.items()
               if kind == "add" or shape and not (
                   name in BROADCAST or entry in SAMPLES and name == "t")]
    kind, target, axis = draw(st.sampled_from(faults))
    bad = dict(valid)
    if kind == "size":
        bad.update(shapes([groups[target]], {**sizes, axis: sizes[axis] + 1}))
    elif kind == "drop":
        shape = bad[target]
        k = draw(st.integers(0, len(shape) - 1))
        bad[target] = shape[:k] + shape[k + 1:]
    else:
        bad[target] = (EXTRA,) + bad[target]
    grid_fault = kind == "size" and gridded and axis in "Nm"
    return entry, (m, n, N), valid, bad, grid_fault


def context(m, n, N):
    L = builtin_model("mechanics_oscillator" if m == 0 else "klein_gordon",
                      {"n": n})
    H = L.paired_hamiltonian
    return SimpleNamespace(L=L, H=H, gamma=oscillator_gamma(H.dims, 1.0),
                           grid=make_grid(N, m=m))


def arrays(shapes_by_name):
    """An array of 0.1 of each shape, or times from 0.1 up for a t."""
    return {name: (0.1 + 0.01 * np.arange(shape[0]) if name == "t"
                   and len(shape) == 1 else np.full(shape, 0.1))
            if shape else 0.1 for name, shape in shapes_by_name.items()}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
def test_mis_shaped_arguments_raise_the_contract_errors(case):
    entry, dims, valid, bad, grid_fault = case
    c, call = context(*dims), ENTRY_POINTS[entry][3]
    call(c, arrays(valid))
    with pytest.raises(DedonderError) as info:
        call(c, arrays(bad))
    assert isinstance(info.value, GridError) == grid_fault, (
        entry, bad, info.value)
