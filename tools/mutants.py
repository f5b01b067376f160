#!/usr/bin/env python3
"""Mutation check of the numerical kernels and the shape contract against
tier-1.

    python3 tools/mutants.py

Each row of ``MUTANTS`` replaces one exact piece of a kernel's text with
a wrong one. The whole tree is copied to a temporary directory, and
tier-1 (``python -m pytest -q --continue-on-collection-errors`` with
``src`` on the path) runs there once unmutated, without the test of the
rows themselves, which every mutant fails. Its failing tests must be
those of the same run in this checkout, or the copy does not stand for
the tree and the script stops with exit 2. Then each mutant is applied in
turn, and the copy restored after it:

- ``PROBE`` evaluates every mutated kernel on generic inputs (two field
  components, x-dependent data, a section that is not closed, two stacked
  frames, a stepped state stepped on another grid, a run whose stride
  does not divide its steps) and prints the refusals of two mis-shaped
  calls. A mutant whose probe output equals the unmutated one changes no
  output; it is dropped, not counted as a survivor;
- otherwise tier-1 runs, and the mutant is killed when some test fails
  that the unmutated copy passes, and survives when none does.

Each mutant is printed as killed, survived or dropped, with its count of
newly failing tests. A full run takes one tier-1 run per mutant, plus two,
in sequence. The exit code is 1 when a row's old text does not occur in
its file exactly once, 2 when the copy does not reproduce tier-1, and 0
otherwise, whatever the mutants' outcomes.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


MUTANTS = [
    # caught by tier-1 when the harness was written
    Mutant("src/dedonder_hj/cauchy.py",
           "- np.sum(X.du[..., None, :] * dpx_grid, axis=(-3, -2)))",
           "+ np.sum(X.du[..., None, :] * dpx_grid, axis=(-3, -2)))",
           "sign of the pairing's momentum bracket"),
    Mutant("src/dedonder_hj/cauchy.py",
           "np.abs(cw) / (1.0 + np.sqrt(w)),",
           "np.abs(cw) / (1.0 + w),",
           "node-indicator norm w instead of sqrt(w)"),
    Mutant("src/dedonder_hj/cauchy.py",
           "    out[0] = sum(fwd[i] * frames[i] for i in range(5))",
           "    out[0] = 1.1 * sum(fwd[i] * frames[i] for i in range(5))",
           "frames' boundary stencil scaled"),
    Mutant("src/dedonder_hj/legendre.py",
           "return (D - np.swapaxes(D, 1, 2)) + (B - np.swapaxes(B, 1, 2))",
           "return D - np.swapaxes(D, 1, 2)",
           "flatness without its B term"),
    Mutant("src/dedonder_hj/cotangent.py",
           "dh_du = dh_du + spatial_derivative(grid, d_ux[..., j, :])",
           "dh_du = dh_du - spatial_derivative(grid, d_ux[..., j, :])",
           "variational derivative's stencil sign"),
    Mutant("src/dedonder_hj/hj.py",
           "    tol = 10.0 * grid.spacing ** 2",
           "    tol = 10.0 * grid.spacing",
           "check_compatibility's tolerance 10 h instead of 10 h^2"),
    Mutant("src/dedonder_hj/hj.py",
           "symmetry_x=samples_first(px_u - np.swapaxes(px_u, 1, 2)),",
           "symmetry_x=samples_first(0.0 * px_u),",
           "closedness without symmetry_x"),
    Mutant("src/dedonder_hj/hj.py",
           "symmetry_t=samples_first(pt_u - np.swapaxes(pt_u, 0, 1)),",
           "symmetry_t=samples_first(0.0 * pt_u),",
           "closedness without symmetry_t"),
    Mutant("src/dedonder_hj/hj.py",
           '            out += np.einsum(f"aibj...,bj{k}...->ai{k}...", '
           'J_px, d_px)\n',
           "",
           "reduced_connection's chain rule without its p_x leg"),
    # survived tier-1 when the harness was written: tier-1 runs only
    # spatially constant sections, and closed ones, whose pt_u is symmetric
    Mutant("src/dedonder_hj/hj.py",
           '    res += np.einsum("ajj...->a...", d["px_x"])\n',
           "",
           "hj_residual without its div_x gamma_px term"),
    Mutant("src/dedonder_hj/hj.py",
           '    dpx = k_t[..., None] * d["px_t"] \\',
           '    dpx = 0.0 * d["px_t"] \\',
           "_lift_with without its k d_t gamma_px term"),
    Mutant("src/dedonder_hj/hj.py",
           'mixed = d["p_u"] - d["pt_t"] - np.einsum("ajj...->a...", '
           'd["px_x"])',
           'mixed = d["p_u"] - d["pt_t"] + np.einsum("ajj...->a...", '
           'd["px_x"])',
           "closedness' mixed component with +div gamma_px"),
    Mutant("src/dedonder_hj/hj.py",
           "    return gradient_fields(grid, u) - gamma_x",
           "    return gradient_fields(grid, u) - 0.0 * gamma_x",
           "restricted_connection_residual without gamma_px (D u alone)"),
    Mutant("src/dedonder_hj/hj.py",
           'np.einsum("b...,ba...->a...", h_pt, d["pt_u"])',
           'np.einsum("b...,ab...->a...", h_pt, d["pt_u"])',
           "hj_residual contracting pt_u transposed"),
    Mutant("src/dedonder_hj/hj.py",
           'np.einsum("...abN,...bN->...aN", d["pt_u"], du)',
           'np.einsum("...baN,...bN->...aN", d["pt_u"], du)',
           "_lift_with contracting pt_u transposed"),
    # survived tier-1 when the harness had the rows above: the frame
    # properties ran only models that do not read x
    Mutant("src/dedonder_hj/cauchy.py",
           "np.repeat(grid.x[:, None], F, axis=1).reshape(grid.m, F * N),",
           "np.repeat(grid.x, F, axis=1),",
           "_frame_samples laying x out node by node, not frame by frame"),
    Mutant("src/dedonder_hj/models.py",
           "            if sizes.setdefault(axis, size) != size:  # None",
           "            if sizes.setdefault(axis, size) != sizes[axis]:  # None",
           "shape contract binding sizes without comparing them"),
    # the stages a stepped state carries into the next step
    Mutant("src/dedonder_hj/cauchy.py",
           "    if stages[0] is not H or stages[1] is not grid:",
           "    if stages[0] is not H:",
           "step carrying p_x when H matches but the grid does not"),
    Mutant("src/dedonder_hj/cauchy.py",
           "        if u.shape != shape or p_t.shape != shape:",
           "        if False:",
           "stage recovery without its shape compare"),
    # the one gather that pads the central stencil
    Mutant("src/dedonder_hj/cauchy.py",
           "np.arange(-1, N + 1) % N",
           "np.arange(N + 2) % N",
           "stencil's wrap index shifted by one node"),
    # the store rule of the one RK4 driver of both flows
    Mutant("src/dedonder_hj/cauchy.py",
           "        if k % store_every == 0 or k == n_steps:",
           "        if k % store_every == 0:",
           "driver not storing a last step off the stride"),
]

#: prints every mutated kernel's values on generic inputs, 10 digits each,
#: a stepped state stepped again on another grid, the times stored by a
#: run of 3 steps stored every 2nd, and the errors of two mis-shaped
#: recoveries
PROBE = r'''
import numpy as np
from dedonder_hj.cauchy import (CauchyState, dynamical_trajectory_residual,
                                make_grid, presymplectic_pairing,
                                random_smooth_variation,
                                recover_spatial_momenta, run_simulation,
                                standard_test_variations, step_rk4,
                                time_derivative_frames)
from dedonder_hj.cotangent import CotangentState, variational_derivative
from dedonder_hj.hj import (HJSection, IncompatibleDataError, _lift_with,
                            check_compatibility, gamma_closedness_residual,
                            hj_residual, lift_by_gamma, linear_gamma,
                            reduced_connection,
                            restricted_connection_residual)
from dedonder_hj.legendre import flatness_residual, hamiltonian_from_lagrangian
from dedonder_hj.models import DedonderError, Dimensions, builtin_model


def show(name, value):
    flat = np.ravel(np.asarray(value, dtype=float))
    print(name, " ".join("%.10g" % v for v in flat))


dims = Dimensions(m=1, n=2)
L = builtin_model("klein_gordon", {"mass": 1.0, "n": 2})
H = hamiltonian_from_lagrangian(L)
A = np.array([[0.3, 0.7], [-0.2, 0.5]])
sec = HJSection(
    dims,
    pt=lambda t, x, u: np.einsum("ab,b...->a...", A, u) * (1 + t + x[0]),
    px=lambda t, x, u: (np.einsum("ba,b...->a...", A, u ** 2)
                        * (1 + t * x[0]))[:, None],
    p=lambda t, x, u: np.sin(t) * u[0] * u[1] + x[0] * u[0])
rng = np.random.default_rng(5)
t = rng.uniform(0.1, 0.9, 6)
x = rng.uniform(0.0, 1.0, (1, 6))
u = rng.uniform(-1.0, 1.0, (2, 6))
show("hj_residual", hj_residual(H, sec, t, x, u))
res = gamma_closedness_residual(sec, t, x, u)
show("symmetry_t", res.symmetry_t)
show("symmetry_x", res.symmetry_x)
show("mixed", res.mixed)
conn = reduced_connection(H, sec)
for key, value in conn.partials(t, x, u).items():
    show("connection_" + key, value)
show("flatness", flatness_residual(conn, t, x, u))

grid = make_grid(12)
uu = 0.4 + 0.3 * np.stack([np.sin(2 * np.pi * grid.x[0]),
                           np.cos(4 * np.pi * grid.x[0])])
lift = _lift_with(sec.partials(0.3, grid.x, uu), 0.7,
                  rng.normal(size=uu.shape))
show("lift_dpt", lift.dp_t)
show("lift_dpx", lift.dp_x)
show("restricted", restricted_connection_residual(H, sec, grid, uu, 0.3))
try:
    check_compatibility(H, linear_gamma(dims, a=0.0), grid, uu, 0.0)
except IncompatibleDataError as exc:
    show("compatibility_tol", exc.tol)

p_t = 0.5 * uu[::-1]
p_x = recover_spatial_momenta(H, grid, uu, p_t, 0.3)
state = CauchyState(0.3, uu, p_t, p_x)
X = random_smooth_variation(grid, 2, rng, vertical=False)
Y = random_smooth_variation(grid, 2, rng, vertical=False)
show("pairing", presymplectic_pairing(H, grid, state, X, Y))
dot = (rng.normal(size=uu.shape), rng.normal(size=uu.shape),
       rng.normal(size=state.p_x.shape))
show("trajectory", dynamical_trajectory_residual(
    H, grid, state, dot, standard_test_variations(grid, 2, rng=rng)))
show("frames", time_derivative_frames(rng.normal(size=(7, 2, 12)), 0.1))
show("variational", variational_derivative(
    L, grid, CotangentState(0.3, uu, p_t)))
show("lift_frames", lift_by_gamma(sec, np.array([0.3, 0.5]), grid,
                                  np.stack([uu, 0.5 * uu])).p_t)
show("restep", step_rk4(H, make_grid(12, 0.5), step_rk4(H, grid, state, 1e-3),
                        1e-3).p_t)
show("stored_t", run_simulation(H, grid, state, 1e-3, 3, store_every=2).t)
for name, call in (("short_u", lambda: recover_spatial_momenta(
                        H, grid, uu[:, :8], p_t[:, :8])),
                   ("one_component", lambda: recover_spatial_momenta(
                        H, grid, uu[:1], p_t[:1]))):
    try:
        call()
        print(name, "accepted")
    except DedonderError as exc:
        print(name, type(exc).__name__, exc)
'''


def check_rows(root=ROOT):
    """One line per row whose old text does not occur in its file exactly
    once; empty when every row applies."""
    problems = []
    for m in MUTANTS:
        count = (root / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.file}: {m.reason}: old text occurs "
                            f"{count} times")
    return problems


def _env(tree):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    return env


#: the test of the rows above, which any mutant fails by its own text
ROWS_TEST = ("tests/test_mutants.py::"
             "test_every_mutant_old_text_occurs_exactly_once")


def tier1(tree):
    """(failing test ids, summary counts) of tier-1 run in ``tree``,
    without :data:`ROWS_TEST`."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--continue-on-collection-errors",
         "--deselect", ROWS_TEST],
        cwd=tree, env=_env(tree), capture_output=True, text=True).stdout
    failing = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.M))
    lines = out.strip().splitlines()
    return failing, re.sub(r" in [\d.]+s.*", "", lines[-1] if lines else "")


def probe(tree):
    run = subprocess.run([sys.executable, "-c", PROBE], cwd=tree,
                         env=_env(tree), capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr.strip().splitlines()[-1:]


def main():
    problems = check_rows()
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        reference, summary = tier1(ROOT)
        baseline, copied = tier1(tree)
        print(f"tier-1 here: {summary}\ntier-1 in the copy: {copied}")
        if baseline != reference or summary != copied:
            print("the copy does not reproduce tier-1; no mutant run")
            return 2
        unmutated = probe(tree)
        tally = {"killed": 0, "survived": 0, "dropped": 0}
        for m in MUTANTS:
            path = tree / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            try:
                if probe(tree) == unmutated:
                    outcome, detail = "dropped", "changes no probe output"
                else:
                    failing, _ = tier1(tree)
                    new = len(failing - baseline)
                    outcome = "killed" if new else "survived"
                    detail = f"{new} failing"
            finally:
                path.write_text(text)
            tally[outcome] += 1
            print(f"{outcome:8} {detail:24} {m.file}: {m.reason}",
                  flush=True)
        print(", ".join(f"{v} {k}" for k, v in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
