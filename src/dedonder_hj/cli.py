"""Command-line front end.

    dedonder-hj <simulate|verify-hj|characteristics|compare|pairing-check>
        --scenario <path> [--out <dir>] [--seed <u64>] [--sweep grid|time]

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 certification refusal (incompatible data / failed verification).
All emitted floating-point values are round-trippable (17 significant
digits by default) and runs are deterministic for a fixed seed.
"""

import argparse
import os
import sys
from itertools import chain, islice, repeat

import numpy as np

from .cauchy import (MIN_CHECKED_FRAMES, VERIFY_CHUNK,
                     dynamical_trajectory_residual, frame_blocks,
                     frame_velocities, integrate_density,
                     random_smooth_variation, run_simulation,
                     standard_test_variations, take_frames)
from .cotangent import (ConstraintError, cotangent_trajectory_residual,
                        instantaneous_hamiltonian, pullback_identity_residual,
                        restriction_map_R, time_legendre_constraint_residual)
from .hj import (check_compatibility, evolve_characteristics,
                 gamma_closedness_residual, hj_lift_solution_check,
                 hj_residual, lift_by_gamma, reduced_connection)
from .legendre import flatness_residual
from .models import DedonderError, replace
from .scenario import (ScenarioError, build_gamma, build_grid, build_model,
                       check_stability, exact_solution, hamiltonian_for,
                       initial_fields, initial_state, parse_scenario)

EXIT_OK = 0
EXIT_REFUSED = 4
#: stderr prefix of each failing exit code
EXIT_PREFIX = {2: "error", 3: "numerical failure", 4: "refused"}
#: rows of a CSV table whose columns are formatted at a time
CSV_BLOCK = 1024
#: rows of a block joined and written, and values of a column formatted
#: value by value, at a time
CSV_CHUNK = 64


def _fmt(value, precision):
    return format(float(value), f".{precision}g")


def _write_csv(path, header, table, precision, int_cols=()):
    """Write the rows of a 2-D float array, each value as :func:`_fmt` does
    and the columns in ``int_cols`` as %d, CSV_BLOCK rows at a time."""
    table = np.asarray(table, dtype=float)
    specs = ["%d" if k in int_cols else f"%.{precision}g"
             for k in range(len(header))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(table), CSV_BLOCK):
            fh.writelines(_csv_block(table[lo:lo + CSV_BLOCK], specs))


def _csv_block(block, specs):
    """The text of one block of :func:`_write_csv`, CSV_CHUNK rows at a
    time, each row joined from one sequence of strings per column.

    A column with at most half as many runs as the block has rows is
    formatted once per run, one that repeats its first P <= n/2 rows once
    per period, and any other value by value, CSV_CHUNK values at a time
    as its rows are joined. A run is a stretch of values equal as floats
    and in sign bit, so 0.0 and -0.0 stay apart and NaNs never join one; P
    is the first row after row 0 equal to it, and every row must equal the
    one P rows above it in the same sense. Besides the strings of each run
    and of each period, only the strings of CSV_CHUNK rows live at once."""
    n = len(block)
    sign = np.signbit(block)
    first = np.ones(block.shape, dtype=bool)  # row starts a run
    np.not_equal(block[1:], block[:-1], out=first[1:])
    first[1:] |= sign[1:] ^ sign[:-1]
    columns = []
    for k, spec in enumerate(specs):
        column = block[:, k]
        starts = np.flatnonzero(first[:, k])
        if 2 * len(starts) <= n:
            bounds = starts.tolist() + [n]
            cells = np.repeat(
                np.array(_formatted(spec, column[starts]), dtype=object),
                [b - a for a, b in zip(bounds, bounds[1:])]).tolist()
        elif P := _period(column, sign[:, k]):
            cells = _formatted(spec, column[:P]) * (n // P + 1)
            del cells[n:]
        else:
            cells = chain.from_iterable(map(_formatted, repeat(spec), [
                column[lo:lo + CSV_CHUNK] for lo in range(0, n, CSV_CHUNK)]))
        columns.append(cells)
    rows = map(",".join, zip(*columns))
    while chunk := list(islice(rows, CSV_CHUNK)):
        chunk.append("")
        yield "\n".join(chunk)


def _formatted(spec, values):
    """The strings of a float array's values in ``spec``, from one ``%``
    operation."""
    return (",".join([spec] * len(values)) % tuple(values.tolist())).split(",")


def _period(column, sign):
    """The period P <= n/2 of a column that repeats its first P values, as
    :func:`_csv_block` compares them, or 0."""
    n = len(column)
    hits = np.flatnonzero(column[1:n // 2 + 1] == column[0])
    if not len(hits):
        return 0
    P = int(hits[0]) + 1
    differ = column[P:] != column[:-P]
    differ |= sign[P:] ^ sign[:-P]
    return 0 if len(np.flatnonzero(differ)) else P


def _field_header(n, m):
    cols = ["t", "node_index", "x"]
    cols += [f"u_{a + 1}" for a in range(n)]
    cols += [f"pt_{a + 1}" for a in range(n)]
    if m:
        cols += [f"px_{a + 1}" for a in range(n)]
    return cols


def _field_rows(grid, frames):
    """One row per frame and node: t, node_index, x, u, p_t, p_x, written
    in place into one table."""
    F, _, N = frames.u.shape
    fields = frames.u, frames.p_t, frames.p_x.reshape(F, -1, N)
    table = np.empty((F, N, 3 + sum(f.shape[1] for f in fields)))
    table[..., 0] = frames.t[:, None]
    table[..., 1] = np.arange(N)
    table[..., 2] = grid.x[0] if grid.m else 0.0
    np.concatenate(fields, axis=1, out=table[..., 3:].transpose(0, 2, 1))
    return table.reshape(F * N, -1)


def _ensure_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory '{path}': "
                            f"{exc.strerror}") from exc
    return path


def _report(lines):
    for line in lines:
        print(line)


def _levels(scenario, L, H, sweep=None, gamma=None):
    """(scenario, grid, state0) of the run and, under ``sweep``, of its
    refined level, each checked stable at state0 before any step: the
    initial state, or under ``gamma`` the lift of the initial fields."""
    if sweep == "grid" and not scenario.m:
        raise ScenarioError(f"{scenario.path}: --sweep grid needs a spatial "
                            f"grid (m = 1 model)")
    levels = []
    for sc in [scenario] + ([_refined(scenario, sweep)] if sweep else []):
        grid = build_grid(sc)
        state0 = initial_state(sc, grid, L, H) if gamma is None else \
            lift_by_gamma(gamma, 0.0, grid,
                          initial_fields(sc, grid, L.dims.n)[0])
        check_stability(sc, H, grid, state0)
        levels.append((sc, grid, state0))
    return levels


def _check_store_every(scenario):
    if scenario.n_steps % scenario.store_every:
        raise ScenarioError(f"{scenario.path}: output.store_every must "
                            f"divide the number of steps "
                            f"({scenario.n_steps})")


def _check_frames(scenario, command, frames):
    """Refuse before stepping a run that stores too few frames for the
    residual checks of ``command``."""
    if frames < MIN_CHECKED_FRAMES:
        raise ScenarioError(f"{scenario.path}: {command} needs at least "
                            f"{MIN_CHECKED_FRAMES} stored frames; this run "
                            f"stores {frames}")


def _diagnostics(L, H, grid, stored, seed):
    """Per-frame energy, constraint residual and trajectory residual of the
    stored frames, each computed once per block of frames
    (:func:`cauchy.frame_blocks`). The generator of ``seed`` is built only
    when the trajectory residual draws its test set, so a run with fewer
    than MIN_CHECKED_FRAMES frames never loads ``numpy.random``."""
    count = len(stored.t)
    checked = count >= MIN_CHECKED_FRAMES
    if checked:
        velocities = frame_velocities(stored, stored.t[1] - stored.t[0])
        test = standard_test_variations(grid, stored.u.shape[1],
                                        rng=np.random.default_rng(seed))
    energies, constraints = [], []
    traj = [float("nan")] * count
    for block in frame_blocks(grid, count):
        frames = take_frames(stored, block)
        energies += instantaneous_hamiltonian(
            L, grid, restriction_map_R(frames)).tolist()
        constraints += time_legendre_constraint_residual(
            L, grid, frames).tolist()
        if checked:
            traj[block] = dynamical_trajectory_residual(
                H, grid, frames, [v[block] for v in velocities],
                test).tolist()
    return energies, constraints, traj


def _error_metric(scenario, grid, traj):
    sol = exact_solution(scenario)
    if sol is None:
        return None
    exact = sol(traj.t[-1], grid, traj.u.shape[1])
    return float(np.max(np.abs(traj.u[-1] - exact)))


def cmd_simulate(scenario, out_dir, seed, sweep=None):
    _check_store_every(scenario)
    L = build_model(scenario)
    H = hamiltonian_for(L)
    (_, grid, state0), *refined = _levels(scenario, L, H, sweep)
    if sweep and exact_solution(scenario) is None:
        raise ScenarioError(f"{scenario.path}: sweep requires a scenario "
                            f"with a closed-form solution")
    traj = run_simulation(H, grid, state0, scenario.dt, scenario.n_steps,
                          store_every=scenario.store_every)
    energies, constraints, residuals = _diagnostics(L, H, grid, traj, seed)
    p = scenario.precision
    _write_csv(os.path.join(out_dir, "fields.csv"),
               _field_header(L.dims.n, grid.m), _field_rows(grid, traj), p,
               int_cols=(1,))
    _write_csv(os.path.join(out_dir, "diagnostics.csv"),
               ["t", "energy", "constraint_residual", "trajectory_residual"],
               np.column_stack([traj.t, energies, constraints, residuals]),
               p)
    err = _error_metric(scenario, grid, traj)
    lines = [f"simulate: model={scenario.model_name} N={grid.n_nodes} "
             f"dt={scenario.dt:g} steps={scenario.n_steps} seed={seed}",
             f"final_time = {_fmt(traj.t[-1], p)}",
             f"energy_initial = {_fmt(energies[0], p)}",
             f"energy_drift_max = {_fmt(max(abs(e - energies[0]) for e in energies), p)}",
             f"constraint_residual_max = {_fmt(max(constraints), p)}"]
    finite = [r for r in residuals if np.isfinite(r)]
    if finite:
        lines.append(f"trajectory_residual_max = {_fmt(max(finite), p)}")
    if err is not None:
        lines.append(f"exact_solution_linf_error = {_fmt(err, p)}")
    _report(lines)
    for sc, grid, state0 in refined:
        finer = _error_metric(sc, grid, run_simulation(
            H, grid, state0, sc.dt, sc.n_steps, store_every=sc.n_steps))
        _report([_sweep(scenario, sc, sweep, out_dir, "linf_error", err,
                        finer)])
    return EXIT_OK


def _refined(scenario, sweep):
    """Level 1 of a sweep: twice the nodes, or half the step with frames
    stored at the same times."""
    if sweep == "grid":
        return replace(scenario, n_nodes=2 * scenario.n_nodes)
    return replace(scenario, dt=scenario.dt / 2,
                   store_every=2 * scenario.store_every)


def _sweep(scenario, sc, sweep, out_dir, metric, value, finer):
    """Write ``convergence.csv`` of a sweep whose level 0, the command's own
    run, gave ``value`` and whose refined level ``sc`` gave ``finer``.
    Returns the report line of the ratio."""
    ratio = value / finer if value and finer else float("nan")
    p = scenario.precision
    _write_csv(os.path.join(out_dir, "convergence.csv"),
               ["level", "n_nodes", "dt", metric, "ratio"],
               [[0, scenario.n_nodes, scenario.dt, value, float("nan")],
                [1, sc.n_nodes, sc.dt, finer, ratio]], p, int_cols=(0, 1))
    return f"sweep[{sweep}] ratio = {_fmt(ratio, p)}"


def _verify_mesh(scenario, dims):
    """The (t, x, u) verification mesh as one array, one row per coordinate
    (t, then x when m = 1, then u_1..u_n) and one column per sample."""
    axes = [np.linspace(*scenario.verify_box[axis], scenario.verify_samples)
            for axis in "t" + "x" * dims.m + "u" * dims.n]
    return np.stack(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)


def _verify_columns(H, gamma, mesh, conn=None):
    """Per-sample closedness, Hamilton-Jacobi and (when ``conn`` is given)
    flatness residuals over the mesh of :func:`_verify_mesh`, as rows of
    one array. The mesh is evaluated in chunks of VERIFY_CHUNK samples, so
    memory stays bounded whatever its size."""
    m = gamma.dims.m
    chunks = []
    for lo in range(0, mesh.shape[1], VERIFY_CHUNK):
        block = mesh[:, lo:lo + VERIFY_CHUNK]
        t, x, u = block[0], block[1:1 + m], block[1 + m:]
        cols = [gamma_closedness_residual(gamma, t, x, u).per_sample(),
                np.max(np.abs(hj_residual(H, gamma, t, x, u)), axis=0)]
        if conn is not None:
            flat = np.abs(flatness_residual(conn, t, x, u))
            cols.append(np.max(flat.reshape(-1, flat.shape[-1]), axis=0))
        chunks.append(np.stack(cols))
    return np.concatenate(chunks, axis=1)


def cmd_verify_hj(scenario, out_dir, seed):
    L = build_model(scenario)
    H = hamiltonian_for(L)
    gamma = build_gamma(scenario, L.dims)
    mesh = _verify_mesh(scenario, L.dims)
    residuals = _verify_columns(H, gamma, mesh, reduced_connection(H, gamma))
    sup_closed, sup_hj, sup_flat = np.max(residuals, axis=1).tolist()
    p = scenario.precision
    header = ["t"] + (["x"] if L.dims.m else []) \
        + [f"u_{a + 1}" for a in range(L.dims.n)] \
        + ["closedness", "hj", "flatness"]
    _write_csv(os.path.join(out_dir, "verify_hj.csv"), header,
               np.concatenate([mesh, residuals]).T, p)
    ok = max(sup_closed, sup_hj, sup_flat) <= scenario.verify_tol
    _report([f"verify-hj: model={scenario.model_name} "
             f"gamma={scenario.gamma_name} samples={mesh.shape[1]} "
             f"seed={seed}",
             f"closedness_sup = {_fmt(sup_closed, p)}",
             f"hj_sup = {_fmt(sup_hj, p)}",
             f"flatness_sup = {_fmt(sup_flat, p)}",
             f"verified = {ok} (tol {scenario.verify_tol:g})"])
    return EXIT_OK if ok else EXIT_REFUSED


def _characteristic_run(scenario, H, grid, gamma, u0):
    check_compatibility(H, gamma, grid, u0, 0.0)
    return evolve_characteristics(H, gamma, grid, u0, 0.0, scenario.dt,
                                  scenario.t_final,
                                  store_every=scenario.store_every)


def cmd_characteristics(scenario, out_dir, seed):
    _check_store_every(scenario)
    L = build_model(scenario)
    H = hamiltonian_for(L)
    grid = build_grid(scenario)
    gamma = build_gamma(scenario, L.dims)
    _check_frames(scenario, "characteristics",
                  scenario.n_steps // scenario.store_every + 1)
    u0, _ = initial_fields(scenario, grid, L.dims.n)
    times, frames = _characteristic_run(scenario, H, grid, gamma, u0)
    p = scenario.precision
    _write_csv(os.path.join(out_dir, "characteristics.csv"),
               _field_header(L.dims.n, grid.m),
               _field_rows(grid, lift_by_gamma(gamma, times, grid, frames)),
               p, int_cols=(1,))
    rng = np.random.default_rng(seed)
    report = hj_lift_solution_check(H, gamma, grid, times, frames, rng=rng)
    _report([f"characteristics: model={scenario.model_name} "
             f"gamma={scenario.gamma_name} N={grid.n_nodes} seed={seed}",
             f"compatibility_residual = {_fmt(report.compatibility_residual, p)}",
             f"split_residual = {_fmt(report.split_residual, p)}",
             f"contraction_residual = {_fmt(report.contraction_residual, p)}",
             f"pullback_residual = {_fmt(report.pullback_residual, p)}",
             f"frames_checked = {report.frames_checked}"])
    return EXIT_OK


def cmd_compare(scenario, out_dir, seed, sweep=None):
    _check_store_every(scenario)
    L = build_model(scenario)
    H = hamiltonian_for(L)
    gamma = build_gamma(scenario, L.dims)
    levels = _levels(scenario, L, H, sweep, gamma)
    sup = float(np.max(_verify_columns(H, gamma,
                                       _verify_mesh(scenario, L.dims))))
    verified = sup <= scenario.verify_tol

    def differences(sc, grid, lifted0):
        """Times and L-inf and L2 differences, characteristics - direct."""
        times, frames = _characteristic_run(sc, H, grid, gamma, lifted0.u)
        direct = run_simulation(H, grid, lifted0, sc.dt, sc.n_steps,
                                store_every=sc.store_every)
        diff = frames - direct.u
        return times, np.max(np.abs(diff), axis=(1, 2)), np.sqrt(
            integrate_density(grid, np.sum(diff ** 2, axis=1)))

    times, linf, l2 = differences(*levels[0])
    p = scenario.precision
    _write_csv(os.path.join(out_dir, "compare.csv"),
               ["t", "linf_difference", "l2_difference"],
               np.column_stack([times, linf, l2]), p)
    flagged = (not verified) or max(linf) > 1e-2
    lines = [f"compare: model={scenario.model_name} "
             f"gamma={scenario.gamma_name} N={scenario.n_nodes} seed={seed}",
             f"gamma_verified = {verified} (sup {_fmt(sup, p)})",
             f"linf_difference_max = {_fmt(max(linf), p)}",
             f"l2_difference_max = {_fmt(max(l2), p)}",
             f"flagged = {flagged}"]
    for level in levels[1:]:
        lines.append(_sweep(scenario, level[0], sweep, out_dir,
                            "linf_difference", max(linf),
                            max(differences(*level)[1])))
    _report(lines)
    if not verified:
        return EXIT_REFUSED
    return EXIT_OK


def cmd_pairing_check(scenario, out_dir, seed):
    L = build_model(scenario)
    H = hamiltonian_for(L)
    [(_, grid, state0)] = _levels(scenario, L, H)
    steps = min(scenario.n_steps, scenario.pairing_steps)
    _check_frames(scenario, "pairing-check", steps + 1)
    traj = run_simulation(H, grid, state0, scenario.dt, steps, store_every=1)
    perturb = scenario.initial_params["perturb_px"]
    if perturb:
        traj = replace(traj, p_x=traj.p_x + perturb)
    rng = np.random.default_rng(seed)
    p = scenario.precision
    # the pairs (X, Y), drawn X, Y, X, Y, ... as one stack
    draws = random_smooth_variation(grid, L.dims.n, rng, vertical=False,
                                    count=2 * scenario.pairing_pairs)
    X, Y = (take_frames(draws, slice(i, None, 2)) for i in (0, 1))
    worst_pull = 0.0
    try:
        for k in range(len(traj.t)):
            worst_pull = np.maximum(worst_pull, np.max(
                pullback_identity_residual(L, H, grid, take_frames(traj, k),
                                           X, Y)))
    except ConstraintError as exc:
        _report([f"pairing-check: model={scenario.model_name} seed={seed}",
                 f"off_constraint_residual = {_fmt(exc.residual, p)} "
                 f"(tol {exc.tol:g})",
                 "state is off the momentum constraint; identity not "
                 "asserted"])
        return EXIT_REFUSED
    cot = cotangent_trajectory_residual(L, grid, restriction_map_R(traj),
                                        rng=rng)
    _report([f"pairing-check: model={scenario.model_name} N={grid.n_nodes} "
             f"steps={steps} pairs={scenario.pairing_pairs} seed={seed}",
             f"pullback_identity_residual_max = {_fmt(worst_pull, p)}",
             f"cotangent_trajectory_residual = {_fmt(cot, p)}"])
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dedonder-hj",
        description="First-order field dynamics, Hamilton-Jacobi "
                    "verification and pairing residual checks.")
    parser.add_argument("command",
                        choices=["simulate", "verify-hj", "characteristics",
                                 "compare", "pairing-check"])
    parser.add_argument("--scenario", required=True,
                        help="path to a scenario file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: scenario's "
                             "output.directory)")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed of the random-variation generator")
    parser.add_argument("--sweep", choices=["grid", "time"], default=None,
                        help="refinement sweep (simulate and compare only)")
    args = parser.parse_args(argv)
    try:
        # numpy's float errors end the run instead of printing warnings
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if not 0 <= args.seed < 2 ** 64:
                raise ScenarioError(f"--seed must be in [0, 2**64), got "
                                    f"{args.seed}")
            scenario = parse_scenario(args.scenario)
            out_dir = _ensure_outdir(args.out or scenario.output_dir)
            if args.sweep and args.command not in ("simulate", "compare"):
                raise ScenarioError(f"--sweep is not supported for "
                                    f"{args.command}")
            if args.command == "simulate":
                return cmd_simulate(scenario, out_dir, args.seed, args.sweep)
            if args.command == "verify-hj":
                return cmd_verify_hj(scenario, out_dir, args.seed)
            if args.command == "characteristics":
                return cmd_characteristics(scenario, out_dir, args.seed)
            if args.command == "compare":
                return cmd_compare(scenario, out_dir, args.seed, args.sweep)
            return cmd_pairing_check(scenario, out_dir, args.seed)
    except DedonderError as exc:
        print(f"{EXIT_PREFIX[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except FloatingPointError as exc:
        print(f"{EXIT_PREFIX[3]}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
