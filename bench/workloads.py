"""Workloads of the benchmark: scenario files rendered from the workload
seed, and the correctness gate applied to every CLI run.

Each workload is a scenario template in ``bench/scenarios``. The seed draws
the initial-data parameters; they change the values the CLI computes but
not the amount of work. The gate reads the CLI's report lines and bounds
each residual by a value derived from the closed-form solution of the
scenario, so it never depends on output bytes.
"""

import math
import random
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

COMMANDS = {
    "simulate_diag": "simulate",
    "simulate_steps": "simulate",
    "verify_hj": "verify-hj",
    "characteristics": "characteristics",
}

#: "full" is the measured size; "small" keeps each workload's mix of work
#: (at least five stored frames where residuals are computed) and runs in
#: well under a second, for the self-test.
SIZES = {
    "simulate_diag": {
        "full": {"n_nodes": 128, "dt": 1e-3, "t_final": 1.0,
                 "store_every": 10},
        "small": {"n_nodes": 32, "dt": 1e-3, "t_final": 0.05,
                  "store_every": 10},
    },
    "simulate_steps": {
        "full": {"n_nodes": 1024, "dt": 2.5e-4, "t_final": 1.0,
                 "store_every": 4000},
        "small": {"n_nodes": 64, "dt": 2.5e-4, "t_final": 0.025,
                  "store_every": 100},
    },
    "verify_hj": {
        "full": {"samples_per_axis": 7},
        "small": {"samples_per_axis": 2},
    },
    "characteristics": {
        "full": {"n_nodes": 128, "dt": 1e-3, "t_final": 1.0,
                 "store_every": 10},
        "small": {"n_nodes": 16, "dt": 1e-3, "t_final": 0.05,
                  "store_every": 10},
    },
}

#: the scenarios' Klein-Gordon mass, grid length and sine mode
MASS = 1.0
KAPPA = 2.0 * math.pi

#: the pairing residuals of a lifted characteristic trajectory are
#: antisymmetric cancellations, printed at 1e-16 at the seed commit.
ROUNDOFF_BOUND = 1e-12


def draw(workload, seed):
    """Initial-data parameters of a workload, drawn from its seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("simulate_diag", "simulate_steps"):
        return {"amplitude": rng.uniform(0.5, 1.5),
                "phase": rng.uniform(0.0, 2.0 * math.pi)}
    if workload == "verify_hj":
        return {"u_half_width": rng.uniform(1.0, 3.0)}
    return {"amplitude": rng.uniform(0.5, 1.5)}


def scenario_params(workload, seed, size="full"):
    return {**SIZES[workload][size], **draw(workload, seed)}


def render(workload, params):
    """Scenario file text; floats keep all their digits, so the gate's
    closed form sees exactly the values the CLI parses."""
    template = (SCENARIO_DIR / f"{workload}.cfg").read_text(encoding="utf-8")
    return template.format(**{k: repr(v) for k, v in params.items()})


def parse_report(stdout):
    """``key = value`` lines of a CLI report."""
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report[key.strip()] = value.strip()
    return report


def _bounded(problems, report, key, bound):
    try:
        value = float(report[key])
    except (KeyError, ValueError):
        problems.append(f"{key} missing or not a number")
        return
    if not value <= bound:
        problems.append(f"{key} = {value!r} exceeds {bound!r}")


def _frame_spacing(params):
    return params["dt"] * params["store_every"]


def _check_simulate(workload, params, report):
    problems = []
    t_final = params["t_final"]
    amp = params["amplitude"]
    try:
        final_time = float(report["final_time"])
    except (KeyError, ValueError):
        final_time = math.nan
    if not abs(final_time - t_final) <= 1e-9:
        problems.append(f"final_time {final_time!r} is not {t_final!r}")
    # The standing wave amp sin(kx + phase) cos(w t) runs at the discrete
    # frequency of the composed central stencil, whose eigenvalue is
    # -(sin(k h) / h)^2; the RK4 error is below 1e-9.
    h = 1.0 / params["n_nodes"]
    omega = math.hypot(KAPPA, MASS)
    omega_h = math.hypot(math.sin(KAPPA * h) / h, MASS)
    phase_error = abs(math.cos(omega_h * t_final) - math.cos(omega * t_final))
    _bounded(problems, report, "exact_solution_linf_error",
             1.25 * amp * phase_error + 1e-9)
    _bounded(problems, report, "constraint_residual_max", 1e-10)
    try:
        energy = float(report["energy_initial"])
    except (KeyError, ValueError):
        energy = math.nan
    _bounded(problems, report, "energy_drift_max", 1e-9 * energy)
    if workload == "simulate_diag":
        # leading error of the shifted five-point time derivative of the
        # frames: amp w^5 dt_frames^4 / 5, with a factor 5 of margin
        _bounded(problems, report, "trajectory_residual_max",
                 amp * omega ** 5 * _frame_spacing(params) ** 4)
    return problems


def _check_verify_hj(params, report, out_dir):
    problems = []
    samples = params["samples_per_axis"] ** 5
    if not report.get("verified", "").startswith("True"):
        problems.append(f"verified = {report.get('verified')!r}")
    csv = Path(out_dir) / "verify_hj.csv"
    try:
        with open(csv, "rb") as fh:
            rows = sum(1 for _ in fh)
    except OSError as exc:
        problems.append(f"cannot read {csv.name}: {exc}")
    else:
        if rows != samples + 1:
            problems.append(f"{csv.name} has {rows} lines, "
                            f"expected {samples + 1}")
    return problems


def expected_frames_checked(params):
    """Frames hj_lift_solution_check certifies for the scenario."""
    n_steps = round(params["t_final"] / params["dt"])
    frames = n_steps // params["store_every"] + 1
    stride = max(1, frames // 32)
    idx = list(range(0, frames, stride))
    return len(idx) + (idx[-1] != frames - 1)


def _check_characteristics(params, report):
    problems = []
    expected = expected_frames_checked(params)
    if report.get("frames_checked") != str(expected):
        problems.append(f"frames_checked = {report.get('frames_checked')!r},"
                        f" expected {expected}")
    # u = amp cos(MASS t); same five-point derivative error as above
    _bounded(problems, report, "split_residual",
             params["amplitude"] * max(1.0, MASS) ** 5
             * _frame_spacing(params) ** 4)
    _bounded(problems, report, "contraction_residual", ROUNDOFF_BOUND)
    _bounded(problems, report, "pullback_residual", ROUNDOFF_BOUND)
    return problems


def check(workload, params, returncode, stdout, out_dir):
    """Problems found in one CLI run; an empty list means it passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    report = parse_report(stdout)
    if COMMANDS[workload] == "simulate":
        problems += _check_simulate(workload, params, report)
    elif workload == "verify_hj":
        problems += _check_verify_hj(params, report, out_dir)
    else:
        problems += _check_characteristics(params, report)
    return problems
