#!/usr/bin/env python3
"""Benchmark of the dedonder-hj command line.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is taken from ``src/``.
Each CLI command runs in a fresh process, one at a time, with the BLAS and
OpenMP thread counts set to 1, for ``--seconds`` seconds and at least
three commands (four with ``--trace 1``). Every run goes through the
workload's correctness gate (bench/workloads.py).

``--trace 0`` reports the end-to-end metrics: the median wall time, CPU
time and peak RSS of one command, the median set-up time of fresh
processes, and the share of runs that passed the gate. Times are given at
the speed of bench/reference.py, run after every timed process (see
REFERENCE_S).

``--trace 1`` alternates untraced runs with runs under bench/trace_cli.py
and reports the per-layer metrics: medians over the traced runs for
times, and counts that must repeat exactly between traced runs.

The last line of standard output is the result object. The per-run
samples, the sha256 of every CSV and the environment are written to
``.bench_out/results/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from trace_cli import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: a whole invocation ends well within 180 s, however slow the program
BUDGET_S = 170.0
MIN_COMMANDS = 3
#: wall time of bench/reference.py in a fresh process at the speed of an
#: uncontended 2-CPU Xeon VM (Python 3.11, numpy 2.4); with --trace 0,
#: times are reported at this reference speed.
REFERENCE_S = 0.25
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "pass_frac": "frac"}

#: name -> unit. ``<function>.calls|ms|s|ms_per_call|us_per_call`` are
#: read off the traced function of that qualified name.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cauchy.step_rk4.calls": "count",
    "cauchy.step_rk4.ms_per_call": "ms",
    "cauchy.hdw_rhs.ms_per_call": "ms",
    "cauchy.recover_spatial_momenta.calls": "count",
    "cauchy.recover_spatial_momenta.ms_per_call": "ms",
    "cauchy.dynamical_trajectory_residual.calls": "count",
    "cauchy.dynamical_trajectory_residual.ms_per_call": "ms",
    "cauchy.pairing_against_many.calls": "count",
    "cauchy.pairing_against_many.ms_per_call": "ms",
    "cauchy.presymplectic_pairing.calls": "count",
    "cauchy.variation_norm.calls": "count",
    "cauchy.time_derivative_frames.ms": "ms",
    "cauchy.standard_test_variations.ms": "ms",
    "cauchy.standard_test_variations.variations": "count",
    "cauchy.standard_test_variations.bytes": "B_computed",
    "hj.hj_residual.calls": "count",
    "hj.hj_residual.us_per_call": "us",
    "hj.gamma_closedness_residual.calls": "count",
    "hj.gamma_closedness_residual.us_per_call": "us",
    "hj.HJSection.partials.calls": "count",
    "legendre.flatness_residual.calls": "count",
    "legendre.flatness_residual.us_per_call": "us",
    "legendre.ConnectionCoefficients.partials.calls": "count",
    "hj.evolve_characteristics.s": "s",
    "hj.hj_lift_solution_check.s": "s",
    "hj.lift_variation.calls": "count",
    "cotangent.instantaneous_hamiltonian.ms_per_call": "ms",
    "cotangent.time_legendre_constraint_residual.ms_per_call": "ms",
    "cotangent.solve_time_velocity.calls": "count",
    "models.hamiltonian_evals": "count",
    "models.lagrangian_evals": "count",
    "scenario.parse_scenario.ms": "ms",
    "scenario.initial_state.ms": "ms",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "frac",
}
#: counts that repeat exactly between traced runs of the same code and seed
DETERMINISTIC = [name for name, unit in PER_LAYER.items()
                 if unit in ("count", "B_computed", "bytes")]
_SCALE = {"s": 1.0, "ms": 1e3, "ms_per_call": 1e3, "us_per_call": 1e6}
_EVALS = {"models.hamiltonian_evals": "models.HamiltonianModel.",
          "models.lagrangian_evals": "models.LagrangianModel."}


class BenchError(RuntimeError):
    """The benchmark cannot measure: no program, or set-up fails."""


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, run_dir, deadline):
    """Run one process to completion; its rusage comes from wait4, so CPU
    time and peak RSS are those of this child alone. The child is killed
    at ``deadline`` (a perf_counter value)."""
    out_path, err_path = run_dir / "stdout.txt", run_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0,
                    out_path.read_text(encoding="utf-8", errors="replace"),
                    err_path.read_text(encoding="utf-8", errors="replace"))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def layer_values(trace, csv_bytes):
    """Per-layer metrics of one traced run, without the overhead."""
    functions = trace["functions"]
    values = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_frac":
            continue
        layer, _, rest = metric.partition(".")
        if rest == "self_s":
            values[metric] = sum(stat[2] for name, stat in functions.items()
                                 if name.partition(".")[0] == layer)
        elif metric in trace["counters"]:
            values[metric] = trace["counters"][metric]
        elif metric in _EVALS:
            values[metric] = sum(stat[0] for name, stat in functions.items()
                                 if name.startswith(_EVALS[metric]))
        elif metric == "cli.csv_bytes":
            values[metric] = csv_bytes
        else:
            function, _, suffix = metric.rpartition(".")
            calls, total, _ = functions.get(function, (0, 0.0, 0.0))
            if suffix == "calls":
                values[metric] = calls
            elif suffix.endswith("_per_call"):
                values[metric] = total / calls * _SCALE[suffix] if calls \
                    else 0.0
            else:
                values[metric] = total * _SCALE[suffix]
    return values


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "threads": {name: "1" for name in THREAD_VARS},
            "git_commit": git_commit(),
            "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (result object, detail record)."""
    if not (SRC / "dedonder_hj" / "cli.py").is_file():
        raise BenchError(f"no dedonder_hj package under {SRC}")
    run_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, size, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, size, run_dir):
    start = time.perf_counter()
    deadline = start + BUDGET_S
    params = workloads.scenario_params(workload, seed, size)
    scenario = run_dir / "scenario.cfg"
    scenario.write_text(workloads.render(workload, params), encoding="utf-8")
    out_dir = run_dir / "out"
    command = workloads.COMMANDS[workload]
    cli_args = [command, "--scenario", str(scenario), "--out", str(out_dir),
                "--seed", str(seed)]

    # The speed of a shared machine drifts by half within minutes. With
    # --trace 0 every timed process is followed by a run of reference.py,
    # and its times are scaled by REFERENCE_S over the mean wall time of
    # the two reference runs around it.
    references = []

    def speed_factor():
        run = run_child([sys.executable, str(BENCH / "reference.py")],
                        run_dir, deadline)
        if run.returncode != 0:
            raise BenchError(f"reference exited with {run.returncode}:\n"
                             f"{run.stderr}")
        references.append(run.wall_s)
        return REFERENCE_S / statistics.fmean(references[-2:])

    # The first probe fills the file cache and writes the bytecode; only
    # the ones after it are timed.
    setup, setup_raw = [], []
    probe = [sys.executable, str(BENCH / "setup_probe.py"), command,
             str(scenario)]
    for i in range(1 + (0 if trace else SETUP_PROBES)):
        run = run_child(probe, run_dir, deadline)
        if run.returncode != 0:
            raise BenchError(f"set-up probe exited with {run.returncode}:\n"
                             f"{run.stderr}")
        if not trace and i == 0:
            speed_factor()
        elif i:
            try:
                value = json.loads(run.stdout.splitlines()[-1])["setup_s"]
            except (IndexError, KeyError, ValueError) as exc:
                raise BenchError(f"set-up probe printed {run.stdout!r}") \
                    from exc
            setup_raw.append(value)
            setup.append(value * speed_factor())

    kinds = ("plain", "traced") if trace else ("plain",)
    min_runs = 4 if trace else MIN_COMMANDS
    runs = {kind: [] for kind in kinds}
    samples = {kind: [] for kind in kinds}
    # plain runs that passed the gate, with their speed factors (1 when
    # traced); a failed run's time is not the workload's time
    passed = []
    traces, failures, digests = [], [], {}
    while True:
        done = sum(len(r) for r in runs.values())
        now = time.perf_counter()
        if done >= min_runs and now - start >= seconds:
            break
        kind = kinds[done % len(kinds)]
        longest = max((r.wall_s for r in runs[kind]), default=0.0)
        if done >= min_runs and now + 1.5 * longest > deadline:
            break
        shutil.rmtree(out_dir, ignore_errors=True)
        trace_path = run_dir / "trace.json"
        trace_path.unlink(missing_ok=True)
        if kind == "traced":
            argv = [sys.executable, str(BENCH / "trace_cli.py"),
                    "--trace-out", str(trace_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "dedonder_hj.cli", *cli_args]
        run = run_child(argv, run_dir, deadline)
        runs[kind].append(run)
        factor = 1.0 if trace else speed_factor()
        problems = workloads.check(workload, params, run.returncode,
                                   run.stdout, out_dir)
        csvs = sorted(out_dir.glob("*.csv"))
        for path in csvs:
            seen = digests.setdefault(path.name, [])
            digest = sha256(path)
            if digest not in seen:
                seen.append(digest)
        if kind == "traced" and not problems:
            try:
                values = layer_values(json.loads(trace_path.read_text()),
                                      sum(p.stat().st_size for p in csvs))
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable trace: {exc!r}")
            else:
                differ = [m for m in DETERMINISTIC
                          if traces and values[m] != traces[0][m]]
                if differ:
                    problems.append("counts differ from the first traced "
                                    "run: " + ", ".join(
                                        f"{m} {traces[0][m]} -> {values[m]}"
                                        for m in differ))
                traces.append(values)
        samples[kind].append({"wall_s": run.wall_s, "cpu_s": run.cpu_s,
                              "peak_rss_mb": run.peak_rss_mb,
                              "returncode": run.returncode,
                              "speed_factor": factor,
                              "passed": not problems})
        if problems:
            failures.append({"run": done, "kind": kind, "problems": problems,
                             "stderr": run.stderr[-2000:]})
        elif kind == "plain":
            passed.append((run, factor))

    attempted = sum(len(r) for r in runs.values())
    if not passed:
        raise BenchError("no untraced run passed the gate: "
                         + json.dumps(failures))
    if trace:
        if not traces:
            raise BenchError("no traced run passed the gate: "
                             + json.dumps(failures))
        metrics = {m: (traces[0][m] if m in DETERMINISTIC else
                       statistics.median(t[m] for t in traces))
                   for m in traces[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in runs["traced"])
            / statistics.median(r.wall_s for r, _ in passed) - 1.0)
        units = PER_LAYER
        counts = {"traced": len(traces), "untraced": len(passed)}
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s * f for r, f in passed),
            "cpu_s": statistics.median(r.cpu_s * f for r, f in passed),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.peak_rss_mb
                                             for r, _ in passed),
            "pass_frac": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END
        counts = {m: len(passed) for m in units}
        counts.update(setup_s=len(setup), pass_frac=attempted)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {m: {"value": metrics[m], "unit": units[m]}
                          for m in units}}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "scenario": params,
        "command": command,
        "samples": samples,
        "sample_counts": counts,
        "setup_s": setup_raw,
        "reference_s": references,
        "csv_sha256": digests,
        "failures": failures,
        "environment": environment(),
        "result": result,
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # SIGTERM unwinds like an exception, so the running child is killed
    # and waited for, and the run directory is removed.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    try:
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for failure in detail["failures"]:
        print(f"failed run {failure['run']} ({failure['kind']}): "
              + "; ".join(failure["problems"]))
    print(f"detail: {path.relative_to(ROOT)}")
    print("samples: " + ", ".join(f"{m} {n}" for m, n in
                                  detail["sample_counts"].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
