"""Self-test of the benchmark at the smallest sizes.

    python3 bench/selftest.py

For every workload: runs the CLI once and checks that the gate passes and
that it rejects a wrong exit code and corrupted report lines (and, for
verify_hj, a truncated CSV); then runs the benchmark untraced and traced
and checks that every metric BENCHMARK.json declares is reported. Prints
one line per check and exits 1 if any failed.
"""

import json
import re
import shutil
import sys
import time

import run_bench
import workloads

SEED = 7

#: (report key, corrupted value) per workload; each must fail the gate
CORRUPTIONS = {
    "simulate_diag": [("exact_solution_linf_error", "0.5"),
                      ("constraint_residual_max", "1e-6"),
                      ("energy_drift_max", "1.0"),
                      ("trajectory_residual_max", "nan"),
                      ("final_time", "0.5")],
    "simulate_steps": [("exact_solution_linf_error", "0.5"),
                       ("energy_drift_max", "inf"),
                       ("constraint_residual_max", "1e-3")],
    "verify_hj": [("verified", "False (tol 1e-10)")],
    "characteristics": [("frames_checked", "1"),
                        ("split_residual", "0.01"),
                        ("contraction_residual", "1e-3"),
                        ("pullback_residual", "nan")],
}


def corrupt(stdout, key, value):
    return re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", stdout,
                  flags=re.MULTILINE)


def gate_checks(workload, run_dir, report):
    params = workloads.scenario_params(workload, SEED, "small")
    scenario = run_dir / "scenario.cfg"
    scenario.write_text(workloads.render(workload, params), encoding="utf-8")
    out_dir = run_dir / "out"
    run = run_bench.run_child(
        [sys.executable, "-m", "dedonder_hj.cli",
         workloads.COMMANDS[workload], "--scenario", str(scenario),
         "--out", str(out_dir), "--seed", str(SEED)],
        run_dir, time.perf_counter() + 120)

    def gate(returncode=run.returncode, stdout=run.stdout):
        return workloads.check(workload, params, returncode, stdout, out_dir)

    report(f"{workload}: gate passes", not gate(), gate())
    report(f"{workload}: gate rejects exit code 3", gate(returncode=3))
    for key, value in CORRUPTIONS[workload]:
        report(f"{workload}: gate rejects {key} = {value!r}",
               gate(stdout=corrupt(run.stdout, key, value)))
        report(f"{workload}: gate rejects a missing {key}",
               gate(stdout=corrupt(run.stdout, key, "").replace(
                   f"{key} = \n", "")))
    if workload == "verify_hj":
        csv = out_dir / "verify_hj.csv"
        csv.write_text("".join(csv.read_text().splitlines(True)[:-1]))
        report(f"{workload}: gate rejects a truncated CSV", gate())


def metric_checks(workload, declared, report):
    for trace in (False, True):
        result, detail = run_bench.measure(workload, SEED, 0, trace,
                                           size="small")
        label = f"{workload} --trace {int(trace)}"
        report(f"{label}: every run passes",
               result["correct"] and result["failed"] == 0,
               detail["failures"])
        names = set(result["metrics"])
        expected = declared["per_layer" if trace else "end_to_end"]
        report(f"{label}: reports the metrics BENCHMARK.json declares",
               names == expected, sorted(names ^ expected))


def main():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"] for m in spec[key]}
                for key in ("end_to_end", "per_layer")}
    failed = []

    def report(name, ok, info=None):
        print(f"{'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok or info is None else f": {info}"), flush=True)
        if not ok:
            failed.append(name)

    report("BENCHMARK.json names the workloads",
           {w["name"] for w in spec["workloads"]} == set(workloads.COMMANDS))
    run_dir = run_bench.OUT / "selftest"
    for workload in workloads.COMMANDS:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            gate_checks(workload, run_dir, report)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        metric_checks(workload, declared, report)
    print(f"{len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
