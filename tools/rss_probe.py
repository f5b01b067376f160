#!/usr/bin/env python3
"""Resident memory of each benchmark-shaped command, phase by phase.

    PYTHONPATH=src python3 tools/rss_probe.py [--workload NAME]
        [--seed N] [--size full|small]

Each workload of ``bench/workloads.py`` (all four by default) renders its
scenario at the seed and size given, as the benchmark does, and its
command runs in a fresh interpreter with the BLAS and OpenMP thread
counts set to 1. That process reads VmHWM (the peak RSS the benchmark
reports), RssAnon and RssFile from ``/proc/self/status``: at its start,
after ``import numpy``, after ``from dedonder_hj import cli``, on entry
to and exit from each phase of the command (``PHASES``, the functions
``cli`` calls by these names; ``>`` marks an entry, ``<`` an exit) and
after ``cli.main`` returns, whose report is discarded. It also says
whether ``numpy.random`` was loaded. Figures are in MB (2^20 bytes).

VmHWM combines the peak the kernel has recorded with its approximate
count of the pages in use, so a mark can read up to about 0.15 MB below
an earlier one; compare phases by their rises, not by single tenths.

The exit code is 1 when a command fails, 0 otherwise; where
``/proc/self/status`` does not exist the probe prints so and exits 0.
Memory depends on the host's libraries and on whether ``src/`` is
compiled on the run: compare workloads of one run, or runs on one host
with the same ``PYTHONDONTWRITEBYTECODE``.
"""

import contextlib
import os
import sys

STATUS = "/proc/self/status"
FIELDS = ("VmHWM", "RssAnon", "RssFile")
#: functions of ``cli`` marked as phases, in the order the commands call them
PHASES = ("parse_scenario", "_levels", "run_simulation", "_diagnostics",
          "_verify_mesh", "reduced_connection", "_verify_columns",
          "_characteristic_run", "hj_lift_solution_check", "_write_csv")


def status():
    """VmHWM, RssAnon and RssFile of this process, in kB."""
    with open(STATUS, encoding="ascii") as fh:
        values = dict(line.split(":", 1) for line in fh)
    return [int(values[name].split()[0]) for name in FIELDS]


def child(command, scenario, out, seed):
    """Run one command in this process, marking memory around each phase;
    prints the marks and returns the command's exit code."""
    marks = [("start", status())]
    import numpy  # noqa: F401
    marks.append(("import numpy", status()))
    from dedonder_hj import cli
    marks.append(("import dedonder_hj.cli", status()))

    def marked(name, function):
        def phase(*args, **kwargs):
            marks.append((f"> {name}", status()))
            try:
                return function(*args, **kwargs)
            finally:
                marks.append((f"< {name}", status()))
        return phase

    for name in PHASES:
        setattr(cli, name, marked(name, getattr(cli, name)))
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        code = cli.main([command, "--scenario", scenario, "--out", out,
                         "--seed", seed])
    marks.append(("end", status()))
    print(f"exit {code}, numpy.random "
          f"{'loaded' if 'numpy.random' in sys.modules else 'not loaded'}")
    print(f"  {'':28s}" + "".join(f"{name:>9s}" for name in FIELDS))
    for label, kb in marks:
        print(f"  {label:28s}" + "".join(f"{v / 1024:9.2f}" for v in kb))
    return code


def main(argv=None):
    # imported here, so that the child's marks do not include them
    import argparse
    import subprocess
    import tempfile
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "bench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.COMMANDS),
                        action="append")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if not os.path.exists(STATUS):
        print(f"no {STATUS} on this host; skipped")
        return 0
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")})
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or list(workloads.COMMANDS):
            scenario = Path(tmp) / f"{workload}.cfg"
            scenario.write_text(workloads.render(
                workload, workloads.scenario_params(workload, args.seed,
                                                    args.size)),
                encoding="utf-8")
            command = workloads.COMMANDS[workload]
            run = subprocess.run(
                [sys.executable, __file__, "--child", command, str(scenario),
                 str(Path(tmp) / "out"), str(args.seed)],
                env=env, capture_output=True, text=True)
            print(f"{workload} ({command}, seed {args.seed}, {args.size}): "
                  + (run.stdout or "\n"), end="")
            if run.returncode:
                failed = True
                print(f"  failed with exit code {run.returncode}:\n"
                      f"{run.stderr[-2000:]}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(*sys.argv[2:6]))
    sys.exit(main())
