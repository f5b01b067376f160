#!/usr/bin/env python3
"""What a command pays to import the package, before any work.

    python3 tools/import_probe.py [--rounds R]

The package source is copied, without bytecode, to a temporary directory.
Each round starts fresh interpreters that time ``import numpy`` and then
``import dedonder_hj.cli`` from that copy, in two modes, alternating
which runs first:

- compiled: ``PYTHONDONTWRITEBYTECODE=1``, so the package is compiled on
  every run, as in a fresh checkout (``bench/run_bench.py``'s children);
- cached: ``PYTHONPYCACHEPREFIX`` set to a private directory, written by
  one untimed import before the rounds, so everything loads as bytecode.

It prints the min and median milliseconds of both imports per mode over
the rounds, and each package module's own import time (``-X importtime``
self time, min over the rounds) per mode. The exit code is 1 when an
interpreter fails, 0 otherwise. Times are host-dependent: compare the
modes of one run, or runs on one host.
"""

import argparse
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dedonder_hj"

#: prints the seconds of ``import numpy`` and then of the package's CLI
TIMED = """
import time
start = time.perf_counter()
import numpy
mid = time.perf_counter()
import dedonder_hj.cli
print(mid - start, time.perf_counter() - mid)
"""

IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S.*)$")


def run(env, *args):
    out = subprocess.run([sys.executable, *args], env=env,
                         capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(out.stderr.strip()[-2000:])
    return out


def self_times(env):
    """{module: self ms} of the package modules in one ``-X importtime``
    run of both imports."""
    err = run(env, "-X", "importtime", "-c",
              "import numpy; import dedonder_hj.cli").stderr
    return {m.group(2).strip(): int(m.group(1)) / 1e3
            for m in map(IMPORT_LINE.match, err.splitlines())
            if m and m.group(2).strip().startswith("dedonder_hj")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="import-probe-") as tmp:
        shutil.copytree(PACKAGE, Path(tmp, "src", "dedonder_hj"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = str(Path(tmp, "src"))
        cache = str(Path(tmp, "pycache"))
        envs = {"compiled": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
                "cached": {**base, "PYTHONPYCACHEPREFIX": cache}}
        try:
            run(envs["cached"], "-c", TIMED)   # writes the private cache
            envs["cached"]["PYTHONDONTWRITEBYTECODE"] = "1"
            times = {mode: ([], []) for mode in envs}
            selfs = {mode: {} for mode in envs}
            for r in range(args.rounds):
                for mode in (list(envs) if r % 2 == 0 else list(envs)[::-1]):
                    numpy_s, package_s = map(
                        float, run(envs[mode], "-c", TIMED).stdout.split())
                    times[mode][0].append(numpy_s * 1e3)
                    times[mode][1].append(package_s * 1e3)
                    for name, ms in self_times(envs[mode]).items():
                        selfs[mode][name] = min(ms, selfs[mode].get(name, ms))
        except RuntimeError as exc:
            print(f"an interpreter failed: {exc}")
            return 1
    print(f"{args.rounds} interleaved rounds of fresh interpreters; "
          f"ms per import: min / median")
    for mode, (numpy_ms, package_ms) in times.items():
        print(f"{mode:9} import numpy {min(numpy_ms):7.2f} / "
              f"{statistics.median(numpy_ms):7.2f}   import dedonder_hj.cli "
              f"{min(package_ms):7.2f} / {statistics.median(package_ms):7.2f}")
    print(f"self ms per package module (-X importtime, min over rounds)\n"
          f"  {'module':22} {'compiled':>9} {'cached':>9}")
    for name in sorted(selfs["compiled"]):
        print(f"  {name:22} {selfs['compiled'][name]:9.2f} "
              f"{selfs['cached'].get(name, float('nan')):9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
