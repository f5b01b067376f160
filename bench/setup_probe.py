"""Time the set-up of one CLI command in a fresh process.

    python3 bench/setup_probe.py <simulate|verify-hj|characteristics> SCENARIO

Set-up is importing dedonder_hj, parsing the scenario and building the
model, the Hamiltonian, and the grid, section and initial fields where the
command uses them. Prints ``{"setup_s": seconds}``, timed from before the
first import of the package to the end of set-up.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(command, scenario_path):
    from dedonder_hj import cli  # noqa: F401  (imports every layer)
    from dedonder_hj.scenario import (build_gamma, build_grid, build_model,
                                      hamiltonian_for, initial_fields,
                                      initial_state, parse_scenario)

    scenario = parse_scenario(scenario_path)
    L = build_model(scenario)
    H = hamiltonian_for(L)
    if command in ("simulate", "characteristics"):
        grid = build_grid(scenario)
    if command in ("verify-hj", "characteristics"):
        build_gamma(scenario, L.dims)
    if command == "simulate":
        initial_state(scenario, grid, L, H)
    elif command == "characteristics":
        initial_fields(scenario, grid, L.dims.n)
    return time.perf_counter() - START


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(*sys.argv[1:3])}))
