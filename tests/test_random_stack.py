"""Which commands load numpy's random-number stack.

Importing ``numpy.random`` loads its extension modules and, through its
``secrets`` import, OpenSSL's libcrypto: about 5 MB of resident memory. A
command loads it only when it draws: ``simulate`` when it stores at least
MIN_CHECKED_FRAMES frames (its trajectory residual draws a test set),
``characteristics`` and ``pairing-check`` always, ``verify-hj`` and
``compare`` never. The exception is ``scalar_potential``, whose stability
check draws a seeded start vector before a run steps. Each case runs in
a fresh interpreter, since other tests import the generator into this
one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

KG = """
[model]
name = klein_gordon
mass = 1.0

[grid]
n_nodes = 16

[time]
dt = 0.001
t_final = 0.02

[initial]
family = {family}
amplitude = 1.0

[gamma]
family = oscillator
omega = 1.0
samples_per_axis = 3

[output]
directory = {out}
store_every = {store_every}
"""

#: (command and options, initial family, store_every, whether numpy.random
#: is loaded); the oscillator section lifts constant data only
CASES = [
    (["simulate"], "sine", 10, False),          # 3 stored frames
    (["simulate"], "sine", 20, False),          # 2 stored frames
    (["simulate", "--sweep", "time"], "sine", 10, False),
    (["simulate"], "sine", 4, True),            # 6 stored frames
    (["verify-hj"], "constant", 10, False),
    (["compare"], "constant", 10, False),
    (["characteristics"], "constant", 4, True),
    (["pairing-check"], "sine", 10, True),
]

PROBE = """
import sys
from dedonder_hj import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


def random_stack_loaded(tmp_path, argv, family, store_every, model=None):
    out = tmp_path / "out"
    path = tmp_path / "scenario.cfg"
    text = KG.format(out=out, family=family, store_every=store_every)
    if model:
        text = text.replace("name = klein_gordon\nmass = 1.0", model)
    path.write_text(text)
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--scenario", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    code, loaded = run.stdout.split()[-2:]
    assert code == "0", run.stdout + run.stderr
    return loaded == "True"


@pytest.mark.parametrize("argv, family, store_every, loaded", CASES,
                         ids=[" ".join(c[0]) + f" every {c[2]}"
                              for c in CASES])
def test_random_stack_loaded_only_where_drawn(tmp_path, argv, family,
                                              store_every, loaded):
    assert random_stack_loaded(tmp_path, argv, family, store_every) is loaded


def test_scalar_potential_draws_its_stability_start_vector(tmp_path):
    # check_stability estimates scalar_potential's spectral radius from a
    # seeded random start vector, so even a run of 3 frames loads it
    assert random_stack_loaded(tmp_path, ["simulate"], "sine", 10, model=(
        "name = scalar_potential\nmass = 1.0\npotential = 0, 0, 0, 0, 0.1"))
