"""The package's records derive from ``models.Record``, which binds,
freezes, compares, hashes and prints over the annotated fields of a class
without generating code for it; ``@dataclass`` would compile some 70
methods on every import of the package. A command run in a fresh
interpreter must not load ``dataclasses`` at all: numpy and argparse do
not, so only a record defined with ``@dataclass`` again can."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dedonder_hj.cauchy import CauchyState, TangentVariation
from dedonder_hj.models import Dimensions, ModelError, Record, replace

SRC = Path(__file__).resolve().parents[1] / "src"

OSCILLATOR = """
[model]
name = mechanics_oscillator
omega = 1.0

[time]
dt = 0.01
t_final = 0.05

[initial]
family = constant
amplitude = 0.5

[output]
directory = {out}
"""

PROBE = """
import sys
import dedonder_hj
from dedonder_hj import cli
code = cli.main(sys.argv[1:])
print(code, "dataclasses" in sys.modules)
"""


def test_no_command_loads_dataclasses(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(OSCILLATOR.format(out=tmp_path / "out"))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, "simulate", "--scenario", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[-2:] == ["0", "False"], run.stdout


class Point(Record):
    """A record with a default and a check."""
    x: float
    y: float
    label: str = "origin"

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))


def test_positional_keyword_and_default_construction():
    for p in (Point(1, 2.0, "p"), Point(1, y=2.0, label="p"),
              Point(label="p", y=2.0, x=1)):
        assert (p.x, p.y, p.label) == (1.0, 2.0, "p")
        assert type(p.x) is float
    assert Point(1, 2).label == "origin"
    assert Point._fields == ("x", "y", "label")


@pytest.mark.parametrize("args, kwargs, message", [
    ((1,), {}, r"^Point\(\) missing field 'y'$"),
    ((1, 2), {"z": 3}, r"^Point\(\) got an unexpected field 'z'$"),
    ((1, 2), {"x": 3}, r"^Point\(\) got multiple values for field 'x'$"),
    ((1, 2, "a", 4), {}, r"^Point\(\) takes 3 fields, got 4 positional")])
def test_construction_refuses_a_field_by_name(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_records_refuse_assignment_and_deletion():
    p = Point(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 3.0
    with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
        p.z = 3.0
    with pytest.raises(AttributeError, match="cannot delete field 'y'"):
        del p.y
    assert (p.x, p.y) == (1.0, 2)


def test_replace_builds_a_checked_record():
    # a replaced CauchyState also recovers its p_x afresh when stepped:
    # tests/test_cauchy.py::test_replaced_state_recovers_afresh
    p = replace(Point(1, 2), x=5, label="moved")
    assert (p.x, p.y, p.label) == (5.0, 2, "moved")
    with pytest.raises(TypeError, match="unexpected field 'z'"):
        replace(p, z=1)
    with pytest.raises(ModelError, match="non-finite field u"):
        replace(CauchyState(0.0, np.ones((1, 4)), np.ones((1, 4)),
                            np.ones((1, 1, 4))), u=np.full((1, 4), np.nan))


def test_dimensions_compare_and_hash_by_fields():
    assert Dimensions(1, 2) == Dimensions(m=1, n=2)
    assert Dimensions(1, 2) != Dimensions(1, 3)
    assert Dimensions(1, 2) != (1, 2)
    assert len({Dimensions(1, 2), Dimensions(m=1, n=2), Dimensions(0, 2)}) \
        == 2


def test_records_print_their_fields():
    assert repr(Dimensions(1, 2)) == "Dimensions(m=1, n=2)"
    assert repr(Point(1, 2)) == "Point(x=1.0, y=2, label='origin')"
    X = TangentVariation(0.0, np.zeros((1, 2)), np.zeros((1, 2)),
                         np.zeros((1, 1, 2)))
    assert repr(X).startswith("TangentVariation(k=array(0.), du=array(")
    assert repr(X).endswith(", indicators=False)")
