"""The command line's failure contract. Every library error is a
DedonderError whose ``exit_code`` picks the one stderr line ``main``
prints, and no scenario file, however mutated, ends in another exit code,
a second stderr line or a traceback.

The property test mutates small scenario files of the three kinds of run
(Klein-Gordon with the oscillator section, the oscillator, and
``scalar_potential`` with a linear section) and runs every command, and
both sweeps, in process. Values come from a pool of edge values and from
any float; keys move between sections and sections are dropped or
repeated. The keys that size a run draw from small pools instead, so that
no run takes more than a few hundred steps: valid sizes beyond those are
slow, not wrong.
"""

import errno
import io
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dedonder_hj import DedonderError, cli
from dedonder_hj.cauchy import BlowupError, GridError
from dedonder_hj.cotangent import ConstraintError
from dedonder_hj.hj import GammaDomainError, IncompatibleDataError
from dedonder_hj.legendre import NewtonError
from dedonder_hj.models import ModelError
from dedonder_hj.scenario import ScenarioError

OSCILLATOR = """
[model]
name = mechanics_oscillator
omega = 1.0

[time]
dt = 0.01
t_final = 0.1

[initial]
family = constant
amplitude = 1.0

[gamma]
family = oscillator
omega = 1.0
"""


@pytest.mark.parametrize("error, code, prefix", [
    (ScenarioError("bad key"), 2, "error"),
    (ModelError("bad model"), 2, "error"),
    (GridError("bad grid"), 2, "error"),
    (GammaDomainError("near a pole"), 2, "error"),
    (IncompatibleDataError(1.0, 0.5), 4, "refused"),
    (ConstraintError(1.0, 0.5), 4, "refused"),
    (NewtonError("no convergence"), 3, "numerical failure"),
    (BlowupError("|u| exceeded 1e+08 at step 3"), 3, "numerical failure"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_class_exits_with_its_code(
        tmp_path, capsys, monkeypatch, error, code, prefix):
    def command(*args):
        raise error

    assert isinstance(error, DedonderError)
    assert isinstance(error, ValueError if code == 2 else RuntimeError)
    monkeypatch.setattr(cli, "cmd_verify_hj", command)
    path = tmp_path / "scenario.cfg"
    path.write_text(OSCILLATOR)
    assert cli.main(["verify-hj", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: {error}\n"
    assert captured.out == ""


def test_a_residual_that_is_not_finite_is_not_worded_as_an_excess():
    # nan > tol is False, so "residual nan > tol" named a comparison that
    # does not hold
    assert str(ConstraintError(np.nan, 1e-10)) == (
        "state off the momentum constraint: residual nan is not finite; "
        "tol 1.000e-10")
    assert str(IncompatibleDataError(np.nan, 1e-8)) == (
        "initial data incompatible with the restricted connection: "
        "residual nan is not finite; tol 1.000e-08")
    assert str(ConstraintError(-np.inf, 1e-10)).endswith(
        "residual -inf is not finite; tol 1.000e-10")
    assert str(IncompatibleDataError(2.5, 0.5)).endswith(
        "residual 2.500000e+00 > tol 5.000e-01")


def test_a_float_error_is_a_numerical_failure(tmp_path, capsys):
    # the section's p_t overflows at omega = 1e150: numpy printed a
    # RuntimeWarning before "non-finite u at step 1"
    path = tmp_path / "scenario.cfg"
    path.write_text(OSCILLATOR.replace("family = oscillator\nomega = 1.0",
                                       "family = oscillator\nomega = 1e150"))
    before = np.geterr()
    assert cli.main(["characteristics", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == ("numerical failure: overflow "
                                       "encountered in multiply\n")
    assert np.geterr() == before


def test_an_output_file_that_cannot_be_written_is_an_error(tmp_path, capsys):
    # a directory where fields.csv goes raised IsADirectoryError: a
    # traceback and exit code 1
    path = tmp_path / "scenario.cfg"
    path.write_text(OSCILLATOR)
    fields = tmp_path / "out" / "fields.csv"
    fields.mkdir(parents=True)
    assert cli.main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: cannot write '{fields}': "
                                       f"{os.strerror(errno.EISDIR)}\n")


@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1, 1000000000000) "
    "and data type float64", ""])
def test_a_run_too_large_to_allocate_is_an_error(
        tmp_path, capsys, monkeypatch, message):
    # grid.n_nodes = 1000000000000 raised numpy's MemoryError in make_grid:
    # a traceback and exit code 1; the builder raises it here unallocated
    def build_grid(scenario):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_grid", build_grid)
    path = tmp_path / "scenario.cfg"
    path.write_text(OSCILLATOR)
    assert cli.main(["characteristics", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message or 'out of memory'}\n"
    assert captured.out == ""


# -- the property -------------------------------------------------------------

BASES = [
    [("model", [("name", "klein_gordon"), ("mass", "1.0")]),
     ("grid", [("n_nodes", "8"), ("length", "1.0")]),
     ("time", [("dt", "0.01"), ("t_final", "0.1")]),
     ("initial", [("family", "sine"), ("amplitude", "0.5"), ("mode", "1")]),
     ("gamma", [("family", "oscillator"), ("omega", "1.0"),
                ("samples_per_axis", "3")]),
     ("output", [("precision", "17"), ("store_every", "1"),
                 ("pairing_steps", "4"), ("pairing_pairs", "2")])],
    [("model", [("name", "mechanics_oscillator"), ("omega", "1.0"),
                ("n", "1")]),
     ("time", [("dt", "0.01"), ("t_final", "0.1")]),
     ("initial", [("family", "constant"), ("amplitude", "0.75"),
                  ("velocity", "0.5")]),
     ("gamma", [("family", "oscillator"), ("omega", "1.0"),
                ("phi", "0.0"), ("samples_per_axis", "3")]),
     ("output", [("store_every", "2"), ("pairing_steps", "4"),
                 ("pairing_pairs", "2")])],
    [("model", [("name", "scalar_potential"), ("mass", "1.0"),
                ("potential", "0, 0, 0.1")]),
     ("grid", [("n_nodes", "8")]),
     ("time", [("dt", "0.02"), ("t_final", "0.1")]),
     ("initial", [("family", "constant"), ("amplitude", "0.5")]),
     ("gamma", [("family", "linear"), ("a", "0.0"), ("c", "0.0"),
                ("box_u", "-1, 1"), ("samples_per_axis", "3"),
                ("verify_tol", "1e-10")]),
     ("output", [("store_every", "1"), ("pairing_steps", "4"),
                 ("pairing_pairs", "1")])],
]

COMMANDS = ["simulate", "simulate --sweep grid", "simulate --sweep time",
            "verify-hj", "characteristics", "compare",
            "compare --sweep grid", "compare --sweep time", "pairing-check"]

EDGE_VALUES = ["0", "-0.0", "1", "-1", "0.5", "2", "1e-300", "5e-324",
               "1e150", "1e300", "1e308", "-1e308", "nan", "inf", "-inf",
               "x", "", "1_000", "0, 1", "9" * 5000, "sine", "linear",
               "constant", "custom_table", "traveling_wave", "oscillator",
               "free_wave", "scalar_potential", "mechanics_oscillator"]

#: values of the keys that size a run: small ones, and ones it refuses
INVALID_SIZES = ["0", "-1", "2.5", "nan", "x", "", "9" * 5000]
SIZE_VALUES = {
    "n_nodes": ["1", "3", "4", "16", str(2 ** 62)] + INVALID_SIZES,
    "n": ["1", "2", str(2 ** 62)] + INVALID_SIZES,
    "dt": ["0.01", "0.02", "0.05", "0.1", "1", "1e-300", "5e-324",
           "1e300", "inf", "-0.01"] + INVALID_SIZES,
    "t_final": ["0.01", "0.05", "0.1", "0.5", "1", "1e300", "inf",
                "-1"] + INVALID_SIZES,
    "samples_per_axis": ["1", "2", "4"] + INVALID_SIZES,
    "store_every": ["1", "2", "5"] + INVALID_SIZES,
    "pairing_steps": ["4", "5", "6"] + INVALID_SIZES,
    "pairing_pairs": ["1", "3"] + INVALID_SIZES,
}

values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats().map(repr))


def render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys)
                   for name, keys in sections)


@st.composite
def scenario_texts(draw):
    sections = [(name, list(keys))
                for name, keys in draw(st.sampled_from(BASES))]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["value"] * 4 + ["move", "drop",
                                                   "repeat"]))
        if not sections:
            break
        s = draw(st.integers(0, len(sections) - 1))
        name, keys = sections[s]
        if op == "drop":
            del sections[s]
        elif op == "repeat":  # its keys split between the two headers
            j = draw(st.integers(0, len(keys)))
            sections[s:s + 1] = [(name, keys[:j]), (name, keys[j:])]
        elif keys:
            k = draw(st.integers(0, len(keys) - 1))
            key, value = keys[k]
            if op == "value":
                pool = SIZE_VALUES.get(key)
                keys[k] = (key, draw(st.sampled_from(pool) if pool
                                     else values))
            else:  # move
                del keys[k]
                to = draw(st.integers(0, len(sections) - 1))
                sections[to][1].append((key, value))
    return render(sections)


OMEGA_1E150 = render([(name, [(k, "1e150" if (name, k) == ("gamma", "omega")
                               else v) for k, v in keys])
                      for name, keys in BASES[1]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(COMMANDS), text=scenario_texts())
@example(command="characteristics", text=OMEGA_1E150)
@example(command="compare --sweep time",
         text=OMEGA_1E150.replace("amplitude = 0.75", "amplitude = 1e300"))
def test_every_run_exits_with_a_code_and_at_most_one_stderr_line(
        tmp_path_factory, command, text):
    # each numpy warning counts as the lines a process would print
    root = tmp_path_factory.mktemp("run")
    path = root / "scenario.cfg"
    path.write_text(text)
    before = np.geterr()
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(command.split() + ["--scenario", str(path),
                                           "--out", str(root / "out")])
    err = stderr.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught)
    assert code in (0, 2, 3, 4)
    assert err == "" or (len(err.splitlines()) == 1 and err.startswith(
        ("error:", "refused:", "numerical failure:")))
    assert np.geterr() == before
