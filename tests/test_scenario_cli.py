import errno
import hashlib
import os
import warnings

import numpy as np
import pytest

from dedonder_hj import cli, scenario
from dedonder_hj.cli import main
from dedonder_hj.scenario import (Scenario, ScenarioError, exact_solution,
                                  initial_fields, parse_scenario)
from dedonder_hj.cauchy import make_grid
from dedonder_hj.models import HamiltonianModel, builtin_model, replace

KG_CONSTANT = """
[model]
name = klein_gordon
mass = 1.0

[grid]
n_nodes = 16

[time]
dt = 0.001
t_final = 1.0

[initial]
family = constant
amplitude = 1.0

[gamma]
family = oscillator
omega = 1.0

[output]
directory = {out}
store_every = 10
"""

WAVE = """
[model]
name = free_wave

[grid]
n_nodes = 64

[time]
dt = 0.001
t_final = 0.02

[initial]
family = traveling_wave
amplitude = 1.0
mode = 1

[output]
directory = {out}
"""

OSCILLATOR = """
[model]
name = mechanics_oscillator
omega = 1.0

[time]
dt = 0.001
t_final = 1.0

[initial]
family = constant
amplitude = 1.0

[gamma]
family = oscillator
omega = 1.0

[output]
directory = {out}
store_every = 10
"""


def write(tmp_path, text, name="scenario.cfg", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path)


# -- parsing -------------------------------------------------------------------

def test_parse_minimal_defaults(tmp_path):
    path = write(tmp_path, """
[model]
name = free_wave

[time]
dt = 0.01
t_final = 0.1

[initial]
family = sine
""")
    sc = parse_scenario(path)
    assert sc.length == 1.0
    assert sc.precision == 17
    assert sc.n_nodes == 64
    assert sc.gamma_name is None
    assert sc.m == 1 and sc.n_steps == 10


@pytest.mark.parametrize("model, n_nodes", [("free_wave", 64),
                                            ("mechanics_oscillator", 1)])
def test_every_default_is_on_the_parsed_scenario(tmp_path, model, n_nodes):
    # a file with only the required keys; every other value is a default
    path = write(tmp_path, f"""
[model]
name = {model}

[time]
dt = 0.01
t_final = 0.1

[initial]
family = constant
""")
    assert parse_scenario(path) == Scenario(
        path=path, model_name=model, model_params={}, n_nodes=n_nodes,
        length=1.0, dt=0.01, t_final=0.1, initial_family="constant",
        initial_params={"amplitude": 1.0, "velocity": 0.0, "mode": 1,
                        "phase": 0.0, "file": None, "perturb_px": 0.0},
        gamma_name=None, gamma_params={}, output_dir="out", precision=17,
        store_every=1,
        verify_box={"t": (0.0, 1.0), "x": (0.0, 1.0), "u": (-2.0, 2.0)},
        verify_samples=10, verify_tol=1e-10, pairing_steps=10,
        pairing_pairs=20)


def test_parse_rejects_zero_dt(tmp_path):
    path = write(tmp_path, """
[model]
name = free_wave

[time]
dt = 0.0
t_final = 1.0

[initial]
family = sine
""")
    with pytest.raises(ScenarioError, match="time.dt must be positive"):
        parse_scenario(path)


def test_parse_error_has_line_anchor(tmp_path):
    path = write(tmp_path, """
[model]
name = free_wave

[time]
dt = -1
t_final = 1.0

[initial]
family = sine
""")
    with pytest.raises(ScenarioError, match=r"scenario\.cfg:6"):
        parse_scenario(path)


def test_parse_unknown_gamma_family_names_known(tmp_path):
    path = write(tmp_path, """
[model]
name = free_wave

[time]
dt = 0.01
t_final = 0.1

[initial]
family = sine

[gamma]
family = generating
""")
    with pytest.raises(ScenarioError, match="linear, oscillator"):
        parse_scenario(path)


def test_parse_unknown_model(tmp_path):
    path = write(tmp_path, """
[model]
name = navier_stokes

[time]
dt = 0.01
t_final = 0.1

[initial]
family = sine
""")
    with pytest.raises(ScenarioError, match="unknown model.name"):
        parse_scenario(path)


def test_parse_refuses_a_key_given_twice(tmp_path):
    text = KG_SINE + "\n[time]\ndt = 0.02\n"
    path = write(tmp_path, text)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(path)
    assert str(info.value) == (f"{path}:{len(text.splitlines())}: duplicate "
                               f"key time.dt (first on line 10)")
    # a repeated [section] still merges keys that differ
    path = write(tmp_path, KG_SINE + "\n[model]\nn = 2\n")
    assert parse_scenario(path).model_params == {"mass": 1.0, "n": 2}


def test_parse_unknown_key_rejected(tmp_path):
    path = write(tmp_path, """
[model]
name = free_wave

[time]
dt = 0.01
t_final = 0.1
step_count = 7

[initial]
family = sine
""")
    with pytest.raises(ScenarioError, match="unknown key time.step_count"):
        parse_scenario(path)


def test_initial_families(tmp_path):
    path = write(tmp_path, WAVE)
    sc = parse_scenario(path)
    grid = make_grid(sc.n_nodes, sc.length)
    u, p_t = initial_fields(sc, grid, 1)
    xs = grid.x[0]
    assert np.allclose(u[0], np.sin(2 * np.pi * xs))
    assert np.allclose(p_t[0], -2 * np.pi * np.cos(2 * np.pi * xs))
    sol = exact_solution(sc)
    assert np.allclose(sol(0.0, grid, 1), u)


def test_custom_table_initial(tmp_path):
    table = tmp_path / "init.csv"
    rows = ["u_1,pt_1"] + [f"{0.1 * j},{0.2 * j}" for j in range(8)]
    table.write_text("\n".join(rows) + "\n")
    path = write(tmp_path, """
[model]
name = free_wave

[grid]
n_nodes = 8

[time]
dt = 0.01
t_final = 0.1

[initial]
family = custom_table
file = %s
""" % table)
    sc = parse_scenario(path)
    grid = make_grid(8)
    u, p_t = initial_fields(sc, grid, 1)
    assert u[0, 3] == pytest.approx(0.3)
    assert p_t[0, 5] == pytest.approx(1.0)


def test_relative_table_path_is_read_beside_the_scenario(tmp_path,
                                                         monkeypatch):
    # the same scenario runs from its own directory and from its parent
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "table.csv").write_text(
        "u,p_t\n" + "".join(f"{0.1 * j},0\n" for j in range(16)))
    path = write(sub, kg("family = sine",
                         "family = custom_table\nfile = table.csv"))
    fields = []
    for cwd in (sub, tmp_path):
        monkeypatch.chdir(cwd)
        assert main(["simulate", "--scenario", os.path.relpath(path)]) == 0
        fields.append((sub / "out" / "fields.csv").read_bytes())
    assert fields[0] == fields[1]
    assert parse_scenario(path).initial_params["file"] == str(sub /
                                                              "table.csv")


# -- commands ------------------------------------------------------------------

def test_simulate_kg_constant(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, KG_CONSTANT, out=str(out))
    assert main(["simulate", "--scenario", path]) == 0
    text = capsys.readouterr().out
    assert "exact_solution_linf_error" in text
    err = float(text.split("exact_solution_linf_error = ")[1].split()[0])
    assert err <= 1e-9
    fields = (out / "fields.csv").read_text().splitlines()
    assert fields[0] == "t,node_index,x,u_1,pt_1,px_1"
    diags = (out / "diagnostics.csv").read_text().splitlines()
    assert diags[0] == "t,energy,constraint_residual,trajectory_residual"
    assert len(diags) == 102  # header + 101 stored frames


def test_simulate_zero_initial_data(tmp_path):
    out = tmp_path / "out"
    path = write(tmp_path, """
[model]
name = free_wave

[grid]
n_nodes = 8

[time]
dt = 0.01
t_final = 0.05

[initial]
family = constant
amplitude = 0.0

[output]
directory = {out}
""", out=str(out))
    assert main(["simulate", "--scenario", path]) == 0
    rows = (out / "fields.csv").read_text().splitlines()[1:]
    for row in rows:
        assert [float(v) for v in row.split(",")[3:]] == [0.0, 0.0, 0.0]


def test_simulate_wave_diagnostics_small(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, WAVE, out=str(out))
    assert main(["simulate", "--scenario", path]) == 0
    text = capsys.readouterr().out
    traj = float(text.split("trajectory_residual_max = ")[1].split()[0])
    assert traj <= 5e-3


def test_simulate_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    path = write(tmp_path, KG_CONSTANT, out=str(out1))
    assert main(["simulate", "--scenario", path]) == 0
    assert main(["simulate", "--scenario", path, "--out", str(out2)]) == 0
    assert (out1 / "fields.csv").read_bytes() == (out2 / "fields.csv").read_bytes()
    assert (out1 / "diagnostics.csv").read_bytes() \
        == (out2 / "diagnostics.csv").read_bytes()


def test_csv_values_roundtrip(tmp_path):
    out = tmp_path / "out"
    path = write(tmp_path, KG_CONSTANT, out=str(out))
    main(["simulate", "--scenario", path])
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    # 17 significant digits survive a parse/format cycle
    for row in rows[:5]:
        for cell in row.split(","):
            v = float(cell)
            if np.isfinite(v):
                assert float(format(v, ".17g")) == v


def test_verify_hj_pass_and_refuse(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, """
[model]
name = free_wave

[time]
dt = 0.01
t_final = 0.1

[initial]
family = sine

[gamma]
family = linear
a = 0.5
c = 0.5

[output]
directory = {out}
""", out=str(out))
    assert main(["verify-hj", "--scenario", path]) == 0
    text = capsys.readouterr().out
    assert "verified = True" in text
    for key in ("closedness_sup", "hj_sup", "flatness_sup"):
        assert float(text.split(f"{key} = ")[1].split()[0]) <= 1e-12
    bad = write(tmp_path, """
[model]
name = klein_gordon
mass = 1.0

[time]
dt = 0.01
t_final = 0.1

[initial]
family = sine

[gamma]
family = linear
a = 0.0

[output]
directory = {out}
""", name="bad.cfg", out=str(out))
    assert main(["verify-hj", "--scenario", bad]) == 4
    text = capsys.readouterr().out
    sup = float(text.split("hj_sup = ")[1].split()[0])
    assert sup == pytest.approx(2.0, abs=1e-12)  # mass^2 u_max over the box


def test_verify_hj_pole_refusal(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, """
[model]
name = klein_gordon
mass = 1.0

[time]
dt = 0.01
t_final = 0.1

[initial]
family = constant

[gamma]
family = oscillator
omega = 1.0
box_t = 0,3.141592653589793
samples_per_axis = 3

[output]
directory = {out}
""", out=str(out))
    # the 3-point mesh hits t = pi/2 exactly
    assert main(["verify-hj", "--scenario", path]) == 2
    assert "pole" in capsys.readouterr().err


def test_characteristics_and_compare_kg(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, KG_CONSTANT, out=str(out))
    assert main(["characteristics", "--scenario", path]) == 0
    text = capsys.readouterr().out
    for key in ("split_residual", "contraction_residual", "pullback_residual"):
        assert float(text.split(f"{key} = ")[1].split()[0]) <= 1e-6
    assert (out / "characteristics.csv").exists()
    assert main(["compare", "--scenario", path]) == 0
    text = capsys.readouterr().out
    assert float(text.split("linf_difference_max = ")[1].split()[0]) <= 1e-6
    assert "flagged = False" in text


def test_characteristics_oscillator_m0(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, OSCILLATOR, out=str(out))
    assert main(["characteristics", "--scenario", path]) == 0
    rows = (out / "characteristics.csv").read_text().splitlines()
    assert rows[0] == "t,node_index,x,u_1,pt_1"
    last = rows[-1].split(",")
    assert float(last[3]) == pytest.approx(np.cos(1.0), abs=1e-9)


def test_characteristics_refuses_incompatible_data(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, """
[model]
name = free_wave

[grid]
n_nodes = 128

[time]
dt = 0.001
t_final = 0.01

[initial]
family = sine
amplitude = 1.0

[gamma]
family = linear
a = 0.0

[output]
directory = {out}
""", out=str(out))
    assert main(["characteristics", "--scenario", path]) == 4
    err = capsys.readouterr().err
    assert "incompatible" in err
    residual = float(err.split("residual ")[1].split()[0])
    assert residual == pytest.approx(2 * np.pi, rel=1e-2)


def test_compare_flags_broken_gamma(tmp_path, capsys):
    out = tmp_path / "out"
    broken = KG_CONSTANT.replace("omega = 1.0\n", "omega = 1.1\n", 1)
    broken = broken.replace("t_final = 1.0", "t_final = 0.5")
    # perturb only the gamma section's omega (model has no omega key)
    path = write(tmp_path, broken, out=str(out))
    code = main(["compare", "--scenario", path])
    text = capsys.readouterr().out
    assert code == 4
    assert "gamma_verified = False" in text
    assert "flagged = True" in text
    assert float(text.split("linf_difference_max = ")[1].split()[0]) >= 1e-2


def test_pairing_check_wave(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, WAVE, out=str(out))
    assert main(["pairing-check", "--scenario", path, "--seed", "42"]) == 0
    text = capsys.readouterr().out
    assert float(text.split("pullback_identity_residual_max = ")[1].split()[0]) <= 1e-10
    assert float(text.split("cotangent_trajectory_residual = ")[1].split()[0]) <= 1e-8


def test_pairing_check_constant_klein_gordon(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, KG_CONSTANT.replace("store_every = 10", ""),
                 out=str(out))
    assert main(["pairing-check", "--scenario", path]) == 0
    text = capsys.readouterr().out
    assert float(text.split("cotangent_trajectory_residual = ")[1].split()[0]) <= 1e-8


def test_compare_sweep_emits_convergence_table(tmp_path, capsys):
    # constant-data comparison sits at the time-integration floor, so the
    # sweep table is exercised for shape, not for a ratio
    out = tmp_path / "out"
    path = write(tmp_path, KG_CONSTANT.replace("t_final = 1.0",
                                               "t_final = 0.2"), out=str(out))
    assert main(["compare", "--scenario", path, "--sweep", "time"]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "level,n_nodes,dt,linf_difference,ratio"
    assert len(rows) == 3
    assert float(rows[1].split(",")[3]) <= 1e-9


def test_pairing_check_off_constraint(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, WAVE + "\n[initial]\nperturb_px = 0.5\n",
                 name="perturbed.cfg", out=str(out))
    # appending a second [initial] block merges into the same section
    assert main(["pairing-check", "--scenario", path]) == 4
    assert "off_constraint_residual" in capsys.readouterr().out


def test_pairing_check_keeps_a_nan_residual(tmp_path, capsys, monkeypatch):
    # a free-wave H whose dH/du is NaN above u = 1.5, with the stored
    # frames after the first moved up by 1, so that they reach u = 2: their
    # pullback residuals are NaN, which a Python max after the first
    # frame's finite residuals dropped
    free = builtin_model("free_wave").paired_hamiltonian
    H = HamiltonianModel(
        free.dims, free._value, d_pt=free._d_pt, d_px=free._d_px,
        momentum_jacobian=free._momentum_jacobian,
        spatial_momenta=free._spatial_momenta,
        d_u=lambda t, x, u, p_t, p_x: np.where(u > 1.5, np.nan, 0.0 * u))
    run = cli.run_simulation

    def raised(*args, **kwargs):
        frames = run(*args, **kwargs)
        return replace(frames, u=frames.u + (np.arange(len(frames.t)) > 0)
                       [:, None, None])

    monkeypatch.setattr(cli, "hamiltonian_for", lambda L: H)
    monkeypatch.setattr(cli, "run_simulation", raised)
    path = write(tmp_path, WAVE)
    assert main(["pairing-check", "--scenario", path]) == 0
    assert "pullback_identity_residual_max = nan\n" in capsys.readouterr().out


def test_sweep_grid_ratio(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, """
[model]
name = free_wave

[grid]
n_nodes = 64

[time]
dt = 0.001
t_final = 0.2

[initial]
family = traveling_wave

[output]
directory = {out}
""", out=str(out))
    assert main(["simulate", "--scenario", path, "--sweep", "grid"]) == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "level,n_nodes,dt,linf_error,ratio"
    ratio = float(rows[2].split(",")[-1])
    assert 3.5 <= ratio <= 4.5


def test_sweep_rejected_elsewhere(tmp_path, capsys):
    path = write(tmp_path, KG_CONSTANT, out=str(tmp_path / "o"))
    assert main(["verify-hj", "--scenario", path, "--sweep", "grid"]) == 2


def test_missing_scenario_file(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("sub, errno_", [("", errno.EEXIST),
                                         ("sub", errno.ENOTDIR)],
                         ids=["file", "below-a-file"])
def test_out_naming_a_file_is_a_validation_error(tmp_path, capsys, sub,
                                                 errno_):
    # unrefused, both raised a traceback, the first with exit status 1
    path = write(tmp_path, KG_CONSTANT)
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / sub if sub else tmp_path / "taken"
    assert main(["verify-hj", "--scenario", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot create output directory "
                            f"'{out}': {os.strerror(errno_)}\n")
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["-1", "-1e-300"])
def test_parse_refuses_negative_verify_tol(tmp_path, tol):
    text = KG_CONSTANT.replace("omega = 1.0\n", f"omega = 1.0\n"
                               f"verify_tol = {tol}\n", 1)
    path = write(tmp_path, text)
    lineno = text.splitlines().index(f"verify_tol = {tol}") + 1
    with pytest.raises(ScenarioError) as info:
        parse_scenario(path)
    assert str(info.value) == (f"{path}:{lineno}: gamma.verify_tol must be "
                               f">= 0")
    zero = write(tmp_path, text.replace(f"verify_tol = {tol}",
                                        "verify_tol = 0"), name="zero.cfg")
    assert parse_scenario(zero).verify_tol == 0.0


def test_negative_verify_tol_refused_before_any_output(tmp_path, capsys):
    # unrefused, verify-hj checked the whole mesh, wrote verify_hj.csv and
    # exited 4 as a failed certification
    out = tmp_path / "out"
    text = KG_CONSTANT.replace("omega = 1.0\n",
                               "omega = 1.0\nverify_tol = -1\n", 1)
    path = write(tmp_path, text, out=str(out))
    lineno = text.splitlines().index("verify_tol = -1") + 1
    assert main(["verify-hj", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}:{lineno}: gamma.verify_tol must "
                            f"be >= 0\n")
    assert captured.out == ""
    assert not out.exists()


# -- RK4 stability bound -------------------------------------------------------

def kg_sine(n_nodes, dt_per_h, steps=300):
    """Klein-Gordon sine data stepped at dt = dt_per_h * h; unrefused, the
    run at dt = 2.95 h passes |u| = 1e8 at step 191 (exit code 3)."""
    dt = dt_per_h / n_nodes
    return f"""
[model]
name = klein_gordon
mass = 1.0

[grid]
n_nodes = {n_nodes}

[time]
dt = {dt!r}
t_final = {steps * dt!r}

[initial]
family = sine

[output]
directory = {{out}}
"""


def test_simulate_refuses_step_past_rk4_bound(tmp_path, capsys):
    # dt = 2.95 h: |lambda dt| = 2.95 sqrt(1 + h^2) > 2 sqrt 2
    out = tmp_path / "out"
    path = write(tmp_path, kg_sine(32, 2.95), out=str(out))
    assert main(["simulate", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "2*sqrt(2) = 2.82843" in err and "need dt <= " in err
    assert not (out / "fields.csv").exists()


def test_simulate_runs_inside_rk4_bound(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, kg_sine(32, 2.7), out=str(out))
    assert main(["simulate", "--scenario", path]) == 0
    assert (out / "fields.csv").exists()


def test_sweep_level_past_rk4_bound_refused_before_stepping(tmp_path, capsys):
    # level 0 at dt = 2 h is stable; the grid sweep halves h at level 1
    out = tmp_path / "out"
    path = write(tmp_path, kg_sine(32, 2.0), out=str(out))
    assert main(["simulate", "--scenario", path, "--sweep", "grid"]) == 2
    assert "N=64" in capsys.readouterr().err
    assert not (out / "fields.csv").exists()
    assert main(["simulate", "--scenario", path, "--sweep", "time"]) == 0


@pytest.mark.parametrize("command", ["compare", "pairing-check"])
def test_other_stepping_commands_refuse_past_rk4_bound(tmp_path, capsys,
                                                        command):
    dt = 2.95 / 16
    text = KG_CONSTANT.replace("dt = 0.001", f"dt = {dt!r}").replace(
        "t_final = 1.0", f"t_final = {100 * dt!r}")
    path = write(tmp_path, text, out=str(tmp_path / "out"))
    assert main([command, "--scenario", path]) == 2
    assert "RK4 unstable" in capsys.readouterr().err


def potential_sine(dt, potential, amplitude, steps=400, n_nodes=32):
    return f"""
[model]
name = scalar_potential
mass = 1.0
potential = {potential}

[grid]
n_nodes = {n_nodes}

[time]
dt = {dt!r}
t_final = {steps * dt!r}

[initial]
family = sine
amplitude = {amplitude}

[output]
directory = {{out}}
store_every = {steps}
"""


def suggested_dt(err):
    return float(err.rsplit("need dt <= ", 1)[1])


def test_scalar_potential_refused_past_linearised_bound(tmp_path, capsys):
    # V = 5 u^4 at amplitude 2: dt = 0.088 is inside the Klein-Gordon
    # bound 2 sqrt 2 / sqrt(32^2 + 1) = 0.0883, but the curvature
    # V'' = 60 u^2 of the initial state pushes the radius of the
    # linearised right-hand side to about 34.4; unrefused, the run passes
    # |u| = 1e8 at step 118 (exit code 3)
    out = tmp_path / "out"
    path = write(tmp_path, potential_sine(0.088, "0, 0, 0, 0, 5", 2.0),
                 out=str(out))
    assert main(["simulate", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "RK4 unstable at N=32: dt*|lambda|" in err
    assert "2*sqrt(2) = 2.82843" in err
    limit = suggested_dt(err)
    assert 0.080 < limit < 0.084
    assert not (out / "fields.csv").exists()
    # just inside the reported limit the same run completes
    inside = write(tmp_path, potential_sine(0.985 * limit, "0, 0, 0, 0, 5",
                                            2.0),
                   name="inside.cfg", out=str(out))
    assert main(["simulate", "--scenario", inside]) == 0
    assert (out / "fields.csv").exists()


def test_scalar_potential_overflowing_linearisation_is_refused(tmp_path,
                                                              capsys):
    # V = 0.1 u^4 at amplitude 1e300: V' overflows, so the Arnoldi matrix
    # of the stability estimate is not finite and has no eigenvalues
    out = tmp_path / "out"
    path = write(tmp_path, potential_sine(0.01, "0, 0, 0, 0, 0.1", 1e300,
                                          steps=10, n_nodes=16),
                 out=str(out))
    assert main(["simulate", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: the right-hand side linearised "
                            f"at t = 0 is not finite: no stability "
                            f"estimate\n")
    assert captured.out == ""
    assert not list(out.glob("*.csv"))


def test_scalar_potential_linear_bound_is_exact(tmp_path, capsys):
    # V = 50 u^2 keeps the system linear: |lambda|^2 = 1/h^2 + mass^2 + 100
    path = write(tmp_path, potential_sine(0.087, "0, 0, 50", 1.0),
                 out=str(tmp_path / "out"))
    assert main(["simulate", "--scenario", path]) == 2
    exact = 2.0 * np.sqrt(2.0) / np.sqrt(32.0 ** 2 + 1.0 + 100.0)
    assert suggested_dt(capsys.readouterr().err) == pytest.approx(exact,
                                                                  rel=1e-5)


# -- the oscillator as the m = 0 Klein-Gordon field ----------------------------

def oscillator(omega=1.0, dt=0.01, steps=100, n=1, grid="", output=""):
    return f"""
[model]
name = mechanics_oscillator
omega = {omega!r}
n = {n}
{grid}
[time]
dt = {dt!r}
t_final = {steps * dt!r}

[initial]
family = constant
amplitude = 0.75
velocity = 0.5

[gamma]
family = oscillator
omega = {omega!r}

[output]
directory = {{out}}
store_every = 10
{output}"""


def test_oscillator_exact_solution_at_vanishing_omega(tmp_path, capsys):
    # velocity / omega overflows at omega = 5e-324 (unmended: inf times
    # sin(0) = nan, and inf or nan as the error and the sweep ratio); the
    # solution is its omega -> 0 limit, amplitude + velocity t, as at 0
    lines = {}
    for omega in (5e-324, 0.0):
        path = write(tmp_path, oscillator(omega=omega),
                     out=str(tmp_path / "out"))
        sol = exact_solution(parse_scenario(path))
        assert sol(2.0, make_grid(1, m=0), 2).tolist() == [[1.75], [1.75]]
        assert main(["simulate", "--sweep", "time", "--scenario", path]) == 0
        lines[omega] = capsys.readouterr().out.splitlines()[-2:]
    assert lines[5e-324] == lines[0.0]
    error, ratio = (float(line.split(" = ")[1]) for line in lines[0.0])
    assert 0 < error < 1e-13 and np.isfinite(ratio)


@pytest.mark.parametrize("omega", [1.0, -2.0])
def test_oscillator_refused_past_rk4_bound(tmp_path, capsys, omega):
    # the bound is 2 sqrt 2 / |omega| whatever the grid length: m = 0 has
    # no spatial term (a length of 0.001 would put 1/h = 1000 into it)
    out = tmp_path / "out"
    grid = "[grid]\nlength = 0.001\n"
    path = write(tmp_path, oscillator(omega, 2.9 / abs(omega), grid=grid),
                 out=str(out))
    assert main(["simulate", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert "RK4 unstable at N=1: dt*|omega| = " in err
    assert suggested_dt(err) == pytest.approx(2 * np.sqrt(2) / abs(omega),
                                              rel=1e-5)
    assert not (out / "fields.csv").exists()
    path = write(tmp_path, oscillator(omega, 2.8 / abs(omega), grid=grid),
                 name="inside.cfg", out=str(out))
    assert main(["simulate", "--scenario", path]) == 0
    assert (out / "fields.csv").exists()


def test_oscillator_two_components(tmp_path, capsys):
    out = tmp_path / "out"
    text = oscillator(n=2).replace("amplitude = 0.75\nvelocity = 0.5",
                                   "amplitude = 1.0")
    assert main(["simulate", "--scenario", write(tmp_path, text,
                                                 out=str(out))]) == 0
    assert "energy_initial = 1\n" in capsys.readouterr().out
    header = (out / "fields.csv").read_text().splitlines()[0]
    assert header == "t,node_index,x,u_1,u_2,pt_1,pt_2"


#: sha256 of what the n = 1 oscillator writes, recorded when it was still a
#: hand-written model of its own rather than the m = 0 member of the
#: quadratic wave family
OSCILLATOR_DIGESTS = {
    "simulate":
    "42ef095116cc8f0f2c40ef033be15592ecf00d1dbbfacb2656991f4466e779b3",
    "fields.csv":
    "6282e4062982a46f1b2940bedae64f1feda3f1f6f6ff990ec97fca05a02ca608",
    "diagnostics.csv":
    "154b872fe6f1648ea644e9f0a22e38d00ffd7c115cef17c2d586e046f500383b",
    "simulate --sweep time":
    "d68de3d7ab91501f1b4cc554031d74fe59db045633bfa6e2372b64fb94b3bf0b",
    "convergence.csv":
    "5b0be701144e9f5b63b0f90b63402c79348f753136d6c1a7e8e61e7fe6e47f52",
    "verify-hj":
    "9e8896f872e60fd3cec8d78772aec96dffd2b88e11fa9055f5f63e3b643cee0f",
    "verify_hj.csv":
    "69fc114d81094fd3b61c1805518eb33ad8a2dad45e415ceddd51ed8510a51b5b",
    "characteristics":
    "e313f90644ac756184e5c8fef1e0d26a835443fc38f4e22a24b30f39a7d1fd3a",
    "characteristics.csv":
    "2ca3d119c4c91a11d42d678b28be5fee8481b6bcc3a8d2f2062a2a361ce0ab28",
}


def oscillator_digests(tmp_path, capsys):
    out = tmp_path / "out"
    path = write(tmp_path, oscillator(omega=1.3), out=str(out))
    digests = {}
    for command in ("simulate", "simulate --sweep time", "verify-hj",
                    "characteristics"):
        assert main(command.split() + ["--scenario", path]) == 0
        digests[command] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
        for csv in out.glob("*.csv"):
            digests.setdefault(csv.name, hashlib.sha256(
                csv.read_bytes()).hexdigest())
    return digests


def test_oscillator_outputs_are_byte_identical(tmp_path, capsys):
    assert oscillator_digests(tmp_path, capsys) == OSCILLATOR_DIGESTS


# -- pairing-check keys ----------------------------------------------------------

@pytest.mark.parametrize("key, value, bound", [("pairing_pairs", 0, 1),
                                               ("pairing_pairs", -3, 1),
                                               ("pairing_steps", 2, 4),
                                               ("pairing_steps", 3, 4)])
def test_pairing_keys_refused_below_bound(tmp_path, capsys, key, value,
                                          bound):
    text = oscillator(output=f"{key} = {value}\n")
    path = write(tmp_path, text)
    line = text.splitlines().index(f"{key} = {value}") + 1
    assert main(["pairing-check", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert f"scenario.cfg:{line}: output.{key} must be >= {bound}" \
        in captured.err
    assert captured.out == ""


def test_pairing_keys_at_bound_run(tmp_path, capsys):
    path = write(tmp_path, oscillator(
        output="pairing_steps = 4\npairing_pairs = 1\n"))
    assert main(["pairing-check", "--scenario", path]) == 0
    assert "steps=4 pairs=1 " in capsys.readouterr().out


# -- runs too short for the residual checks ------------------------------------

def short_run(steps, store_every=1):
    return oscillator(dt=0.01, steps=steps).replace(
        "store_every = 10", f"store_every = {store_every}")


@pytest.mark.parametrize("command, steps, store_every, frames",
                         [("pairing-check", 3, 1, 4),
                          ("characteristics", 3, 1, 4),
                          ("characteristics", 6, 2, 4)])
def test_short_runs_refused_before_they_start(tmp_path, capsys, command,
                                              steps, store_every, frames):
    out = tmp_path / "out"
    path = write(tmp_path, short_run(steps, store_every), out=str(out))
    assert main([command, "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: {command} needs at least 5 "
                            f"stored frames; this run stores {frames}\n")
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["pairing-check", "characteristics"])
def test_runs_of_five_frames_are_checked(tmp_path, capsys, command):
    out = tmp_path / "out"
    path = write(tmp_path, short_run(4), out=str(out))
    assert main([command, "--scenario", path]) == 0
    report = capsys.readouterr().out
    assert ("steps=4 " if command == "pairing-check"
            else "frames_checked = 5\n") in report


# -- the --seed range ------------------------------------------------------------

@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("command", ["simulate", "verify-hj", "characteristics",
                                     "compare", "pairing-check"])
def test_seeds_outside_u64_refused_before_any_work(tmp_path, capsys, command,
                                                   seed):
    # numpy's generator rejects a negative seed only when it is built,
    # after the run; the refusal comes first and writes nothing
    out = tmp_path / "out"
    path = write(tmp_path, short_run(4), out=str(out))
    assert main([command, "--scenario", path, "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --seed must be in [0, 2**64), "
                            f"got {seed}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("command", ["simulate", "characteristics",
                                     "pairing-check"])
def test_seeds_at_the_ends_of_u64_run(tmp_path, capsys, command, seed):
    path = write(tmp_path, short_run(4))
    assert main([command, "--scenario", path, "--seed", str(seed)]) == 0
    assert f"seed={seed}" in capsys.readouterr().out


# -- t_final on the step grid ----------------------------------------------------

def kg_steps(dt, t_final, store_every=""):
    return KG_CONSTANT.replace("dt = 0.001", f"dt = {dt!r}").replace(
        "t_final = 1.0", f"t_final = {t_final!r}").replace(
        "store_every = 10", store_every)


@pytest.mark.parametrize("t_final", [0.2, 0.1])
@pytest.mark.parametrize("command", ["simulate", "verify-hj", "characteristics",
                                     "compare", "pairing-check"])
def test_t_final_off_the_step_grid_refused(tmp_path, capsys, command,
                                           t_final):
    # unrefused, dt = 0.03 ran 7 steps to t = 0.21 for t_final = 0.2 and
    # stopped at 0.09 for t_final = 0.1
    out = tmp_path / "out"
    text = kg_steps(0.03, t_final)
    path = write(tmp_path, text, out=str(out))
    line = text.splitlines().index(f"t_final = {t_final!r}") + 1
    assert main([command, "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}:{line}: time.t_final must be a "
                            f"whole number of time.dt steps\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("dt, steps", [(1e-3, 1000), (2.5e-4, 4000),
                                       (0.03, 7)])
def test_t_final_on_the_step_grid_runs(tmp_path, capsys, dt, steps):
    # the first two are the benchmark's (dt, t_final) pairs
    t_final = 0.21 if dt == 0.03 else 1.0
    path = write(tmp_path, kg_steps(dt, t_final, f"store_every = {steps}"))
    assert parse_scenario(path).n_steps == steps
    assert main(["simulate", "--scenario", path]) == 0
    assert f"steps={steps} " in capsys.readouterr().out


# -- non-finite numbers ----------------------------------------------------------

@pytest.mark.parametrize("line, bad, name", [
    ("dt = 0.01", "dt = nan", "time.dt"),
    ("t_final = 0.2", "t_final = nan", "time.t_final"),
    ("t_final = 0.2", "t_final = inf", "time.t_final"),
    ("mass = 1.0", "mass = nan", "model.mass"),
    ("amplitude = 0.8", "amplitude = nan", "initial.amplitude"),
    ("phase = 0.3", "phase = inf", "initial.phase"),
])
def test_non_finite_numbers_refused_with_their_line(tmp_path, capsys, line,
                                                    bad, name):
    # unrefused, nan for dt or t_final and inf for t_final raised a
    # traceback, mass = nan stepped to a numerical failure at step 1,
    # and nan or inf initial data gave a message without the file
    out = tmp_path / "out"
    text = KG_SINE.replace(line, bad)
    path = write(tmp_path, text, out=str(out))
    lineno = text.splitlines().index(bad) + 1
    value = bad.split(" = ")[1]
    assert main(["simulate", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}:{lineno}: {name} must be a "
                            f"finite number, got {value!r}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("text, line, name", [
    (KG_CONSTANT.replace("omega = 1.0\n", "omega = 1.0\nbox_u = -1,nan\n", 1),
     "box_u = -1,nan", "gamma.box_u"),
    (potential_sine(0.01, "0.0,0.2,-inf", 1.0), "potential = 0.0,0.2,-inf",
     "model.potential"),
], ids=["box_u", "potential"])
def test_non_finite_pairs_and_lists_refused(tmp_path, text, line, name):
    path = write(tmp_path, text)
    lineno = text.splitlines().index(line) + 1
    bad = line.rsplit(",", 1)[1]
    with pytest.raises(ScenarioError) as info:
        parse_scenario(path)
    assert str(info.value) == (f"{path}:{lineno}: {name} must be a finite "
                               f"number, got {bad!r}")


# -- refusals before any stepping ------------------------------------------------

def test_sweep_without_closed_form_refused_before_stepping(tmp_path, capsys):
    # Klein-Gordon traveling waves have no closed form in exact_solution
    out = tmp_path / "out"
    text = WAVE.replace("name = free_wave", "name = klein_gordon\nmass = 1.0")
    path = write(tmp_path, text.replace("n_nodes = 64", "n_nodes = 16"),
                 out=str(out))
    assert main(["simulate", "--scenario", path, "--sweep", "grid"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: sweep requires a scenario with "
                            f"a closed-form solution\n")
    assert captured.out == ""
    assert list(out.iterdir()) == []


def test_characteristics_blowup_is_a_numerical_failure(tmp_path, capsys):
    # du/dt = 20 u from u = 1 passes |u| = 1e8 near t = ln(1e8) / 20
    out = tmp_path / "out"
    text = KG_CONSTANT.replace("name = klein_gordon\nmass = 1.0",
                               "name = free_wave").replace(
        "family = oscillator\nomega = 1.0", "family = linear\na = 20.0")
    path = write(tmp_path, text.replace("dt = 0.001", "dt = 0.01"),
                 out=str(out))
    assert main(["characteristics", "--scenario", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: |u| exceeded 1e+08 at "
                            "step 93\n")
    assert captured.out == ""
    assert list(out.iterdir()) == []


# -- Klein-Gordon output bits ----------------------------------------------------

KG_SINE = """
[model]
name = klein_gordon
mass = 1.0

[grid]
n_nodes = 16

[time]
dt = 0.01
t_final = 0.2

[initial]
family = sine
amplitude = 0.8
phase = 0.3

[output]
directory = {out}
store_every = 2
pairing_steps = 6
pairing_pairs = 3
"""

KG_LIFTED = KG_CONSTANT.replace("t_final = 1.0", "t_final = 0.2").replace(
    "dt = 0.001", "dt = 0.01").replace("store_every = 10", "store_every = 2")\
    .replace("omega = 1.0\n", "omega = 1.0\nsamples_per_axis = 4\n", 1)

#: sha256 (first 16 hex digits) of stdout and of every CSV of small
#: Klein-Gordon runs, recorded before the numerical settings were made
#: fixed module constants; a refactor must keep every bit
KG_DIGESTS = {
    "simulate": "e913feb144599e25",
    "fields.csv": "929188f04393ff3c",
    "diagnostics.csv": "cdff52dd24e6a3e7",
    "pairing-check": "670c3778a3dcae6e",
    "verify-hj": "9ad87ab53c5f2052",
    "verify_hj.csv": "1ae6318c4d0a4928",
    "characteristics": "ea4216b2d34d7af0",
    "characteristics.csv": "3e6396438911b30a",
    "compare": "bed50bf87821aa46",
    "compare.csv": "7ac09467d4883f89",
}


def kg_digests(tmp_path, capsys):
    digests = {}
    for text, commands in ((KG_SINE, ("simulate", "pairing-check")),
                           (KG_LIFTED, ("verify-hj", "characteristics",
                                        "compare"))):
        for command in commands:
            out = tmp_path / command
            path = write(tmp_path, text, out=str(out))
            assert main([command, "--scenario", path, "--seed", "5"]) == 0
            digests[command] = hashlib.sha256(
                capsys.readouterr().out.encode()).hexdigest()[:16]
            for csv in sorted(out.glob("*.csv")):
                digests[csv.name] = hashlib.sha256(
                    csv.read_bytes()).hexdigest()[:16]
    return digests


def test_klein_gordon_outputs_are_byte_identical(tmp_path, capsys):
    assert kg_digests(tmp_path, capsys) == KG_DIGESTS


#: sha256 (first 16 hex digits) of stdout and of convergence.csv of
#: Klein-Gordon sweeps, recorded when both sweep levels were still built and
#: run apart from the command's own run; its other CSVs are KG_DIGESTS'
KG_SWEEP_DIGESTS = {
    "simulate --sweep grid": ("950a94c6f48e29de", "9374904802070757"),
    "compare --sweep grid": ("cc977b1f7621b8d1", "64adbb5215267ef3"),
    "compare --sweep time": ("8f9a2364bdb6cc53", "7090b13304378b8a"),
}


def sha16(data):
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("command", list(KG_SWEEP_DIGESTS))
def test_klein_gordon_sweeps_are_byte_identical(tmp_path, capsys, command):
    simulate = command.startswith("simulate")
    out = tmp_path / "out"
    path = write(tmp_path, KG_SINE if simulate else KG_LIFTED, out=str(out))
    assert main(command.split() + ["--scenario", path, "--seed", "5"]) == 0
    digests = {csv.name: sha16(csv.read_bytes()) for csv in out.glob("*.csv")}
    digests["stdout"] = sha16(capsys.readouterr().out.encode())
    stdout, convergence = KG_SWEEP_DIGESTS[command]
    plain = ("fields.csv", "diagnostics.csv") if simulate else ("compare.csv",)
    assert digests == {"stdout": stdout, "convergence.csv": convergence,
                       **{name: KG_DIGESTS[name] for name in plain}}


@pytest.mark.parametrize("sweep", ["grid", "time"])
@pytest.mark.parametrize("command, counted, metric", [
    ("simulate", "run_simulation", "exact_solution_linf_error"),
    ("compare", "evolve_characteristics", "linf_difference_max"),
], ids=["simulate", "compare"])
def test_a_sweep_reruns_only_its_refined_level(tmp_path, capsys, monkeypatch,
                                               command, counted, metric,
                                               sweep):
    # level 0 of the sweep is the command's own run
    calls = []
    run = getattr(cli, counted)
    monkeypatch.setattr(cli, counted,
                        lambda *args, **kw: calls.append(1) or run(*args, **kw))
    out = tmp_path / "out"
    path = write(tmp_path, KG_SINE if command == "simulate" else KG_LIFTED,
                 out=str(out))
    assert main([command, "--scenario", path, "--sweep", sweep]) == 0
    assert len(calls) == 2
    value = capsys.readouterr().out.split(f"{metric} = ")[1].split("\n")[0]
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[1].split(",")[:4] == ["0", "16", "0.01", value]


POTENTIAL_LIFTED = potential_sine(0.01, "0, 0, 0, 0.1", 0.5, steps=20,
                                  n_nodes=8).replace(
    "family = sine", "family = constant").replace(
    "[output]", "[gamma]\nfamily = oscillator\nsamples_per_axis = 2\n\n"
                "[output]")


@pytest.mark.parametrize("command", ["simulate", "pairing-check", "compare",
                                     "compare --sweep grid"])
def test_each_level_is_built_once_and_checked_at_the_state_it_steps(
        tmp_path, capsys, monkeypatch, command):
    # the stability check of a scalar_potential run linearises at the state
    # the run steps from (the gamma-lift under compare) and builds nothing
    calls = dict.fromkeys(["build_model", "hamiltonian_for", "initial_state"],
                          0)
    for name in calls:
        def counted(*args, _name=name, _built=getattr(scenario, name)):
            calls[_name] += 1
            return _built(*args)
        for module in (cli, scenario):
            monkeypatch.setattr(module, name, counted)
    linearised, started = [], []
    radius, run = scenario.rhs_spectral_radius, cli.run_simulation
    monkeypatch.setattr(scenario, "rhs_spectral_radius", lambda H, grid, s:
                        linearised.append(s) or radius(H, grid, s))
    monkeypatch.setattr(cli, "run_simulation", lambda H, grid, s, *args, **kw:
                        started.append(s) or run(H, grid, s, *args, **kw))
    path = write(tmp_path, POTENTIAL_LIFTED)
    # the oscillator section does not solve this model's HJ equation
    assert main(command.split() + ["--scenario", path]) == (
        4 if command.startswith("compare") else 0)
    levels = 2 if "--sweep" in command else 1
    assert len(started) == len(linearised) == levels
    assert all(a is b for a, b in zip(started, linearised))
    assert calls == {"build_model": 1, "hamiltonian_for": 1,
                     "initial_state": 0 if "compare" in command else 1}


# -- refusals before any work ----------------------------------------------------

def kg(old, new):
    assert old in KG_SINE
    return KG_SINE.replace(old, new)


OSCILLATOR_TEXT = oscillator()
TABLE = "family = custom_table\nfile = TABLE_DIR/{}"
#: an integer of 401 digits, and the integers that index an array
HUGE = "1" + "0" * 400
INDEX_RANGE = f"{np.iinfo(np.intp).min}..{np.iinfo(np.intp).max}"
#: 2**62 nodes, whose float64 bytes pass the index range
NODES_2_62 = "n_nodes = 4611686018427387904"


@pytest.mark.parametrize("command, text, bad, message", [
    ("simulate", kg("mass = 1.0", "mass 1.0"), "mass 1.0",
     "expected 'key = value'"),
    ("simulate", "x = 1\n" + KG_SINE, "x = 1", "key outside any [section]"),
    ("simulate", kg("mass = 1.0", "= 1.0"), "= 1.0", "empty key"),
    ("simulate", kg("dt = 0.01\n", ""), None, "missing required key time.dt"),
    ("simulate", kg("t_final = 0.2", "t_final = 0.2\ndt = 0.02"), "dt = 0.02",
     "duplicate key time.dt (first on line 10)"),
    ("simulate", kg("mass = 1.0", "mass = abc"), "mass = abc",
     "model.mass must be a number, got 'abc'"),
    ("simulate", kg("n_nodes = 16", "n_nodes = 1.5"), "n_nodes = 1.5",
     "grid.n_nodes must be an integer, got '1.5'"),
    ("verify-hj", KG_LIFTED.replace("samples_per_axis = 4", "box_t = 1"),
     "box_t = 1", "gamma.box_t must be 'lo,hi'"),
    ("simulate", kg("mass = 1.0", "mass = -1"), None,
     "model.mass must be non-negative"),
    ("simulate", kg("n_nodes = 16", "n_nodes = 2"), "n_nodes = 2",
     "grid.n_nodes must be >= 3"),
    ("simulate", kg("n_nodes = 16", "n_nodes = 1"), "n_nodes = 1",
     "grid.n_nodes must be >= 3"),
    ("simulate", oscillator(grid="[grid]\nn_nodes = 0\n"), "n_nodes = 0",
     "grid.n_nodes must be >= 1"),
    ("simulate", oscillator(grid="[grid]\nn_nodes = 2\n"), "n_nodes = 2",
     "grid.n_nodes must be 1 for mechanics_oscillator"),
    ("simulate", kg("n_nodes = 16", "n_nodes = 16\nlength = 0"), "length = 0",
     "grid.length must be positive"),
    ("simulate", kg("t_final = 0.2", "t_final = 0.005"), "t_final = 0.005",
     "time.t_final must be >= time.dt"),
    ("simulate", kg("family = sine", "family = cosine"), "family = cosine",
     "unknown initial.family 'cosine'; known: constant, sine, "
     "traveling_wave, custom_table"),
    ("simulate", OSCILLATOR_TEXT.replace("constant", "sine"), None,
     "initial.family 'sine' needs a spatial grid (m = 1 model)"),
    ("simulate", kg("family = sine", "family = custom_table"), None,
     "initial.family custom_table requires initial.file"),
    ("simulate", kg("store_every = 2", "precision = 0"), "precision = 0",
     "output.precision must be in 1..17"),
    ("simulate", kg("store_every = 2", "precision = 18"), "precision = 18",
     "output.precision must be in 1..17"),
    ("simulate", kg("store_every = 2", "store_every = 0"), "store_every = 0",
     "output.store_every must be >= 1"),
    ("simulate", kg("store_every = 2", "store_every = 3"), None,
     "output.store_every must divide the number of steps (20)"),
    ("simulate", kg("mass = 1.0", "m = 0"), None,
     "klein_gordon requires m=1, got m=0.0"),
    ("simulate", kg("mass = 1.0", "spin = 1"), None,
     "unused parameters for klein_gordon: ['spin']"),
    ("simulate", kg("klein_gordon", "free_wave"), None,
     "free_wave takes no mass or potential"),
    ("characteristics", KG_SINE, None,
     "this command requires a [gamma] section"),
    ("simulate --sweep grid", OSCILLATOR_TEXT, None,
     "--sweep grid needs a spatial grid (m = 1 model)"),
    ("compare --sweep grid", OSCILLATOR_TEXT, None,
     "--sweep grid needs a spatial grid (m = 1 model)"),
    ("simulate", kg("family = sine", TABLE.format("missing.csv")), None,
     "{dir}/missing.csv: cannot read initial table ({dir}/missing.csv not "
     "found.)"),
    ("simulate", kg("family = sine", TABLE.format("table.csv")), None,
     "{dir}/table.csv: initial table must be 16 x 2 (u then p_t columns), "
     "got (3, 2)"),
    ("simulate", kg("family = sine", TABLE.format("cells.csv")), None,
     "{dir}/cells.csv: cannot read initial table (could not convert string "
     "'zero' to float64 at row 0, column 2.)"),
    ("simulate", kg("dt = 0.01", "dt = 5e-324"), "dt = 5e-324",
     "time.dt is too small (time.t_final / time.dt overflows)"),
    ("verify-hj", KG_LIFTED.replace("mass = 1.0", "mass = 1e300"),
     "mass = 1e300",
     "model.mass is too large (its square overflows), got '1e300'"),
    ("verify-hj", oscillator(omega=1e300), "omega = 1e+300",
     "model.omega is too large (its square overflows), got '1e+300'"),
    ("verify-hj", KG_LIFTED.replace("omega = 1.0", "omega = 1e300"),
     "omega = 1e300",
     "gamma.omega is too large (its square overflows), got '1e300'"),
    ("simulate", kg("amplitude = 0.8", "amplitdue = 0.5"), "amplitdue = 0.5",
     "unknown key initial.amplitdue"),
    ("verify-hj", KG_LIFTED.replace("amplitude = 1.0", "amplitdue = 0.5"),
     "amplitdue = 0.5", "unknown key initial.amplitdue"),
    ("characteristics", KG_LIFTED.replace("amplitude = 1.0",
                                          "amplitdue = 0.5"),
     "amplitdue = 0.5", "unknown key initial.amplitdue"),
    ("verify-hj", KG_LIFTED.replace("omega = 1.0", "omgea = 3.0"), None,
     "unused parameters for oscillator: ['omgea']"),
    ("characteristics", KG_LIFTED.replace("omega = 1.0", "omgea = 3.0"), None,
     "unused parameters for oscillator: ['omgea']"),
    ("simulate", kg("n_nodes = 16", f"n_nodes = {HUGE}"), f"n_nodes = {HUGE}",
     f"grid.n_nodes must be in {INDEX_RANGE}"),
    ("simulate", kg("phase = 0.3", f"phase = 0.3\nmode = {HUGE}"),
     f"mode = {HUGE}", f"initial.mode must be in {INDEX_RANGE}"),
    ("verify-hj", KG_LIFTED.replace("samples_per_axis = 4",
                                    f"samples_per_axis = {HUGE}"),
     f"samples_per_axis = {HUGE}",
     f"gamma.samples_per_axis must be in {INDEX_RANGE}"),
    ("simulate", kg("mass = 1.0", f"mass = 1.0\nn = {HUGE}"), f"n = {HUGE}",
     f"model.n must be in {INDEX_RANGE}"),
    ("pairing-check", kg("pairing_pairs = 3", f"pairing_pairs = {HUGE}"),
     f"pairing_pairs = {HUGE}",
     f"output.pairing_pairs must be in {INDEX_RANGE}"),
    ("simulate", kg("n_nodes = 16", "n_nodes = 100000000000000000000"),
     "n_nodes = 100000000000000000000",
     f"grid.n_nodes must be in {INDEX_RANGE}"),
    ("simulate", kg("mass = 1.0", "mass = 1.0\nn = 100000000000000000000"),
     "n = 100000000000000000000", f"model.n must be in {INDEX_RANGE}"),
    ("characteristics", KG_LIFTED.replace("n_nodes = 16",
                                          "n_nodes = 16\nlength = 1e300"),
     "length = 1e300",
     "grid.length is too large (its square overflows), got '1e300'"),
    ("simulate", kg("n_nodes = 16", NODES_2_62), NODES_2_62,
     f"grid.n_nodes * model.n = 4611686018427387904 float64 values exceed "
     f"{np.iinfo(np.intp).max} bytes"),
    ("simulate", kg("t_final = 0.2", "t_final = 1e300"), "t_final = 1e300",
     f"time.t_final / time.dt = 1e+302 steps exceed {np.iinfo(np.intp).max}"),
], ids=["no-equals", "outside-section", "empty-key", "missing-key",
        "duplicate-key", "not-a-number", "not-an-integer", "not-a-pair",
        "negative-mass", "two-nodes", "one-node", "oscillator-no-nodes",
        "oscillator-two-nodes", "zero-length", "t_final-below-dt",
        "unknown-family", "sine-without-grid", "table-without-file",
        "precision-0", "precision-18", "store_every-0",
        "store_every-not-dividing", "m-0-model", "unused-model-key",
        "mass-of-free_wave", "no-gamma", "simulate-grid-sweep-of-m-0",
        "compare-grid-sweep-of-m-0", "missing-table", "misshapen-table",
        "table-cell-not-a-number", "dt-overflows-steps",
        "mass-squared-overflows", "oscillator-omega-squared-overflows", "gamma-omega-squared-overflows",
        "simulate-misspelt-initial-key", "verify-hj-misspelt-initial-key",
        "characteristics-misspelt-initial-key", "verify-hj-misspelt-gamma-key",
        "characteristics-misspelt-gamma-key", "n_nodes-past-index-range",
        "mode-past-index-range", "samples_per_axis-past-index-range",
        "model-n-past-index-range", "pairing_pairs-past-index-range",
        "n_nodes-1e20", "model-n-1e20", "length-squared-overflows",
        "field-bytes-past-index-range", "steps-past-index-range"])
def test_refusals_name_their_file_and_line(tmp_path, capsys, command, text,
                                           bad, message):
    # each exits 2 before it writes a line of output or a CSV; the anchor is
    # the scenario file, with the line of ``bad`` when there is one, unless
    # the message names a file of its own
    (tmp_path / "table.csv").write_text("u,p_t\n1,0\n2,0\n3,0\n")
    (tmp_path / "cells.csv").write_text("u,p_t\n1,zero\n")
    text = text.replace("TABLE_DIR", str(tmp_path))
    out = tmp_path / "out"
    path = write(tmp_path, text, out=str(out))
    if not message.startswith("{dir}"):
        message = "{path}" + (":{line}" if bad else "") + ": " + message
    message = message.format(path=path, dir=tmp_path,
                             line=bad and text.splitlines().index(bad) + 1)
    assert main(command.split() + ["--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(out.glob("*.csv")) == []


KG_LINEAR_OVERFLOW = KG_LIFTED.replace("family = oscillator\nomega = 1.0",
                                       "family = linear\nc = 1e308")


@pytest.mark.parametrize("command, text, bad, key", [
    ("simulate", kg("amplitude = 0.8", "amplitude = 1e308"),
     "amplitude = 1e308", "initial.amplitude"),
    ("simulate --sweep grid", kg("amplitude = 0.8", "amplitude = 1e308"),
     "amplitude = 1e308", "initial.amplitude"),
    ("simulate", OSCILLATOR_TEXT.replace("amplitude = 0.75",
                                         "amplitude = 1e308"),
     "amplitude = 1e308", "initial.amplitude"),
    ("simulate", OSCILLATOR_TEXT.replace("velocity = 0.5",
                                         "velocity = 1e308"),
     "velocity = 1e308", "initial.velocity"),
    ("compare", KG_LINEAR_OVERFLOW, "c = 1e308", "gamma.c"),
    ("verify-hj", KG_LINEAR_OVERFLOW, "c = 1e308", "gamma.c"),
    ("characteristics", KG_LINEAR_OVERFLOW, "c = 1e308", "gamma.c"),
], ids=["simulate-sine-amplitude", "grid-sweep-sine-amplitude",
        "oscillator-amplitude", "oscillator-velocity",
        "compare-linear-slope", "verify-hj-linear-slope",
        "characteristics-linear-slope"])
def test_overflowing_values_are_refused_in_one_stderr_line(
        tmp_path, capsys, command, text, bad, key):
    # unrefused, numpy's overflow warnings reached stderr ahead of the
    # error (simulate) or the incompatibility refusal (compare); recorded
    # here, each warning counts as the lines a process would print
    path = write(tmp_path, text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(command.split() + ["--scenario", path])
    err = capsys.readouterr().err + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught)
    assert len(err.splitlines()) == 1
    assert err.startswith(("error:", "refused:"))
    line = text.splitlines().index(bad) + 1
    assert err.startswith(f"error: {path}:{line}: {key} = 1e+308 is too "
                          f"large")
    assert code == 2

def test_scenario_file_not_utf8_refused(tmp_path, capsys):
    # unrefused, the UnicodeDecodeError ended in a traceback (exit 1)
    out = tmp_path / "out"
    path = write(tmp_path, KG_SINE, out=str(out))
    with open(path, "ab") as fh:
        fh.write(b"# \xff\n")
    at = len(KG_SINE.format(out=out).encode()) + 2
    assert main(["simulate", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: cannot read scenario file "
                            f"('utf-8' codec can't decode byte 0xff in "
                            f"position {at}: invalid start byte)\n")
    assert captured.out == ""
    assert not out.exists()
