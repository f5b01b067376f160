"""Each narrative demo, and the probes of ``tools/``, runs to completion
in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def run_script(path, cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, str(path), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    run = run_script(demo, tmp_path)
    assert run.returncode == 0, run.stderr[-2000:]


def test_step_probe_finds_the_bare_loop_bit_identical(tmp_path):
    # the probe exits 1 when run_simulation and its bare-numpy loop end in
    # states that differ in any bit
    run = run_script(ROOT / "tools" / "step_probe.py", tmp_path,
                     "--rounds", "1")
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
    assert run.stdout.count("final states bit-identical") == 2


def test_pullback_probe_finds_the_stacked_pairings_bit_identical(tmp_path):
    # the probe exits 1 when a stacked pullback pairing differs in any bit
    # from the pair-by-pair one
    run = run_script(ROOT / "tools" / "pullback_probe.py", tmp_path,
                     "--rounds", "1")
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
    assert "280 values bit-identical" in run.stdout


def test_frames_probe_finds_the_blocks_bit_identical(tmp_path):
    # the probe exits 1 when a residual computed per block of frames
    # differs in any bit from the frame-by-frame one
    run = run_script(ROOT / "tools" / "frames_probe.py", tmp_path,
                     "--rounds", "1")
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
    assert "303 values bit-identical" in run.stdout


def test_csv_probe_finds_the_written_bytes_identical(tmp_path):
    # the probe exits 1 when a table written by cli._write_csv differs in
    # any byte from the per-value rule
    run = run_script(ROOT / "tools" / "csv_probe.py", tmp_path,
                     "--rounds", "1")
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
    assert run.stdout.count("bytes identical") == 3


def test_rss_probe_marks_each_command(tmp_path):
    # the probe exits 1 when a command fails; simulate_steps stores two
    # frames, so it draws nothing and leaves numpy.random unloaded
    run = run_script(ROOT / "tools" / "rss_probe.py", tmp_path,
                     "--size", "small")
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
    if "skipped" in run.stdout:
        pytest.skip("no /proc/self/status")
    assert run.stdout.count("exit 0, numpy.random") == 4
    assert "simulate_steps (simulate, seed 3, small): exit 0, numpy.random " \
        "not loaded" in run.stdout


def test_import_probe_times_both_modes(tmp_path):
    # the probe exits 1 when an interpreter fails
    run = run_script(ROOT / "tools" / "import_probe.py", tmp_path,
                     "--rounds", "2")
    assert run.returncode == 0, run.stdout + run.stderr[-2000:]
    for mode in ("compiled", "cached"):
        assert f"{mode}  " in run.stdout
    assert "dedonder_hj.models" in run.stdout
