"""Every per-layer metric of the benchmark that times a function names one
that the package still has, so renaming a traced function cannot silently
turn its metric into a constant 0. The metrics that already name deleted
functions are pinned as they are; repairing the benchmark shrinks that set.
"""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: counters the tracer derives rather than times
DERIVED = ("cli.csv_bytes", "trace.overhead_frac")

#: metrics that name functions deleted from the package
DEAD = {"cauchy.hdw_rhs.ms_per_call", "cauchy.pairing_against_many.calls",
        "cauchy.pairing_against_many.ms_per_call",
        "cauchy.variation_norm.calls", "hj.lift_variation.calls"}


def traced_metrics():
    """Names '<layer>.<function>[.<method>].<metric>' of BENCHMARK.json,
    without the layers' self time and the derived counters."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [name for name in (m["name"] for m in spec["per_layer"])
            if not name.endswith(".self_s") and name not in DERIVED
            and not (name.startswith("models.") and name.endswith("_evals"))]


def resolves(metric):
    layer, *path, _ = metric.split(".")
    obj = importlib.import_module(f"dedonder_hj.{layer}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_traced_metrics_name_live_functions():
    metrics = traced_metrics()
    assert "hj.HJSection.partials.calls" in metrics
    assert {m for m in metrics if not resolves(m)} == DEAD
