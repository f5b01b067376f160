"""The rows of the mutation harness still apply: each mutant's old text
occurs exactly once in its file, so a refactor that moves a kernel line
shows here rather than as a harness run that mutates nothing."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_old_text_occurs_exactly_once():
    mutants = load_tool()
    assert len(mutants.MUTANTS) == 20
    assert mutants.check_rows() == []
    assert all(m.old != m.new for m in mutants.MUTANTS)
