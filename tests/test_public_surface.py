"""Every name the package exports is used in the code of the library
itself, a demo or an acceptance criterion, so public helpers that only
their own unit tests call do not pile up again. Names are collected from
the syntax tree, so a mention in a docstring or a comment is not a use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dedonder_hj"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def used_names():
    """Every name read or assigned, and every attribute, in the code of
    the modules, the demos and the acceptance tests."""
    files = ([p for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"]
             + sorted((ROOT / "demos").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    used = set()
    for p in files:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_reached():
    assert sorted(set(exported_names()) - used_names()) == []

