"""Every name the package exports is used in the code of the library
itself, a demo or an acceptance criterion, so public helpers that only
their own unit tests call do not pile up again, and every private
module-level function and every private attribute that the library
stores is read in the library itself.
Names are collected from the syntax tree, so a mention in a docstring or
a comment is not a use."""

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


def test_every_private_function_is_read_in_the_library():
    # a helper that only tests or tools reach is dead code; an import of
    # it and its own def are not reads
    defined, read = set(), set()
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text())
        defined.update(node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 50
    assert sorted(defined - read) == []


def test_every_private_attribute_is_read_in_the_library():
    # a copy that a module keeps on self, or writes through __dict__, and
    # that only tests read is dead state
    stored, read = set(), set()
    for p in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    stored.add(node.attr)
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "__dict__" \
                    and isinstance(node.slice, ast.Constant):
                stored.add(node.slice.value)
    stored = {name for name in stored
              if name.startswith("_") and not name.startswith("__")}
    assert len(stored) > 5
    assert sorted(stored - read) == []
