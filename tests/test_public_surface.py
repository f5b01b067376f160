"""Every name the package exports is reached from the library itself, a
demo or an acceptance criterion, so public helpers that only their own
unit tests call do not pile up again."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dedonder_hj"

#: exported names kept without such a caller
ALLOWED = {
    # the documented one-call stage right-hand side; the benchmark's
    # per-layer timing cauchy.hdw_rhs is named after it
    "hdw_rhs",
    # the plain norm of one variation, the reference that the batched
    # norms of the test sets are checked against
    "variation_norm",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def reaching_lines():
    files = ([p for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "__init__.py"]
             + sorted((ROOT / "demos").glob("*.py"))
             + [ROOT / "tests" / "test_acceptance.py"])
    return [line for p in files for line in p.read_text().splitlines()]


def unreached_exports():
    lines = reaching_lines()
    out = []
    for name in exported_names():
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(ln) and not own.match(ln) for ln in lines):
            out.append(name)
    return out


def test_every_export_is_reached():
    assert [name for name in unreached_exports()
            if name not in ALLOWED] == []


def test_allowed_names_are_exported():
    assert ALLOWED <= set(exported_names())
