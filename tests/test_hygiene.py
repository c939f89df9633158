"""Static hygiene of the package, read with ``ast`` only: no module imports
a name it does not use, and every module-level function or class is
referenced from the package, the tests or the benchmark, so a deletion
cannot leave an orphaned helper or import behind."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfcyclic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# "module:qualname" targets, as the layer trace of the benchmark names them
TARGET = re.compile(r"^\w+:([\w.]+)$")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _references(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TARGET.match(node.value)
            if match:
                out.update(match.group(1).split("."))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused {unused}"


def test_every_module_level_definition_is_referenced():
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    referenced = set().union(*(_references(_tree(p)) for p in files))
    orphans = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in referenced
    ]
    assert not orphans, f"defined but never referenced: {orphans}"
