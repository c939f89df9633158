"""Static hygiene of the package, read with ``ast`` only: no module imports
a name it does not use, every module-level function or class is referenced
from the package, the tests or the benchmark, and every public method is
accessed as an attribute there, so a deletion cannot leave an orphaned
helper, method or import behind.  No module but ``linalg`` asks whether
an operator is an ``IndexTable`` or a ``SparseMatrix``."""

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


def _references(tree, names=True):
    """Names read in ``tree`` (only if ``names``), attributes accessed, and
    the parts of every layer-trace target."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and names:
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TARGET.match(node.value)
            if match:
                out.update(match.group(1).split("."))
    return out


def _all_files():
    return [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused {unused}"


def test_every_module_level_definition_is_referenced():
    referenced = set().union(*(_references(_tree(p)) for p in _all_files()))
    orphans = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in referenced
    ]
    assert not orphans, f"defined but never referenced: {orphans}"


def test_every_public_method_is_accessed():
    accessed = set().union(*(_references(_tree(p), names=False) for p in _all_files()))
    orphans = [
        f"{path.name}:{cls.name}.{fn.name}"
        for path in MODULES
        for cls in _tree(path).body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_") and fn.name not in accessed
    ]
    assert not orphans, f"public methods never accessed: {orphans}"


# dict methods that change a dict in place
MUTATORS = {"pop", "popitem", "update", "setdefault", "clear", "__setitem__", "__delitem__"}


# the entry store of a SparseMatrix: its row map, and ``data``, the name of the
# (row, col)-keyed store it once had
STORES = {"_rows_map", "data"}


def _is_store(node):
    """The store itself or any item in it, at any depth: ``x._rows_map``,
    ``x.data``, ``x.rows_map()``, ``x._rows_map[i]``, ``x.rows_map()[i][j]``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "rows_map"
    return isinstance(node, ast.Attribute) and node.attr in STORES


def _flat_targets(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flat_targets(elt)
    elif isinstance(target, ast.Starred):
        yield from _flat_targets(target.value)
    else:
        yield target


def _data_writes(tree):
    """Line numbers of every write to a matrix's entry store outside
    ``SparseMatrix.__init__``: an assignment (also augmented or deleted) to
    the store attribute or to an item of it, or of ``x.rows_map()``, at any
    depth, and a call of a mutating method on any of these."""
    allowed = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "SparseMatrix"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        if any(_is_store(t) for tgt in targets for t in _flat_targets(tgt)):
            yield node.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and _is_store(node.func.value)):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matrix_data_is_written_after_construction(path):
    """A matrix caches whether it is an identity, a product with an identity
    factor hands back the other factor itself, and a matrix may share row
    dicts with another (a ``LegChain`` result with its input, a sum with
    its first term): all are sound only while no code changes a matrix's
    entries once it is built."""
    lines = sorted(set(_data_writes(_tree(path))))
    assert not lines, f"{path.name} writes to a matrix's entries on lines {lines}"


def test_data_write_detector_catches_each_form():
    forms = [
        "x.data[0, 1] = 2", "x.data[k] += 1", "del x.data[k]", "x.data = {}",
        "a, x.data = 1, {}", "x.data.pop(k)", "x.data.update(y)", "x.data.setdefault(k, 1)",
        "x.data.clear()", "x.data.popitem()",
        # the row map, as the store attribute
        "x._rows_map = {}", "a, x._rows_map = 1, {}", "x._rows_map[i] = {}",
        "x._rows_map[i][j] = 1", "x._rows_map[i][j] += 1", "del x._rows_map[i]",
        "del x._rows_map[i][j]", "x._rows_map.pop(i)", "x._rows_map.setdefault(i, {})",
        "x._rows_map[i].update(y)", "x._rows_map[i].popitem()",
        # the row map, through rows_map()
        "x.rows_map()[i] = {}", "x.rows_map()[i][j] = 1", "x.rows_map()[i][j] -= 1",
        "a, x.rows_map()[i] = 1, {}", "del x.rows_map()[i]", "del x.rows_map()[i][j]",
        "x.rows_map().clear()", "x.rows_map().update(y)", "x.rows_map()[i].pop(j)",
        "x.rows_map()[i].setdefault(j, 1)", "x.rows_map()[i].__setitem__(j, 1)",
    ]
    for src in forms:
        assert list(_data_writes(ast.parse(src))), src
    init = ("class SparseMatrix:\n    def __init__(self, rows_map):\n"
            "        self._rows_map = rows_map\n")
    assert not list(_data_writes(ast.parse(init)))
    reads = ("y = x.data.get(k)\nd[x.data] = 1\nfor k, v in x.data.items():\n    pass\n"
             "y = x.rows_map()[i]\nz = x._rows_map.get(i, {}).get(j)\nd[x.rows_map()[i][j]] = 1\n"
             "for i, row in x.rows_map().items():\n    pass\nrows = x.rows_map()\n")
    assert not list(_data_writes(ast.parse(reads)))
    other = "class Other:\n    def __init__(self, rows_map):\n        self._rows_map = rows_map\n"
    assert list(_data_writes(ast.parse(other)))
    method = "class SparseMatrix:\n    def t(self):\n        self._rows_map[0] = {}\n"
    assert list(_data_writes(ast.parse(method)))


# the two kinds of operator: outside linalg no module asks which it holds
KINDS = {"IndexTable", "SparseMatrix"}


def _kind_branches(tree):
    """Line numbers of every test of an operator's kind: an ``isinstance``
    or ``issubclass`` against a kind, a comparison with a kind or a set of
    kinds (as ``type(m) is IndexTable``), and every use of ``IndexTable.of`` or of
    ``operator_matrix``, the converters that such tests once served."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass"):
            named = {n.id for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, ast.Name)}
            if named & KINDS:
                yield node.lineno
        elif isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                kinds = side.elts if isinstance(side, (ast.Set, ast.Tuple, ast.List)) else [side]
                if any(isinstance(k, ast.Name) and k.id in KINDS for k in kinds):
                    yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "of" \
                and isinstance(node.value, ast.Name) and node.value.id == "IndexTable":
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id == "operator_matrix" \
                or isinstance(node, ast.Attribute) and node.attr == "operator_matrix" \
                or isinstance(node, ast.FunctionDef) and node.name == "operator_matrix":
            yield node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_module_outside_linalg_branches_on_operator_kind(path):
    """A table and a matrix answer the same calls (``matrix``, ``table``,
    ``@``, ``==``), so the choice between them is made in linalg alone."""
    lines = sorted(set(_kind_branches(_tree(path))))
    assert not lines, f"{path.name} branches on operator kind on lines {lines}"


def test_kind_branch_detector_catches_each_form():
    forms = [
        "isinstance(m, IndexTable)", "isinstance(m, (int, SparseMatrix))",
        "not isinstance(m, linalg.SparseMatrix) or isinstance(m, SparseMatrix)",
        "issubclass(type(m), IndexTable)", "type(m) is IndexTable", "kinds == {SparseMatrix}",
        "IndexTable.of(m)", "IndexTable.of(m, by_rows=True)", "operator_matrix(m, f)",
        "cyclic.operator_matrix(m, f)", "def operator_matrix(m, field):\n    return m\n",
    ]
    for src in forms:
        assert list(_kind_branches(ast.parse(src))), src
    allowed = ("m.table(by_rows)\nm.matrix()\nIndexTable.identity(n, f)\n"
               "SparseMatrix.identity(n, f)\nisinstance(x, CyclicModule)\nm @ t == t @ m\n"
               "m == SparseMatrix.identity(n, f)\n")
    assert not list(_kind_branches(ast.parse(allowed)))
