"""Source hygiene: every name a package module imports is used in that
module, every private name the package defines is read in it, only
``graphs`` reads the relations that the neighbour board is built from, and
the paths-of-G oracle in ``tests/reference.py`` reads neither the board
nor the walker it checks."""
import ast
from pathlib import Path

import pytest

import thuecolor

MODULES = sorted(Path(thuecolor.__file__).resolve().parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line; __future__ excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _loaded(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_defs(tree: ast.Module) -> dict[str, int]:
    """Module-level private names and private methods -> line; dunders excluded."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names[item.name] = item.lineno
    return {name: line for name, line in names.items() if _is_private(name)}


def _read(tree: ast.Module) -> set[str]:
    """Names loaded and attributes read anywhere in the tree."""
    attrs = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return _loaded(tree) | attrs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _loaded(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert {n for n in _imported(tree) if n not in _loaded(tree)} == {"os", "pi"}


def test_every_private_name_is_read():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in MODULES
    }
    read = set().union(*map(_read, trees.values()))
    unread = {
        f"{name}:{line}": defined
        for name, tree in trees.items()
        for defined, line in _private_defs(tree).items()
        if defined not in read
    }
    assert not unread, f"private names defined but never read: {unread}"


def test_the_scan_sees_an_unread_private_name():
    tree = ast.parse(
        "_TABLE = {}\n_kept = 1\n"
        "def _orphan(): pass\n"
        "def _helper(): return _kept\n"
        "class _C:\n"
        "    def __init__(self): self._used()\n"
        "    def _used(self): return _helper()\n"
        "    def _stale(self): pass\n"
        "print(_C)\n"
    )
    defined = _private_defs(tree)
    assert set(defined) == {"_TABLE", "_kept", "_orphan", "_helper", "_C", "_used", "_stale"}
    assert {n for n in defined if n not in _read(tree)} == {"_TABLE", "_orphan", "_stale"}


def _ends_read(tree: ast.Module) -> list[int]:
    """The lines that read an ``ends`` attribute."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "ends"
    )


NOT_GRAPHS = [path for path in MODULES if path.name != "graphs.py"]


@pytest.mark.parametrize("path", NOT_GRAPHS, ids=lambda p: p.name)
def test_only_graphs_reads_the_relations(path):
    # the board derives every link between elements from the edge ends; a
    # module that read the ends itself would build a second neighbour table
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert not _ends_read(tree), f"{path.name} reads ends at lines {_ends_read(tree)}"


def test_the_scan_sees_a_relation_read():
    tree = ast.parse("x = 1\npairs = g.ends.values()\nends = h.ends\nprint(ends)\n")
    assert _ends_read(tree) == [2, 3]


# what the board and the walker are read through
BOARD_NAMES = {"_board", "_walk_board", "_order", "_index", "_linked", "neighbors"}


def _function_reads(tree: ast.Module, name: str) -> set[str]:
    """Names and attributes read by the module-level function ``name`` and,
    transitively, by the module's functions that it names."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read: set[str] = set()
    todo, done = [name], set()
    while todo:
        f = todo.pop()
        if f not in done:
            done.add(f)
            names = _read(defs[f])
            read |= names
            todo += [n for n in names if n in defs]
    return read


def test_the_oracle_reads_no_board():
    # an oracle that shared the board or the walker would agree with a wrong one
    path = Path(__file__).with_name("reference.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    shared = _function_reads(tree, "paths_of_g") & BOARD_NAMES
    assert not shared, f"paths_of_g reads {sorted(shared)}"


def test_the_scan_sees_a_board_read():
    tree = ast.parse(
        "def helper(g, kind):\n    return g._board(kind)\n"
        "def paths_of_g(g, kind, length):\n    vs = g.vertices\n    return helper(g, kind)\n"
        "def unrelated(g, x, kind):\n    return g.neighbors(x, kind)\n"
    )
    assert _function_reads(tree, "paths_of_g") & BOARD_NAMES == {"_board"}
