"""Source hygiene: every name a package module imports is used in that module."""
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _loaded(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(tau)\n")
    assert {n for n in _imported(tree) if n not in _loaded(tree)} == {"os", "pi"}
