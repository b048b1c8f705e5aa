"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import fuelgap

MODULES = sorted(p for p in Path(fuelgap.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports, `from __future__` excepted."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []
