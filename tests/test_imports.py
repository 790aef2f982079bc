"""Every module of the package parses as Python 3.10, and every name it
imports is referenced in it."""

import ast
from pathlib import Path

import pytest

import leftreal

MODULES = sorted(Path(leftreal.__file__).parent.glob("*.py"))


def _referenced(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, with those read in string annotations,
    where the names imported only for type checking are used."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names |= _referenced(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_each_imported_name_is_referenced(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert imported - _referenced(tree) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_each_module_parses_as_python_3_10(path):
    # pyproject.toml allows Python 3.10.  This checks the grammar only: it
    # runs on the current interpreter, so a standard-library API that 3.10
    # lacks still passes.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
