"""Rules that live in one place: only ``foundations`` builds a ``Dyadic``
from its fields (elsewhere ``Dyadic.of`` puts it in canonical form), and
only one function of ``machines`` expands headers into listed programs."""

import ast
from pathlib import Path

import pytest

import leftreal

PACKAGE = Path(leftreal.__file__).parent


def _callers(path: Path, name: str) -> set[str]:
    """The top-level definitions of the module at ``path`` that call the
    bare name ``name``; ``""`` stands for module-level code."""
    tree = ast.parse(path.read_text())
    return {
        getattr(node, "name", "")
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == name
    }


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "foundations"],
    ids=lambda p: p.stem,
)
def test_only_foundations_builds_a_dyadic_from_its_fields(path):
    assert _callers(path, "Dyadic") == set()


def test_machines_expands_listed_programs_in_one_function():
    assert _callers(PACKAGE / "machines.py", "strings_of_length") == {"_programs"}
