"""Every imported name in `src/` and `tests/` is used.

A stdlib stand-in for a linter's unused-import rule. A name counts as used
when the module reads it anywhere (a quoted annotation included) or lists it
in `__all__`. `from __future__` imports are directives, not names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line of the import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _quoted(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _quoted(node.returns)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def _quoted(annotation: ast.expr) -> set[str]:
    """The names read by a string annotation such as `"MemoryStore"`."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return {n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from typing import Any, Optional\n"
        "from .store import MemoryStore\n"
        "__all__ = ['Any']\n"
        "def f(x: 'MemoryStore') -> Optional[int]:\n"
        "    return os.sep\n")
    assert unused_imports(source) == [(2, "j")]
