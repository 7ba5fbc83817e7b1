"""Every imported name in `src/` and `tests/` is used, every parameter of a
function in `src/` is read, `src/` builds its changed values with
`model.evolve`, never with `dataclasses.replace`, no module in `src/`
but `store.py` names `RecordMap`, whose writes only the store makes, and
no module in `src/` but `embedding.py` reads the float32 matrix, the norms
or the lossy mask of an `EmbeddingMatrix`, which keeps them consistent.

Stdlib stand-ins for a linter's unused-import and unused-argument rules. A
name counts as used when the module reads it anywhere (a quoted annotation
included) or lists it in `__all__`. `from __future__` imports are
directives, not names. A parameter of a `def` counts as read when the
body, a nested function included, loads its name; `self`, `cls` and names
that start with `_` are exempt, so a signature fixed from outside (a
protocol method, a callback) marks what it ignores with `_`."""

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


def unused_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter of a `def`, not
    exempt, that the body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused.extend((node.lineno, node.name, p.arg)
                      for p in params
                      if p is not None and p.arg not in ("self", "cls")
                      and not p.arg.startswith("_") and p.arg not in read)
    return sorted(unused)


def dataclasses_replace_uses(source: str) -> list[int]:
    """The lines that import `replace` from `dataclasses` or read
    `dataclasses.replace`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            lines.extend(node.lineno for alias in node.names if alias.name == "replace")
        elif (isinstance(node, ast.Attribute) and node.attr == "replace"
              and isinstance(node.value, ast.Name) and node.value.id == "dataclasses"):
            lines.append(node.lineno)
    return sorted(lines)


def name_uses(source: str, name: str) -> list[int]:
    """The lines that import, read or write `name`, bare or as an
    attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.extend(node.lineno for alias in node.names
                         if alias.name.split(".")[-1] == name)
        elif ((isinstance(node, ast.Name) and node.id == name)
              or (isinstance(node, ast.Attribute) and node.attr == name)):
            lines.append(node.lineno)
    return sorted(lines)


def attribute_uses(source: str, names: set[str]) -> list[int]:
    """The lines that read or write an attribute named in `names`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in names)


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
    source = (
        "class C:\n"
        "    def m(self, a, _b, *args, c=1, **kw):\n"
        "        def inner(d):\n"
        "            return a + d\n"
        "        return sorted(kw, key=lambda e: inner(0))\n")
    assert unused_parameters(source) == [(2, "m", "args"), (2, "m", "c")]
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, replace as rebuild\n"
        "def f(x, s):\n"
        "    return dataclasses.replace(x), s.replace('a', 'b'), rebuild(x)\n")
    assert dataclasses_replace_uses(source) == [2, 4]
    source = (
        "from .store import MemoryStore, RecordMap as RM\n"
        "from . import store\n"
        "def f(records):\n"
        "    return RM(records), store.RecordMap, 'RecordMap'\n")
    assert name_uses(source, "RecordMap") == [1, 4]
    source = (
        "def f(state, matrix, lossy):\n"
        "    state.embeddings.norms[0] = matrix.lossy\n"
        "    return lossy, state.embeddings.capacity\n")
    assert attribute_uses(source, _MATRIX_FIELDS) == [2, 2]


def test_no_unused_parameters_in_src():
    found = {str(path.relative_to(ROOT)): unused_parameters(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.is_relative_to(ROOT / "src")}
    assert {path: unused for path, unused in found.items() if unused} == {}


def test_src_builds_values_with_evolve():
    found = {str(path.relative_to(ROOT)): dataclasses_replace_uses(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.is_relative_to(ROOT / "src")}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_only_the_store_names_its_record_map():
    found = {str(path.relative_to(ROOT)): name_uses(path.read_text(encoding="utf-8"),
                                                    "RecordMap")
             for path in SOURCES if path.is_relative_to(ROOT / "src")
             and path.name != "store.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}


# what `EmbeddingMatrix` keeps consistent with its `vectors`
_MATRIX_FIELDS = {"matrix", "norms", "lossy"}


def test_only_the_embedding_module_reads_an_embedding_matrix():
    found = {str(path.relative_to(ROOT)): attribute_uses(path.read_text(encoding="utf-8"),
                                                         _MATRIX_FIELDS)
             for path in SOURCES if path.is_relative_to(ROOT / "src")
             and path.name != "embedding.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}
