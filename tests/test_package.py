"""The package holds only code its users reach: every public top-level
name in src/aspps is used by another statement of the package, exported
in aspps.__all__, named as a console script in pyproject.toml, or used
by perfbench/ or scripts/, and every private one by another statement
of the package. Code that only the tests use lives in tests/. Records
are NamedTuples, so no class writes its own comparison, hash or repr."""

import ast
import re
from pathlib import Path

import aspps

ROOT = Path(__file__).resolve().parent.parent


def _used_names(node, bare: bool = True) -> set[str]:
    """The names a syntax tree imports or reads as an attribute, and with
    bare, also those it reads as a plain name."""
    used = set()
    for sub in ast.walk(node):
        if bare and isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
    return used


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _names_without_a_user(private: bool, outside=frozenset()) -> list[str]:
    """The top-level private or public names of src/aspps that no other
    top-level statement of the package uses and that are not in outside."""
    statements = [
        (path, stmt)
        for path in sorted((ROOT / "src" / "aspps").glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [_used_names(stmt) for _, stmt in statements]
    return [
        f"{path.name}:{stmt.lineno} {name}"
        for i, (path, stmt) in enumerate(statements)
        for name in _defined_names(stmt)
        if name.startswith("_") == private
        and not name.startswith("__")
        and name not in outside
        and not any(name in used for j, used in enumerate(uses) if j != i)
    ]


def test_every_public_name_in_src_has_a_user():
    outside = set(aspps.__all__)
    outside.update(re.findall(r'=\s*"aspps\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    for folder in ("perfbench", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            outside |= _used_names(ast.parse(path.read_text(encoding="utf-8")), bare=False)
    assert _names_without_a_user(private=False, outside=outside) == []


def test_every_private_name_in_src_is_used_in_src():
    """A private helper that only tests or tools reach is dead code."""
    assert _names_without_a_user(private=True) == []


def test_no_class_in_src_writes_its_own_comparison_hash_or_repr():
    methods = {"__eq__", "__ne__", "__hash__", "__repr__"}
    written = [
        f"{path.name}:{stmt.lineno} {node.name}.{name}"
        for path in sorted((ROOT / "src" / "aspps").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        for name in _defined_names(stmt)
        if name in methods
    ]
    assert written == []
