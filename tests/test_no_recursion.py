"""Structural guard: no search in the package recurses.

A recursive search dies with ``RecursionError`` once its depth passes the
interpreter's limit, which for a coloring or block search is the vertex
count, so every search runs on an explicit stack instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import critickit

# Functions allowed to call themselves; keep it empty.
ALLOWED: set[str] = set()


def _self_calls(tree: ast.Module):
    """Qualified names of the functions that call themselves by name or
    through ``self.<name>``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == name) or (
                        isinstance(f, ast.Attribute)
                        and f.attr == name
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"
                    ):
                        found.append(".".join(prefix + [name]))
                        break
                visit(child, prefix + [name])
            else:
                visit(child, prefix)

    visit(tree, [])
    return found


def test_self_calls_are_detected():
    tree = ast.parse(
        "def f():\n"
        "    def rec(i):\n"
        "        return rec(i - 1)\n"
        "class C:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "    def fine(self):\n"
        "        return self.walk()\n"
    )
    assert _self_calls(tree) == ["f.rec", "C.walk"]


def test_no_search_recurses():
    package = Path(critickit.__file__).parent
    recursive = []
    for path in sorted(package.glob("*.py")):
        for name in _self_calls(ast.parse(path.read_text(), str(path))):
            if name not in ALLOWED:
                recursive.append(f"{path.name}: {name}")
    assert recursive == []
