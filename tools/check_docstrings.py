#!/usr/bin/env python3
"""Public-docstring audit (the CI ``docs`` job).

``python tools/check_docstrings.py <path> [<path> ...]`` audits each
given ``.py`` file and every ``.py`` file under each given directory,
and requires a docstring on

* every module,
* every public class (name not starting with ``_``),
* every public function and method.

Private helpers (leading underscore) and dunder methods are exempt, as
are trivial overrides whose body is a bare ``pass``/``...``.  A path
that names no ``.py`` file (a typo, a moved module) fails the audit
rather than passing it unchecked.  This is the pydocstyle-style spot
check of the CI documentation gate — stdlib-only, so it needs nothing
installed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def is_public(name: str) -> bool:
    return not name.startswith("_")


def is_property_companion(node: ast.AST) -> bool:
    """True for ``@x.setter``/``@x.deleter`` defs: the getter documents them."""
    for decorator in getattr(node, "decorator_list", []):
        if (
            isinstance(decorator, ast.Attribute)
            and decorator.attr in ("setter", "deleter")
        ):
            return True
    return False


def trivial(node: ast.AST) -> bool:
    """A body that is only ``pass``/``...`` needs no docstring."""
    body = getattr(node, "body", [])
    if len(body) != 1:
        return False
    only = body[0]
    if isinstance(only, ast.Pass):
        return True
    return isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant)


def missing_in(path: Path) -> list:
    """(line, kind, name) triples of undocumented public definitions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append((1, "module", path.stem))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if is_public(node.name) and ast.get_docstring(node) is None:
                problems.append((node.lineno, "class", node.name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not is_public(node.name) or is_property_companion(node):
                continue
            if ast.get_docstring(node) is None and not trivial(node):
                problems.append((node.lineno, "function", node.name))
    return problems


def python_files(root: Path) -> list:
    """``root`` itself when it is a ``.py`` file, else the ``.py`` files under it."""
    if root.is_file():
        return [root] if root.suffix == ".py" else []
    return sorted(root.rglob("*.py"))


def main(argv: list) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src/repro")]
    unmatched = [root for root in roots if not python_files(root)]
    if unmatched:
        for root in unmatched:
            print(f"{root}: no .py file to audit")
        return 2
    failures = 0
    checked = 0
    for root in roots:
        for path in python_files(root):
            checked += 1
            for lineno, kind, name in missing_in(path):
                print(f"{path}:{lineno}: undocumented public {kind} {name!r}")
                failures += 1
    if failures:
        print(f"{failures} undocumented public definition(s) in {checked} file(s)")
        return 1
    print(f"docstrings ok: {checked} file(s) audited")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
