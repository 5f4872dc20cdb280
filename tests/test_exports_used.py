"""Every name a package exports is used somewhere outside the tests.

A name in the ``__all__`` of a ``src/repro/**/__init__.py`` must be read
by code in ``src/``, ``perfbench/``, ``benchmarks/`` or ``examples/``, or
be named in ``README.md``.  What does not count as a use: the name's own
definition, the imports that re-export it and the ``__all__`` lists
themselves, and docstrings and comments.  Names in the curated
``repro.__all__`` and ``repro.api.__all__`` are the public surface and
exempt.  An export only tests read is dead code kept alive by its tests.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import repro
import repro.api

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "perfbench", "benchmarks", "examples")


def _exports() -> dict[str, list[str]]:
    """Exported name -> the packages whose ``__all__`` lists it."""
    exports: dict[str, list[str]] = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        parts = init.parent.relative_to(PACKAGE.parent).parts
        module = importlib.import_module(".".join(parts))
        for name in getattr(module, "__all__", ()):
            exports.setdefault(name, []).append(module.__name__)
    return exports


def _is_all_assignment(node: ast.AST) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
        else []
    )
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in targets
    )


def _uses_in(tree: ast.AST) -> set[str]:
    """Names read in one module: loads, attribute reads and string
    literals (``monkeypatch``-style lookups by name), minus ``__all__``."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if _is_all_assignment(node):
            skipped.update(id(child) for child in ast.walk(node))
    used: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def _used_names() -> set[str]:
    used: set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _uses_in(ast.parse(path.read_text(), filename=str(path)))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    return used


def test_every_export_has_a_use():
    exempt = set(repro.__all__) | set(repro.api.__all__)
    used = _used_names()
    unused = sorted(
        f"{name} ({', '.join(packages)})"
        for name, packages in _exports().items()
        if name not in exempt and name not in used
    )
    assert not unused, "exports nothing outside tests uses: " + "; ".join(unused)
