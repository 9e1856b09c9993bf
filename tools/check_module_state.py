#!/usr/bin/env python3
"""Fail CI when package code keeps mutable state in a module global.

A module-level ``{}``, ``[]``, ``set()``, ``dict()`` or ``OrderedDict()``
is how ad-hoc caches start: process-wide, unlocked, unbounded or bounded
by a hand-rolled eviction that races under the serve worker pool.  Every
process-wide cache is a :class:`repro.perf.Memo` instead (locked, LRU,
budgeted, cleared by ``perf.clear_fast_caches()``).

This is an AST check, not a grep: it flags an assignment of an *empty*
container literal or constructor call among a module's top-level
statements under ``src/repro``.  Function and class bodies are not
module state.  The allowlist holds the two registries that are the
point of their module.

Usage::

    python tools/check_module_state.py [ROOT]

Exits 0 when clean, 1 listing every offending ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: ``path:name`` of the module globals allowed to start empty: the
#: backend registry and perf's registry of process-wide memos.
ALLOWLIST = {
    "src/repro/backend/registry.py:_BACKENDS",
    "src/repro/perf.py:_memos",
}

_CONSTRUCTORS = {"set", "dict", "OrderedDict"}


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        f = node.func
        name = f.id if isinstance(f, ast.Name) else (
            f.attr if isinstance(f, ast.Attribute) else "")
        return name in _CONSTRUCTORS
    return False


def _targets(stmt: ast.stmt) -> list[str]:
    """Names bound by an assignment of an empty container, else []."""
    if isinstance(stmt, ast.Assign) and _is_empty_container(stmt.value):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and _is_empty_container(stmt.value):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def offending_lines(root: Path) -> list[str]:
    """Every ``file:line: text`` hit under ``root``'s src/repro."""
    hits: list[str] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=rel)
        for stmt in tree.body:
            for name in _targets(stmt):
                if f"{rel}:{name}" not in ALLOWLIST:
                    hits.append(f"{rel}:{stmt.lineno}: "
                                f"{lines[stmt.lineno - 1].strip()}")
    return hits


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    hits = offending_lines(root)
    for h in hits:
        print(f"MODULE STATE: {h}", file=sys.stderr)
    if hits:
        print(f"{len(hits)} mutable module global(s); keep process-wide "
              "caches in a repro.perf.Memo", file=sys.stderr)
        return 1
    print("no mutable module globals outside the allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
