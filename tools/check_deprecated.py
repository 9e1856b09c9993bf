#!/usr/bin/env python3
"""Fail CI when repo code uses a removed SpGEMM spelling.

The legacy entry points -- ``repro.spgemm()``, ``hash_spgemm()`` and
``resilient_spgemm()`` -- were :class:`DeprecationWarning` shims for two
majors and now raise :class:`~repro.errors.RemovedAPIError`.  So do the
wrapper names once accepted as an algorithm (``algorithm="resilient"``,
``"engine"``, ``"dist"``, ``"tune"`` and ``create()`` of them: each
wrapper composes from its own :class:`~repro.options.SpGEMMOptions`
field now), and ``SpGEMMOptions.with_options`` is gone in favour of
``evolve``.  Nothing in ``src/repro``, ``tests``, ``benchmarks`` or
``examples`` may use them: all code goes through ``repro.multiply`` and
``SpGEMMOptions`` fields.  This is a line-level grep, not an import
analysis, so it is fast, dependency-free and easy to reason about; the
allowlist names the files that define the raising stubs or assert that
they raise.

Usage::

    python tools/check_deprecated.py [ROOT]

Exits 0 when clean, 1 listing every offending ``file:line``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Call sites of the removed entry points.  The lookbehinds skip
#: ``def`` lines and doc spellings like ````spgemm(...)```` (preceded by
#: a backtick) or attribute tails already matched with their prefix.
DEPRECATED_CALLS = re.compile(
    r"(?<!def )(?<![`.\w])"
    r"(repro\.spgemm|hash_spgemm|resilient_spgemm|spgemm)\s*\(")

#: The retired wrapper spellings: a wrapper name passed as the
#: algorithm or to the registry's ``create``, and the ``evolve`` alias.
_WRAPPER = r"""["'](?:resilient|engine|dist|tune)["']"""
RETIRED_SPELLINGS = re.compile(
    rf"(?<![\w.])algorithm\s*=\s*{_WRAPPER}"
    rf"|\bcreate\(\s*{_WRAPPER}"
    r"|\.with_options\(")

#: Trees scanned relative to the repo root.
SCAN_TREES = (("src", "repro"), ("tests",), ("benchmarks",), ("examples",))

#: Files that define the raising stubs, re-export them, or test that
#: they raise (including this lint's own fixture strings).
ALLOWLIST = {
    "src/repro/__init__.py",
    "src/repro/core/__init__.py",
    "src/repro/core/spgemm.py",
    "src/repro/core/resilient.py",
    "src/repro/options.py",
    "tests/test_options.py",
    "tests/test_lint_deprecated.py",
}


def offending_lines(root: Path) -> list[str]:
    """Every ``file:line: text`` hit under ``root``'s scanned trees."""
    hits: list[str] = []
    for parts in SCAN_TREES:
        tree = root.joinpath(*parts)
        if not tree.is_dir():
            continue
        for path in sorted(tree.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if rel in ALLOWLIST:
                continue
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                code = line.split("#", 1)[0]
                if DEPRECATED_CALLS.search(code) \
                        or RETIRED_SPELLINGS.search(code):
                    hits.append(f"{rel}:{lineno}: {line.strip()}")
    return hits


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    hits = offending_lines(root)
    for h in hits:
        print(f"DEPRECATED CALL: {h}", file=sys.stderr)
    if hits:
        print(f"{len(hits)} use(s) of removed spellings; use "
              "repro.multiply(A, B, options=SpGEMMOptions(...)) with the "
              "wrapper's own field and SpGEMMOptions.evolve",
              file=sys.stderr)
        return 1
    print("no uses of removed spellings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
