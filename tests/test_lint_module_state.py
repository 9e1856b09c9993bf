"""The stray-module-state lint: clean tree, and it actually bites.

``tools/check_module_state.py`` is the CI step that keeps process-wide
caches inside :class:`repro.perf.Memo`; this suite runs it against the
real ``src/repro`` tree (must be clean) and against synthetic trees
(must flag exactly the module-level empty containers, not function
locals, class attributes, non-empty literals or the allowlist).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_module_state  # noqa: E402


def test_repo_tree_is_clean():
    assert check_module_state.offending_lines(REPO_ROOT) == []


def test_lint_flags_every_empty_container(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sub"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "from collections import OrderedDict\n"
        "import collections\n"
        "_a = {}\n"
        "_b: list[int] = []\n"
        "_c = set()\n"
        "_d = dict()\n"
        "_e = OrderedDict()\n"
        "_f = collections.OrderedDict()\n")
    hits = check_module_state.offending_lines(tmp_path)
    assert len(hits) == 6
    assert all(h.startswith("src/repro/sub/bad.py") for h in hits)


def test_lint_skips_locals_constants_and_allowlist(tmp_path):
    pkg = tmp_path / "src" / "repro"
    (pkg / "backend").mkdir(parents=True)
    (pkg / "ok.py").write_text(
        "NAMES = {'a': 1}\n"
        "ORDER = ['x', 'y']\n"
        "def f():\n"
        "    seen = {}\n"
        "    return seen\n"
        "class C:\n"
        "    items = []\n")
    (pkg / "backend" / "registry.py").write_text("_BACKENDS = {}\n")
    (pkg / "perf.py").write_text("_memos = []\n")
    assert check_module_state.offending_lines(tmp_path) == []


def test_cli_entry_returns_nonzero_on_hits(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("_cache = {}\n")
    assert check_module_state.main([str(tmp_path)]) == 1
    assert "MODULE STATE" in capsys.readouterr().err
    (pkg / "bad.py").write_text("_cache = Memo(16, process_wide=True)\n")
    assert check_module_state.main([str(tmp_path)]) == 0
