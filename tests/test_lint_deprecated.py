"""The removed-entry-point lint: clean tree, and it actually bites.

``tools/check_deprecated.py`` is the CI step that keeps repo code on
``repro.multiply`` and the ``SpGEMMOptions`` fields now that the legacy
shims and the wrapper algorithm names raise ``RemovedAPIError``; this
suite runs it against the real tree -- ``src/repro``, ``tests``,
``benchmarks`` and ``examples`` (must be clean) -- and against synthetic
trees with violations (must flag exactly the uses, not the ``def``
lines, doc spellings or comments).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_deprecated  # noqa: E402


def test_repo_tree_is_clean():
    assert check_deprecated.offending_lines(REPO_ROOT) == []


def test_lint_flags_real_calls(tmp_path):
    pkg = tmp_path / "src" / "repro" / "sub"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import repro\n"
        "r1 = repro.spgemm(A, B)\n"
        "r2 = hash_spgemm(A, B)\n"
        "r3 = resilient_spgemm(A, B)\n")
    hits = check_deprecated.offending_lines(tmp_path)
    assert len(hits) == 3
    assert all(h.startswith("src/repro/sub/bad.py") for h in hits)


def test_lint_scans_tests_tree(tmp_path):
    tdir = tmp_path / "tests"
    tdir.mkdir(parents=True)
    (tdir / "test_bad.py").write_text("r = hash_spgemm(A, B)\n")
    hits = check_deprecated.offending_lines(tmp_path)
    assert len(hits) == 1
    assert hits[0].startswith("tests/test_bad.py")


def test_lint_scans_benchmarks_and_examples(tmp_path):
    for tree, name in (("benchmarks", "bench_bad.py"),
                       ("examples", "bad.py")):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / name).write_text("r = repro.spgemm(A, B)\n")
    hits = check_deprecated.offending_lines(tmp_path)
    assert [h.split(":")[0] for h in hits] == ["benchmarks/bench_bad.py",
                                              "examples/bad.py"]


def test_lint_flags_wrapper_algorithm_names(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "r1 = multiply(A, B, algorithm=\"resilient\")\n"
        "o = SpGEMMOptions(algorithm = 'engine')\n"
        "r2 = multiply(A, B, algorithm=\"dist\", devices=2)\n"
        "r3 = multiply(A, B, algorithm=\"tune\")\n"
        "ok = multiply(A, B, algorithm=\"proposal\", engine=True)\n")
    hits = check_deprecated.offending_lines(tmp_path)
    assert [int(h.split(":")[1]) for h in hits] == [1, 2, 3, 4]


def test_lint_flags_create_of_wrapper_names(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "e = create(\"engine\")\n"
        "t = registry.create('tune', top_k=2)\n"
        "ok = create(\"proposal\", use_streams=False)\n")
    hits = check_deprecated.offending_lines(tmp_path)
    assert [int(h.split(":")[1]) for h in hits] == [1, 2]


def test_lint_flags_with_options(tmp_path):
    tdir = tmp_path / "tests"
    tdir.mkdir()
    (tdir / "test_bad.py").write_text(
        "def test_create_with_options():\n"
        "    o2 = o.with_options(precision='single')\n"
        "    o3 = o.evolve(precision='single')\n")
    hits = check_deprecated.offending_lines(tmp_path)
    assert [int(h.split(":")[1]) for h in hits] == [2]


def test_lint_skips_defs_docs_comments_and_allowlist(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "ok.py").write_text(
        "def spgemm(A, B):\n"
        "    '''``spgemm(A, B)`` documented spelling.'''\n"
        "    # spgemm(A, B) in a comment\n"
        "    return None\n")
    # the shim module itself may call/define whatever it wants
    (pkg / "__init__.py").write_text("r = spgemm(A, B)\n")
    assert check_deprecated.offending_lines(tmp_path) == []


def test_cli_entry_returns_nonzero_on_hits(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("r = hash_spgemm(A, B)\n")
    assert check_deprecated.main([str(tmp_path)]) == 1
    assert "DEPRECATED CALL" in capsys.readouterr().err
    (pkg / "bad.py").write_text("r = multiply(A, B)\n")
    assert check_deprecated.main([str(tmp_path)]) == 0
