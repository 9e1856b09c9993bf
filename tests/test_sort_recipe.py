"""The sort recipe: native kernel against the numpy oracle, chunked value
replay against single-pass replay, and typed errors for malformed operands.

:func:`repro.sparse.expansion.build_sort_recipe` runs the C kernel of
:mod:`repro.sparse.native` whenever a compiler exists and the numpy
formulation otherwise; both must build identical arrays.
"""

from __future__ import annotations

import ctypes
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import perf
from repro.errors import SparseFormatError
from repro.sparse import expansion, generators, native
from repro.sparse.csr import CSRMatrix
from tests.test_differential import CORPUS

FIELDS = ("a_idx", "b_idx", "starts", "rpt", "col", "row_counts")

needs_kernel = pytest.mark.skipif(native.compiler() is None,
                                  reason="no C compiler on PATH")


def test_kernel_loads_when_a_compiler_exists():
    """With a compiler on PATH the library must build and load with every
    kernel's entry point, so a CI leg cannot pass having checked only the
    Python fallbacks."""
    if native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    dll = native.kernel()
    assert dll is not None
    assert sorted(native.ENTRY_POINTS) == ["recipe_count", "recipe_fill",
                                           "schedule_phase", "tile_count",
                                           "tile_fill"]
    for name, argtypes in native.ENTRY_POINTS.items():
        entry = getattr(dll, name)
        assert entry.argtypes == argtypes, name
        assert entry.restype is ctypes.c_int, name


def test_import_builds_nothing():
    code = ("import repro, repro.sparse.native as n; "
            "print(n.kernel.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"


def _assert_same_recipe(A, B):
    got = expansion.build_sort_recipe(A, B)
    want = expansion._sort_recipe_numpy(A, B)
    assert got.shape == want.shape
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype == np.int64, name
        assert np.array_equal(g, w), name
        assert g.base is None, name          # exact size, not a view
    assert got.nbytes() == sum(getattr(got, f).size * 8 for f in FIELDS)
    return got


@st.composite
def _csr(draw, n_rows: int, n_cols: int) -> CSRMatrix:
    """Empty rows, duplicate-heavy rows (columns from a pool of three),
    unsorted columns and at most one fully dense row."""
    dense_row = None
    if n_rows and n_cols:
        dense_row = draw(st.one_of(st.none(), st.integers(0, n_rows - 1)))
    pool = min(n_cols, 3) if draw(st.booleans()) else n_cols
    rows = []
    for i in range(n_rows):
        if i == dense_row:
            rows.append(list(range(n_cols)))
        elif pool:
            rows.append(draw(st.lists(st.integers(0, pool - 1), max_size=6)))
        else:
            rows.append([])
    rpt = np.cumsum([0] + [len(r) for r in rows])
    col = np.array([c for r in rows for c in r], dtype=np.int64)
    return CSRMatrix(rpt, col, np.ones(col.size), (n_rows, n_cols))


@st.composite
def _pair(draw):
    dims = st.sampled_from([0, 1, 3, 17, 40])
    m, k = draw(dims), draw(dims)
    n = draw(st.sampled_from([0, 1, 3, 17, 40, 5000]))
    return draw(_csr(m, k)), draw(_csr(k, n))


@needs_kernel
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_pair())
def test_kernel_matches_numpy_property(pair):
    _assert_same_recipe(*pair)


@needs_kernel
def test_kernel_matches_numpy_sorted_rows(rng):
    """Rows whose columns are too spread to read off the marks go through
    the kernel's sort (rows of ~64 columns over a million)."""
    A = generators.random_csr(40, 2000, 8, rng=rng)
    B = generators.random_csr(2000, 10**6, 8, rng=rng)
    assert _assert_same_recipe(A, B).n_products > 0


@needs_kernel
@pytest.mark.corpus
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kernel_matches_numpy_corpus(name, rng):
    A = CORPUS[name](rng)
    _assert_same_recipe(A, A)


def _single_pass(recipe, A, B) -> np.ndarray:
    v = A.val[recipe.a_idx] * B.val[recipe.b_idx]
    return np.add.reduceat(v.astype(np.float64), recipe.starts)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_chunked_replay_is_bit_identical(chunk, precision, rng, monkeypatch):
    A = generators.power_law(300, 12.0, 120, rng=rng, precision=precision)
    recipe = expansion.build_sort_recipe(A, A)
    assert recipe.n_products > 1 << 14     # crosses the default chunk too
    monkeypatch.setattr(expansion, "_REPLAY_CHUNK", chunk)
    got = expansion.values_from_recipe(recipe, A, A)
    want = _single_pass(recipe, A, A)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_replay_of_an_empty_product(rng):
    A = generators.random_csr(5, 5, 2, rng=rng)
    Z = CSRMatrix.empty((5, 3))
    recipe = expansion.build_sort_recipe(A, Z)
    assert recipe.n_products == 0
    assert expansion.values_from_recipe(recipe, A, Z).shape == (0,)


# -- malformed operands ----------------------------------------------------------

_GOOD = CSRMatrix(np.array([0, 1, 2]), np.array([0, 1]), np.array([1., 2.]),
                  (2, 2))


def _bad(rpt, col):
    return CSRMatrix(np.array(rpt), np.array(col), np.ones(len(col)), (2, 2),
                     check=False)


MALFORMED = {
    "B column >= n_cols": (_GOOD, _bad([0, 1, 3], [0, 5, 5])),
    "A column >= B rows": (_bad([0, 1, 2], [0, 7]), _GOOD),
    "negative column": (_bad([0, 1, 2], [0, -1]), _GOOD),
    "rpt[0] != 0": (_bad([1, 1, 2], [0, 1]), _GOOD),
    "rpt not monotone": (_bad([0, 2, 1], [0, 1]), _GOOD),
    "rpt[-1] != nnz": (_GOOD, _bad([0, 1, 5], [0, 1])),
}


@pytest.mark.parametrize("path", ["native", "numpy", "scalar"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_operands_raise_typed(case, path, monkeypatch):
    if path == "native" and native.kernel() is None:
        pytest.skip("no C compiler on PATH")
    if path == "numpy":
        monkeypatch.setattr(native, "kernel", lambda: None)
    if path == "scalar":
        monkeypatch.setenv("REPRO_SCALAR_CORE", "1")
    else:
        monkeypatch.delenv("REPRO_SCALAR_CORE", raising=False)
    A, B = MALFORMED[case]
    perf.clear_fast_caches()
    with pytest.raises(SparseFormatError):
        repro.multiply(A, B)
    with pytest.raises(SparseFormatError):
        expansion.build_sort_recipe(A, B)
