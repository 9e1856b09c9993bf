"""Vectorized expansion of intermediate products.

``C = A @ B`` over CSR generates one *intermediate product*
``a_ik * b_kj`` per (nonzero of A, nonzero of the matching B row) pair.
This module materializes those products as flat arrays -- the "expansion"
phase of the ESC algorithm and the workhorse of the reference SpGEMM.  It is
also where Alg. 2 of the paper (per-row intermediate-product counts) lives.

The expansion is fully vectorized: no Python-level loop over rows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ShapeMismatchError
from repro.sparse import native
from repro.sparse.validate import validate_csr
from repro.types import INDEX_DTYPE

#: Intermediate products replayed per chunk by :func:`values_from_recipe`
#: (rounded up to whole output entries): the gathered and multiplied
#: temporaries stay this long instead of one per product.
_REPLAY_CHUNK = 1 << 14


def check_multiplicable(A, B) -> None:
    """Raise unless ``A @ B`` is shape-compatible and both operands are
    structurally valid CSR.

    Operands built with ``check=False`` reach here unvalidated, and every
    expansion indexes B through A's column indices: a bad row pointer or
    an out-of-range column would read out of bounds (a bare
    ``IndexError``, a silently invalid product, or memory corruption in
    the native kernel).  :func:`~repro.sparse.validate.validate_csr` is
    O(nnz) -- noise next to the O(products) work it guards.
    """
    if A.n_cols != B.n_rows:
        raise ShapeMismatchError(
            f"cannot multiply {A.shape} by {B.shape}: inner dimensions differ")
    validate_csr(A)
    if B is not A:
        validate_csr(B)


def intermediate_product_counts(A, B) -> np.ndarray:
    """Per-row intermediate product counts of ``A @ B`` (paper Alg. 2).

    ``counts[i] = sum over nonzeros a_ik of row i of nnz(B row k)``.

    Requires only ``rpt_A``, ``col_A`` and ``rpt_B`` -- the same inputs the
    paper's kernel reads -- and is the upper bound on each output row's nnz.
    """
    check_multiplicable(A, B)
    b_row_nnz = np.diff(B.rpt)                     # nnz of every B row
    per_nonzero = b_row_nnz[A.col]                 # one count per A nonzero
    counts = np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    nz_rows = np.diff(A.rpt) > 0
    starts = A.rpt[:-1][nz_rows]
    if starts.size:
        counts[nz_rows] = np.add.reduceat(per_nonzero, starts)
    return counts


class Expansion(NamedTuple):
    """Flat arrays of all intermediate products of ``A @ B``.

    Attributes
    ----------
    rows: output-row index of each product.
    cols: output-column index of each product (``col_B`` of the B entry).
    vals: ``a_ik * b_kj`` for each product.
    row_counts: per-row product counts (Alg. 2 result), for grouping/stats.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_counts: np.ndarray

    @property
    def n_products(self) -> int:
        """Total number of intermediate products."""
        return int(self.rows.shape[0])


def expand_products(A, B, *, with_values: bool = True) -> Expansion:
    """Materialize every intermediate product of ``A @ B``.

    For each nonzero ``a_ik`` (position ``j`` in A's arrays) the products
    against B row ``k = col_A[j]`` occupy a contiguous run.  The flat index
    into B's arrays for the ``t``-th product of run ``j`` is
    ``rpt_B[k] + t``; runs are laid out back to back.

    ``with_values=False`` skips the value multiply (symbolic-only callers).
    """
    check_multiplicable(A, B)
    b_row_nnz = np.diff(B.rpt)
    run_len = b_row_nnz[A.col]                       # products per A nonzero
    total = int(run_len.sum())
    row_counts = np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    nz_rows = np.diff(A.rpt) > 0
    starts = A.rpt[:-1][nz_rows]
    if starts.size:
        row_counts[nz_rows] = np.add.reduceat(run_len, starts)

    if total == 0:
        empty_i = np.empty(0, dtype=INDEX_DTYPE)
        empty_v = np.empty(0, dtype=A.dtype)
        return Expansion(empty_i, empty_i.copy(),
                         empty_v if with_values else empty_v, row_counts)

    # position of each product within its run: global arange minus the
    # repeated run start offset
    run_offsets = np.concatenate(([0], np.cumsum(run_len)[:-1]))
    within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(run_offsets, run_len)
    b_flat = np.repeat(B.rpt[A.col], run_len) + within   # index into B arrays

    a_rows = np.repeat(np.arange(A.n_rows, dtype=INDEX_DTYPE), np.diff(A.rpt))
    rows = np.repeat(a_rows, run_len)
    cols = B.col[b_flat]
    if with_values:
        vals = np.repeat(A.val, run_len) * B.val[b_flat]
    else:
        vals = np.empty(0, dtype=A.dtype)
    return Expansion(rows, cols, vals, row_counts)


class SortRecipe(NamedTuple):
    """The value-independent part of one expansion + contraction.

    For a fixed pair of sparsity patterns, the lexsort permutation, the
    duplicate-run boundaries and the output-CSR structure never change --
    only the multiplied values do.  A recipe captures all of it, so a
    later multiply with fresh values on the same patterns reduces to a
    gather, an elementwise multiply and one ``np.add.reduceat``
    (:func:`values_from_recipe`), bit-identical to re-running
    :func:`expand_products` + :func:`contract` from scratch.

    Attributes
    ----------
    a_idx / b_idx: per intermediate product (in (row, col)-sorted order),
        the flat index of the contributing A and B nonzero.
    starts: ``reduceat`` boundaries of the duplicate runs.
    rpt / col: the output-CSR structure.
    row_counts: Alg. 2 per-row product counts.
    shape: output shape.
    """

    a_idx: np.ndarray
    b_idx: np.ndarray
    starts: np.ndarray
    rpt: np.ndarray
    col: np.ndarray
    row_counts: np.ndarray
    shape: tuple[int, int]

    @property
    def n_products(self) -> int:
        """Total intermediate products."""
        return int(self.a_idx.shape[0])

    def nbytes(self) -> int:
        """Host memory retained by the recipe (cache accounting)."""
        return sum(int(a.nbytes) for a in
                   (self.a_idx, self.b_idx, self.starts, self.rpt,
                    self.col, self.row_counts))


def build_sort_recipe(A, B) -> SortRecipe:
    """Capture the sort/merge structure of ``A @ B`` (values untouched).

    Row by row in the native kernel (:mod:`repro.sparse.native`): mark
    the row's distinct output columns, sort only those, then place each
    product at its column's running offset in expansion order.  That is
    the stable (row, col) sort :func:`contract` applies to the whole
    expansion, so gathering values through the recipe and reducing at
    ``starts`` reproduces the contraction exactly.  Without a C compiler
    the numpy formulation (:func:`_sort_recipe_numpy`, also the oracle
    the kernel is tested against) builds the same arrays.
    """
    check_multiplicable(A, B)
    arrays = native.sort_recipe(A, B)
    if arrays is None:
        return _sort_recipe_numpy(A, B)
    return SortRecipe(*arrays, (A.n_rows, B.n_cols))


def _sort_recipe_numpy(A, B) -> SortRecipe:
    """:func:`build_sort_recipe` by one global stable argsort.

    The per-product A index is position ``j`` repeated over run ``j``'s
    length and the B index is the same ``b_flat`` the expansion gathers;
    both are then permuted by the (row, col) sort.
    """
    shape = (A.n_rows, B.n_cols)
    b_row_nnz = np.diff(B.rpt)
    run_len = b_row_nnz[A.col]
    total = int(run_len.sum())
    row_counts = np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    nz_rows = np.diff(A.rpt) > 0
    a_starts = A.rpt[:-1][nz_rows]
    if a_starts.size:
        row_counts[nz_rows] = np.add.reduceat(run_len, a_starts)

    empty_i = np.empty(0, dtype=INDEX_DTYPE)
    if total == 0:
        rpt = np.zeros(A.n_rows + 1, dtype=INDEX_DTYPE)
        return SortRecipe(empty_i, empty_i.copy(), empty_i.copy(), rpt,
                          empty_i.copy(), row_counts, shape)

    run_offsets = np.concatenate(([0], np.cumsum(run_len)[:-1]))
    within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(run_offsets, run_len)
    b_flat = np.repeat(B.rpt[A.col], run_len) + within
    a_flat = np.repeat(np.arange(A.col.shape[0], dtype=INDEX_DTYPE), run_len)

    a_rows = np.repeat(np.arange(A.n_rows, dtype=INDEX_DTYPE), np.diff(A.rpt))
    rows = np.repeat(a_rows, run_len)
    cols = B.col[b_flat]

    # rows are nondecreasing by construction, so a single stable argsort
    # of the fused (row, col) key equals lexsort((cols, rows)) -- same
    # permutation, one sort pass instead of two.  Guard the fusion
    # against int64 overflow for pathological shapes.
    if A.n_rows * B.n_cols < 2**62:
        order = np.argsort(rows * np.int64(B.n_cols) + cols, kind="stable")
    else:   # pragma: no cover - needs a >2^31-column matrix
        order = np.lexsort((cols, rows))
    r, c = rows[order], cols[order]
    new_run = np.empty(r.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_run)
    out_col = c[starts]
    counts = np.bincount(r[starts], minlength=A.n_rows)
    rpt = np.zeros(A.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=rpt[1:])
    return SortRecipe(a_flat[order], b_flat[order], starts, rpt, out_col,
                      row_counts, shape)


def values_from_recipe(recipe: SortRecipe, A, B) -> np.ndarray:
    """Output values (float64) of ``A @ B`` along a captured recipe.

    Bit-identical to the :func:`expand_products` + :func:`contract` pair:
    the same value pairs are multiplied in the same operand dtype, cast
    to float64, and reduced over the same boundaries in the same order --
    only the lexsort itself is skipped.  The replay walks the products in
    chunks of about :data:`_REPLAY_CHUNK` that end on output-entry
    boundaries, so every entry is still reduced whole in one ``reduceat``
    while no temporary grows with the product count.
    """
    starts = recipe.starts
    nnz = starts.shape[0]
    out = np.empty(nnz, dtype=np.float64)
    e0 = 0
    while e0 < nnz:
        p0 = int(starts[e0])
        e1 = int(np.searchsorted(starts, p0 + _REPLAY_CHUNK))
        p1 = int(starts[e1]) if e1 < nnz else recipe.n_products
        v = A.val[recipe.a_idx[p0:p1]] * B.val[recipe.b_idx[p0:p1]]
        np.add.reduceat(v.astype(np.float64, copy=False), starts[e0:e1] - p0,
                        out=out[e0:e1])
        e0 = e1
    return out


def contract(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             shape: tuple[int, int], dtype: np.dtype):
    """Sort products by (row, col) and sum duplicates into canonical CSR.

    The "S" and "C" of ESC.  Returns a :class:`~repro.sparse.csr.CSRMatrix`.
    """
    from repro.sparse.csr import CSRMatrix

    n_rows = shape[0]
    if rows.shape[0] == 0:
        m = CSRMatrix.empty(shape)
        m.val = m.val.astype(dtype)
        return m
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    new_run = np.empty(r.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_run)
    out_val = np.add.reduceat(v.astype(np.float64), starts).astype(dtype)
    out_col = c[starts]
    counts = np.bincount(r[starts], minlength=n_rows)
    rpt = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=rpt[1:])
    return CSRMatrix(rpt, out_col, out_val, shape, check=False)


def symbolic_row_nnz(A, B) -> np.ndarray:
    """Exact output nnz per row of ``A @ B`` (duplicates merged), vectorized.

    Used as an oracle for the hash-based symbolic phase: counts distinct
    columns per output row via a sorted unique over the expansion.
    """
    exp = expand_products(A, B, with_values=False)
    if exp.n_products == 0:
        return np.zeros(A.n_rows, dtype=INDEX_DTYPE)
    order = np.lexsort((exp.cols, exp.rows))
    r, c = exp.rows[order], exp.cols[order]
    new_run = np.empty(r.shape[0], dtype=bool)
    new_run[0] = True
    new_run[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    return np.bincount(r[new_run], minlength=A.n_rows).astype(INDEX_DTYPE)
