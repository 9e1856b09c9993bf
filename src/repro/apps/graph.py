"""Graph algorithms on SpGEMM: triangle counting, Markov clustering, k-hop.

Section I of the paper motivates SpGEMM with "graph algorithms such as
graph clustering and breadth-first search"; these are compact, correct
implementations of that family on the public API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix
from repro.types import INDEX_DTYPE


def _require_square(A: CSRMatrix, what: str) -> None:
    if A.n_rows != A.n_cols:
        raise ShapeMismatchError(f"{what} needs a square adjacency matrix, "
                                 f"got {A.shape}")


def symmetrize(A: CSRMatrix) -> CSRMatrix:
    """``max(A, A^T)`` pattern with unit weights, no self loops."""
    _require_square(A, "symmetrize")
    at = A.transpose()
    rows = np.concatenate([
        np.repeat(np.arange(A.n_rows, dtype=INDEX_DTYPE), A.row_nnz()),
        np.repeat(np.arange(A.n_rows, dtype=INDEX_DTYPE), at.row_nnz())])
    cols = np.concatenate([A.col, at.col])
    keep = rows != cols
    from repro.sparse.coo import COOMatrix

    coo = COOMatrix(rows[keep], cols[keep],
                    np.ones(int(keep.sum()), dtype=np.float64), A.shape,
                    check=False)
    m = coo.to_csr()
    m.val[:] = 1.0
    return m


def triangle_count(A: CSRMatrix, *, algorithm: str = "proposal",
                   engine=None) -> int:
    """Number of triangles in the undirected graph of ``A``.

    Uses the classic ``trace(A^3) / 6`` identity computed as
    ``sum_{ij} (A^2)_{ij} * A_{ij} / 6`` -- one SpGEMM plus a masked
    elementwise product, all in sparse arithmetic.
    """
    from repro.apps._dispatch import multiply, resolve_engine

    G = symmetrize(A)
    A2 = multiply(G, G, engine=resolve_engine(engine, algorithm),
                  algorithm=algorithm, matrix_name="A^2").matrix
    total = 0.0
    for i in range(G.n_rows):
        c2, v2 = A2.row_slice(i)
        c1, _ = G.row_slice(i)
        hits = np.isin(c2, c1)
        total += float(v2[hits].sum())
    return int(round(total / 6.0))


def squared_neighborhood(A: CSRMatrix, *, algorithm: str = "proposal",
                         engine=None) -> CSRMatrix:
    """The 2-hop reachability pattern ``A^2`` (BFS level expansion)."""
    from repro.apps._dispatch import multiply, resolve_engine

    _require_square(A, "squared_neighborhood")
    return multiply(A, A, engine=resolve_engine(engine, algorithm),
                    algorithm=algorithm, matrix_name="2hop").matrix


def markov_cluster_step(M: CSRMatrix, *, inflation: float = 2.0,
                        prune: float = 1e-4,
                        algorithm: str = "proposal",
                        engine=None) -> CSRMatrix:
    """One expansion + inflation step of Markov Clustering (van Dongen).

    Expansion is the SpGEMM ``M @ M``; inflation raises entries to the
    ``inflation`` power and renormalizes columns; entries below ``prune``
    are dropped (keeping the iteration sparse, as MCL implementations do).
    """
    from repro.apps._dispatch import multiply, resolve_engine

    _require_square(M, "markov_cluster_step")
    expanded = multiply(M, M, engine=resolve_engine(engine, algorithm),
                        algorithm=algorithm, matrix_name="mcl_expand").matrix
    val = np.power(expanded.val.astype(np.float64), inflation)
    # column sums for normalization
    sums = np.zeros(expanded.n_cols)
    np.add.at(sums, expanded.col, val)
    scale = np.where(sums[expanded.col] > 0, 1.0 / sums[expanded.col], 0.0)
    val = val * scale
    keep = val >= prune
    rows = np.repeat(np.arange(expanded.n_rows, dtype=INDEX_DTYPE),
                     expanded.row_nnz())[keep]
    from repro.sparse.coo import COOMatrix

    coo = COOMatrix(rows, expanded.col[keep], val[keep], expanded.shape,
                    check=False)
    out = coo.to_csr()
    # re-normalize columns after pruning so it stays a stochastic matrix
    sums = np.zeros(out.n_cols)
    np.add.at(sums, out.col, out.val)
    nz = sums[out.col] > 0
    out.val[nz] = out.val[nz] / sums[out.col][nz]
    return out


@dataclass
class MCLResult:
    """Outcome of a full :func:`markov_cluster` run."""

    matrix: CSRMatrix        #: the converged (or last) stochastic iterate
    iterations: int          #: expansion steps taken
    converged: bool          #: iterate stopped changing within ``tol``
    engine: object | None    #: the SpGEMMEngine used (None when disabled)


def markov_cluster(A: CSRMatrix, *, inflation: float = 2.0,
                   prune: float = 1e-4, tol: float = 1e-8,
                   max_iters: int = 30, algorithm: str = "proposal",
                   engine=True) -> MCLResult:
    """Markov Clustering to convergence: the paper's iterative workload.

    Runs :func:`markov_cluster_step` from :func:`column_stochastic` until
    the iterate stops changing (pattern equal and values within ``tol``)
    or ``max_iters`` is hit.  ``engine=True`` (the default -- this is an
    iterative loop) routes every expansion through one
    :class:`~repro.engine.SpGEMMEngine`, so once the iterate's sparsity
    pattern stabilizes the symbolic phase is paid only once and later
    expansions replay numeric-only; pass ``engine=False`` for the cold
    per-call behaviour, or an engine instance to share a cache.
    """
    from repro.apps._dispatch import resolve_engine

    _require_square(A, "markov_cluster")
    eng = resolve_engine(engine, algorithm)
    M = column_stochastic(A)
    iterations, converged = 0, False
    for iterations in range(1, max_iters + 1):
        nxt = markov_cluster_step(M, inflation=inflation, prune=prune,
                                  algorithm=algorithm, engine=eng)
        if (nxt.nnz == M.nnz and np.array_equal(nxt.rpt, M.rpt)
                and np.array_equal(nxt.col, M.col)
                and np.allclose(nxt.val, M.val, rtol=0.0, atol=tol)):
            M = nxt
            converged = True
            break
        M = nxt
    return MCLResult(matrix=M, iterations=iterations, converged=converged,
                     engine=eng)


def column_stochastic(A: CSRMatrix) -> CSRMatrix:
    """Normalize columns to sum to one (MCL's starting matrix), after
    adding self loops."""
    _require_square(A, "column_stochastic")
    n = A.n_rows
    eye = CSRMatrix.identity(n)
    rows = np.concatenate([
        np.repeat(np.arange(n, dtype=INDEX_DTYPE), A.row_nnz()),
        np.arange(n, dtype=INDEX_DTYPE)])
    cols = np.concatenate([A.col, eye.col])
    vals = np.concatenate([np.ones(A.nnz), np.ones(n)])
    from repro.sparse.coo import COOMatrix

    m = COOMatrix(rows, cols, vals, A.shape, check=False).to_csr()
    sums = np.zeros(n)
    np.add.at(sums, m.col, m.val)
    m.val = m.val / sums[m.col]
    return m
