"""Step (1) of Figure 1: counting intermediate products per row (Alg. 2).

Functionally this is :func:`repro.sparse.expansion.intermediate_product_counts`;
here we also build the kernel launch that charges its (small) cost: the
kernel reads only ``rpt_A``, ``col_A`` and ``rpt_B`` -- "the execution cost
is relatively small compared to whole SpGEMM execution" (Section III-A).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.sparse.expansion import intermediate_product_counts

#: One thread per row, classic 256-thread blocks.
BLOCK_THREADS = 256


def chunk_sums(per_row: np.ndarray, chunk: int) -> np.ndarray:
    """Sum ``per_row`` over consecutive chunks of ``chunk`` rows."""
    per_row = np.asarray(per_row, dtype=np.float64)
    n = per_row.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    starts = np.arange(0, n, chunk)
    return np.add.reduceat(per_row, starts)


def chunk_maxes(per_row: np.ndarray, chunk: int) -> np.ndarray:
    """Max of ``per_row`` over consecutive chunks of ``chunk`` rows."""
    per_row = np.asarray(per_row, dtype=np.float64)
    n = per_row.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    starts = np.arange(0, n, chunk)
    return np.maximum.reduceat(per_row, starts)


def grid_sums(per_row: np.ndarray, chunk: int = BLOCK_THREADS) -> np.ndarray:
    """Per-block sums of a grid of ``chunk`` rows per block (by default
    one thread per row in blocks of ``BLOCK_THREADS``).

    A grid never has zero blocks: with no rows the launch is one idle
    block, so a zero-row operand still yields a valid kernel.
    """
    sums = chunk_sums(per_row, chunk)
    return sums if sums.shape[0] else np.zeros(1, dtype=np.float64)


def count_products(A, B) -> np.ndarray:
    """Per-row intermediate-product counts (the functional result)."""
    return intermediate_product_counts(A, B)


def count_products_kernel(A, *, stream: int = 0, phase: str = "setup") -> KernelLaunch:
    """Kernel launch charging the cost of Alg. 2 over all rows of ``A``.

    Per row: the ``rpt_A`` pair (streamed), ``col_A`` entries (streamed),
    one scattered ``rpt_B`` pair load per A-nonzero, one add per A-nonzero,
    and the 4-byte result store.
    """
    nnz_a = A.row_nnz().astype(np.float64)
    coalesced = grid_sums(8.0 + 4.0 * nnz_a + 4.0)
    scattered = grid_sums(nnz_a)
    flops = grid_sums(nnz_a)
    works = BlockWorks(flops=flops,
                       gmem_coalesced_bytes=coalesced,
                       gmem_random=scattered)
    return KernelLaunch(name="count_products", block_threads=BLOCK_THREADS,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)


def pass_over_rows_kernel(name: str, n_rows: int, words_per_row: float,
                          *, stream: int = 0, phase: str = "setup") -> KernelLaunch:
    """Generic streaming pass over per-row arrays (grouping scatter, scans).

    ``words_per_row`` counts the 4-byte words read plus written per row.
    Used for the grouping histogram/scan/scatter passes and the row-pointer
    exclusive scan -- all bandwidth-bound, perfectly coalesced.
    """
    n_rows = max(1, n_rows)
    blocks = max(1, -(-n_rows // BLOCK_THREADS))
    per_block = np.full(blocks, BLOCK_THREADS * 4.0 * words_per_row)
    per_block[-1] = (n_rows - (blocks - 1) * BLOCK_THREADS) * 4.0 * words_per_row
    works = BlockWorks(n_blocks=blocks,
                       flops=per_block / 4.0,
                       gmem_coalesced_bytes=per_block)
    return KernelLaunch(name=name, block_threads=BLOCK_THREADS,
                        shared_bytes_per_block=0, works=works, stream=stream,
                        phase=phase)
