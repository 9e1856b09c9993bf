"""Tests for the cached functional product and matrix statistics."""

import numpy as np

from repro import perf
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.product import _cache, compute_product, product_for
from repro.sparse.stats import compute_stats
from repro.types import Precision


class TestProductCache:
    def setup_method(self):
        perf.clear_fast_caches()

    def test_same_object_hits(self, rng):
        A = generators.banded(60, 5, rng=rng)
        first = compute_product(A, A)
        second = compute_product(A, A)
        assert first is second

    def test_precision_cast_gets_own_entry(self, rng):
        A = generators.banded(60, 5, rng=rng)
        compute_product(A, A)
        n_before = len(_cache)
        As = A.astype("single")            # shares rpt/col, casts values
        compute_product(As, As)
        # value content is part of the key: the cast is its own entry,
        # computed from the cast values (exact per precision)
        assert len(_cache) == n_before + 1

    def test_value_update_on_shared_structure_recomputes(self, rng):
        """An iterate with new values on the same rpt/col arrays must not
        replay the previous iterate's product (the engine's replay path
        depends on the functional layer staying exact)."""
        A = generators.banded(60, 5, rng=rng)
        first = compute_product(A, A)
        A2 = CSRMatrix(A.rpt, A.col, A.val * 2.0, A.shape, check=False)
        second = compute_product(A2, A2)
        assert second is not first
        np.testing.assert_allclose(second.C.val, 4.0 * first.C.val)

    def test_distinct_matrices_do_not_collide(self, rng):
        A = generators.banded(60, 5, rng=rng)
        B = generators.banded(60, 5, rng=np.random.default_rng(99))
        ca = compute_product(A, A)
        cb = compute_product(B, B)
        assert ca is not cb
        assert not np.array_equal(ca.C.val, cb.C.val)

    def test_capacity_bounded(self, rng):
        mats = [generators.random_csr(20, 20, 3, rng=np.random.default_rng(i))
                for i in range(24)]
        for m in mats:
            compute_product(m, m)
        assert len(_cache) <= 16

    def test_product_for_casts_values(self, rng):
        A = generators.banded(40, 4, rng=rng)
        _, C = product_for(A, A, Precision.SINGLE)
        assert C.dtype == np.float32

    def test_row_products_match_stats(self, rng):
        A = generators.banded(40, 4, rng=rng)
        res = compute_product(A, A)
        stats = compute_stats(A, name="x")
        assert res.n_products == stats.n_products
        np.testing.assert_array_equal(res.row_products, stats.row_products)


class TestStats:
    def test_table2_style_fields(self, rng):
        A = generators.stencil_regular(100, 4, rng=rng)
        s = compute_stats(A, name="stencil")
        assert s.rows == 100
        assert s.nnz == 400
        assert s.nnz_per_row_mean == 4.0
        assert s.nnz_per_row_max == 4
        assert s.n_products == 1600
        assert s.nnz_out == int(s.row_nnz_out.sum())
        assert s.compression_ratio >= 1.0
        assert s.flops == 2 * s.n_products

    def test_table_rendering(self, rng):
        A = generators.banded(50, 4, rng=rng)
        s = compute_stats(A, name="b")
        header = type(s).table_header()
        row = s.table_row()
        assert "Nnz/row" in header
        assert "b" in row
