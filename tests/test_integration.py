"""Integration tests: all algorithms, all dataset classes, end to end."""

import numpy as np
import pytest

import repro
from repro.bench.datasets import get_dataset
from repro.sparse import generators, spgemm_reference
from repro.sparse.csr import CSRMatrix
from tests.conftest import COMPOSITIONS, RUNS

ALGS = ("cusp", "cusparse", "bhsparse", "proposal")


class TestCrossAlgorithmEquivalence:
    """All four algorithms must produce the identical sparse product."""

    @pytest.mark.parametrize("name", ["Epidemiology", "webbase", "Circuit"])
    def test_on_dataset_analogues(self, name):
        A = get_dataset(name).matrix()
        results = {a: repro.multiply(A, A, algorithm=a, precision="double",
                                   matrix_name=name) for a in ALGS}
        base = results["proposal"].matrix
        for a in ALGS:
            m = results[a].matrix
            np.testing.assert_array_equal(m.rpt, base.rpt, err_msg=a)
            np.testing.assert_array_equal(m.col, base.col, err_msg=a)
            np.testing.assert_allclose(m.val, base.val, rtol=1e-12,
                                       err_msg=a)

    def test_chained_power(self, rng):
        """A^4 via two rounds of squaring, each with a different algorithm."""
        A = generators.banded(150, 6, rng=rng)
        a2 = repro.multiply(A, A, algorithm="proposal").matrix
        a4_hash = repro.multiply(a2, a2, algorithm="proposal").matrix
        b2 = repro.multiply(A, A, algorithm="cusp").matrix
        a4_esc = repro.multiply(b2, b2, algorithm="bhsparse").matrix
        assert a4_hash.allclose(a4_esc, rtol=1e-10)
        ref = spgemm_reference(spgemm_reference(A, A), spgemm_reference(A, A))
        assert a4_hash.allclose(ref, rtol=1e-10)

    def test_rectangular_chain_three_matrices(self, rng):
        A = generators.random_csr(40, 80, 4, rng=rng)
        B = generators.random_csr(80, 25, 5, rng=rng)
        Cc = generators.random_csr(25, 60, 3, rng=rng)
        ab = repro.multiply(A, B, algorithm="proposal").matrix
        abc = repro.multiply(ab, Cc, algorithm="cusparse").matrix
        ref = spgemm_reference(spgemm_reference(A, B), Cc)
        assert abc.allclose(ref, rtol=1e-10)


class TestPrecisionBehaviour:
    @pytest.mark.parametrize("algorithm", ALGS)
    def test_double_slower_but_equal_structure(self, algorithm, rng):
        A = generators.banded(600, 18, rng=rng)
        s = repro.multiply(A, A, algorithm=algorithm, precision="single")
        d = repro.multiply(A, A, algorithm=algorithm, precision="double")
        np.testing.assert_array_equal(s.matrix.rpt, d.matrix.rpt)
        np.testing.assert_array_equal(s.matrix.col, d.matrix.col)
        assert d.report.total_seconds > s.report.total_seconds
        assert d.report.peak_bytes > s.report.peak_bytes


class TestDeviceSweep:
    def test_smaller_device_is_slower(self, rng):
        """Halving the SM count must slow every algorithm down."""
        import dataclasses

        A = generators.banded(800, 20, rng=rng)
        half = dataclasses.replace(repro.P100, name="HalfP100", sm_count=28)
        for algorithm in ALGS:
            full_t = repro.multiply(A, A, algorithm=algorithm,
                                  device=repro.P100).report.total_seconds
            half_t = repro.multiply(A, A, algorithm=algorithm,
                                  device=half).report.total_seconds
            assert half_t > full_t, algorithm

    def test_k40_runs_and_is_slower(self, rng):
        A = generators.banded(800, 20, rng=rng)
        p100 = repro.multiply(A, A, device=repro.P100).report
        k40 = repro.multiply(A, A, device=repro.K40).report
        assert k40.total_seconds > p100.total_seconds
        assert k40.device == repro.K40.name

    def test_results_independent_of_device(self, rng):
        A = generators.power_law(300, 4.0, 50, rng=rng)
        a = repro.multiply(A, A, device=repro.P100).matrix
        b = repro.multiply(A, A, device=repro.K40).matrix
        assert a.allclose(b, rtol=1e-14)


class TestEdgeCases:
    @pytest.mark.parametrize("algorithm", ALGS)
    def test_single_row_matrix(self, algorithm):
        A = CSRMatrix(np.array([0, 2]), np.array([0, 1]),
                      np.array([1.0, 2.0]), (1, 2))
        B = CSRMatrix(np.array([0, 1, 2]), np.array([0, 0]),
                      np.array([3.0, 4.0]), (2, 1))
        got = repro.multiply(A, B, algorithm=algorithm).matrix
        assert got.to_dense()[0, 0] == 11.0

    @pytest.mark.parametrize("algorithm", ALGS)
    def test_diagonal_square(self, algorithm):
        D = CSRMatrix.identity(50)
        D.val[:] = 3.0
        got = repro.multiply(D, D, algorithm=algorithm).matrix
        np.testing.assert_allclose(np.diag(got.to_dense()), 9.0)

    @pytest.mark.parametrize("algorithm", ALGS)
    def test_matrix_with_empty_rows_and_cols(self, algorithm, rng):
        dense = np.zeros((30, 30))
        dense[::3, 1::4] = rng.random((10, 8))
        A = CSRMatrix.from_dense(dense)
        got = repro.multiply(A, A, algorithm=algorithm).matrix
        np.testing.assert_allclose(got.to_dense(), dense @ dense,
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("algorithm", ALGS)
    def test_one_dense_row(self, algorithm):
        """The webbase pathology in miniature: one full row."""
        n = 64
        dense = np.eye(n)
        dense[7, :] = 1.0
        A = CSRMatrix.from_dense(dense)
        got = repro.multiply(A, A, algorithm=algorithm).matrix
        np.testing.assert_allclose(got.to_dense(), dense @ dense)

    @pytest.mark.parametrize("shapes", [((0, 0), (0, 0)), ((0, 5), (5, 3))])
    @pytest.mark.parametrize("options", list(COMPOSITIONS.values()),
                             ids=lambda o: ",".join(f"{k}={v}" for k, v
                                                    in o.items()) or "default")
    def test_zero_row_operands(self, shapes, options):
        """A zero-row grid still launches: every composition returns the
        empty product with a finite modeled time."""
        A, B = (CSRMatrix.empty(s) for s in shapes)
        res = repro.multiply(A, B, **options)
        assert res.matrix.shape == (shapes[0][0], shapes[1][1])
        assert res.matrix.nnz == 0
        assert np.isfinite(res.report.total_seconds)

    @pytest.mark.parametrize("shapes", [((0, 0), (0, 0)), ((0, 5), (5, 3))])
    @pytest.mark.parametrize("algorithm", sorted(RUNS))
    def test_zero_row_operands_every_algorithm(self, shapes, algorithm):
        """Every registered algorithm, the CPU ones and the ungrouped
        baselines included, and every composition launches an idle block
        for a zero-row grid and returns the empty product."""
        A, B = (CSRMatrix.empty(s) for s in shapes)
        res = repro.multiply(A, B, **RUNS[algorithm])
        assert res.matrix.shape == (shapes[0][0], shapes[1][1])
        assert res.matrix.nnz == 0
        assert np.isfinite(res.report.total_seconds)

    def test_mtx_round_trip_through_spgemm(self, tmp_path, rng):
        from repro.sparse.io import read_matrix_market, write_matrix_market

        A = generators.banded(100, 8, rng=rng)
        write_matrix_market(tmp_path / "a.mtx", A)
        back = read_matrix_market(tmp_path / "a.mtx")
        got = repro.multiply(back, back).matrix
        assert got.allclose(spgemm_reference(A, A), rtol=1e-10)


class TestReportsAreComparable:
    """The quantities the benchmark harness relies on."""

    def test_same_products_across_algorithms(self, rng):
        A = generators.power_law(500, 4.0, 60, rng=rng)
        products = {a: repro.multiply(A, A, algorithm=a).report.n_products
                    for a in ALGS}
        assert len(set(products.values())) == 1

    def test_gflops_ordering_is_time_ordering(self, rng):
        A = generators.banded(500, 14, rng=rng)
        reports = [repro.multiply(A, A, algorithm=a).report for a in ALGS]
        by_time = sorted(reports, key=lambda r: r.total_seconds)
        by_gflops = sorted(reports, key=lambda r: -r.gflops)
        assert [r.algorithm for r in by_time] == \
            [r.algorithm for r in by_gflops]
