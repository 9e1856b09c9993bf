"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.grouping import group_rows
from repro.core.hashtable import HashTable, simulate_insertions
from repro.core.params import build_group_table
from repro.core.resilient import ResilientSpGEMM
from repro.gpu.device import P100
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.gpu.scheduler import simulate_phase
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference
from repro.types import INDEX_DTYPE, next_pow2

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def coo_matrices(draw, max_dim=24, max_nnz=80):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(hnp.arrays(np.int64, nnz,
                           elements=st.integers(0, n_rows - 1)))
    cols = draw(hnp.arrays(np.int64, nnz,
                           elements=st.integers(0, n_cols - 1)))
    vals = draw(hnp.arrays(np.float64, nnz,
                           elements=st.floats(-8, 8, allow_nan=False,
                                              width=32)))
    return COOMatrix(rows, cols, vals, (n_rows, n_cols))


@st.composite
def csr_matrices(draw, max_dim=24, max_nnz=80):
    return draw(coo_matrices(max_dim, max_nnz)).to_csr()


@st.composite
def square_csr(draw, max_dim=20, max_nnz=60):
    n = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    cols = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    vals = draw(hnp.arrays(np.float64, nnz,
                           elements=st.floats(0.125, 4, allow_nan=False,
                                              width=32)))
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


class TestCSRProperties:
    @SETTINGS
    @given(coo_matrices())
    def test_coo_to_csr_preserves_dense(self, coo):
        dense = np.zeros(coo.shape)
        np.add.at(dense, (coo.row, coo.col), coo.val)
        np.testing.assert_allclose(coo.to_csr().to_dense(), dense, atol=1e-12)

    @SETTINGS
    @given(csr_matrices())
    def test_csr_coo_round_trip(self, m):
        assert m.to_coo().to_csr().allclose(m, rtol=1e-12)

    @SETTINGS
    @given(csr_matrices())
    def test_to_csr_always_canonical(self, m):
        assert m.is_canonical()

    @SETTINGS
    @given(csr_matrices())
    def test_transpose_involution(self, m):
        assert m.transpose().transpose().allclose(m, rtol=1e-12)

    @SETTINGS
    @given(csr_matrices())
    def test_matvec_linear(self, m):
        rng = np.random.default_rng(0)
        x = rng.random(m.n_cols)
        y = rng.random(m.n_cols)
        lhs = m.matvec(2.0 * x + y)
        rhs = 2.0 * m.matvec(x) + m.matvec(y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestSpGEMMProperties:
    @SETTINGS
    @given(square_csr())
    def test_reference_matches_scipy(self, A):
        import scipy.sparse as sp

        ours = spgemm_reference(A, A)
        theirs = (sp.csr_matrix((A.val, A.col, A.rpt), shape=A.shape) ** 2)
        theirs.sort_indices()
        np.testing.assert_allclose(ours.to_dense(), theirs.toarray(),
                                   rtol=1e-9, atol=1e-9)

    @SETTINGS
    @given(square_csr(max_dim=14, max_nnz=40))
    def test_hash_algorithm_equals_reference(self, A):
        from repro.core.spgemm import HashSpGEMM

        ref = spgemm_reference(A, A)
        got = HashSpGEMM().multiply(A, A).matrix
        assert got.allclose(ref, rtol=1e-9)

    @SETTINGS
    @given(square_csr(max_dim=12, max_nnz=30))
    def test_identity_neutral(self, A):
        eye = CSRMatrix.identity(A.n_rows)
        assert spgemm_reference(A, eye).allclose(A, rtol=1e-12)

    @SETTINGS
    @given(square_csr(max_dim=10, max_nnz=25))
    def test_distributes_over_scaling(self, A):
        scaled = CSRMatrix(A.rpt, A.col, A.val * 3.0, A.shape, check=False)
        lhs = spgemm_reference(scaled, A)
        rhs = spgemm_reference(A, A)
        np.testing.assert_allclose(lhs.to_dense(), 3.0 * rhs.to_dense(),
                                   rtol=1e-9)


class TestHashTableProperties:
    @SETTINGS
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
           st.integers(7, 9))
    def test_distinct_count_is_exact(self, keys, log_size):
        size = 1 << log_size
        distinct, _ = simulate_insertions(np.array(keys), size)
        assert distinct == len(set(keys))

    @SETTINGS
    @given(st.sets(st.integers(0, 10_000), min_size=1, max_size=50),
           st.permutations(range(5)))
    def test_occupied_slots_order_invariant(self, keys, _perm):
        keys = sorted(keys)
        rng = np.random.default_rng(sum(keys) % 2 ** 31)
        t1, t2 = HashTable(128), HashTable(128)
        for k in keys:
            t1.insert(k)
        for k in rng.permutation(keys):
            t2.insert(int(k))
        np.testing.assert_array_equal(t1.occupied_slots(), t2.occupied_slots())

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 500),
                              st.floats(-4, 4, allow_nan=False, width=32)),
                    min_size=1, max_size=60))
    def test_value_accumulation_matches_dict(self, pairs):
        t = HashTable(1024, with_values=True)
        expected: dict[int, float] = {}
        for k, v in pairs:
            t.insert(k, v)
            expected[k] = expected.get(k, 0.0) + v
        keys, vals = t.extract_sorted()
        assert keys.tolist() == sorted(expected)
        np.testing.assert_allclose(vals, [expected[k] for k in sorted(expected)],
                                   rtol=1e-9, atol=1e-9)

    @SETTINGS
    @given(st.integers(0, 1 << 30))
    def test_next_pow2_props(self, n):
        p = next_pow2(n)
        assert p & (p - 1) == 0
        assert p >= max(1, n)


class TestGroupingProperties:
    @SETTINGS
    @given(hnp.arrays(np.int64, st.integers(0, 300),
                      elements=st.integers(0, 100_000)))
    def test_partition(self, counts):
        table = build_group_table(P100)
        a = group_rows(counts, table, "nnz")
        seen = np.sort(np.concatenate(a.rows_by_group)) \
            if a.n_rows else np.empty(0)
        np.testing.assert_array_equal(seen, np.arange(counts.shape[0]))

    @SETTINGS
    @given(hnp.arrays(np.int64, st.integers(1, 200),
                      elements=st.integers(0, 50_000)))
    def test_group_ranges_respected(self, counts):
        table = build_group_table(P100)
        a = group_rows(counts, table, "products")
        for gid, rows in enumerate(a.rows_by_group):
            if not rows.shape[0]:
                continue
            g = table[gid]
            assert np.all(counts[rows] >= g.min_products)
            if g.max_products is not None:
                assert np.all(counts[rows] <= g.max_products)


class TestSchedulerProperties:
    @SETTINGS
    @given(st.lists(st.tuples(st.integers(1, 40),       # blocks
                              st.integers(0, 3),        # stream
                              st.sampled_from([64, 128, 256])),
                    min_size=1, max_size=6))
    def test_conservation_and_bounds(self, specs):
        kernels = []
        rng = np.random.default_rng(len(specs))
        for n_blocks, stream, threads in specs:
            kernels.append(KernelLaunch(
                name=f"k{len(kernels)}", block_threads=threads,
                shared_bytes_per_block=0,
                works=BlockWorks(n_blocks=n_blocks,
                                 flops=rng.random(n_blocks) * 1e5),
                stream=stream))
        sched = simulate_phase(kernels, P100, "single")
        assert len(sched.records) == len(kernels)
        # all kernels completed, end after start
        for rec, k in zip(sched.records, kernels):
            assert rec.n_blocks == k.n_blocks
            assert rec.end >= rec.start
        # stream ordering holds
        by_stream: dict[int, float] = {}
        for rec in sched.records:
            if rec.stream in by_stream:
                assert rec.start >= by_stream[rec.stream] - 1e-12
            by_stream[rec.stream] = rec.end
        # makespan at least the longest single block
        longest = max(float(np.max(
            __import__("repro.gpu.cost", fromlist=["block_durations"])
            .block_durations(k, P100, "single"))) for k in kernels)
        assert sched.duration >= longest


class TestResilienceLadderProperties:
    """The degradation ladder terminates and never raises its budget."""

    @staticmethod
    def _algo(initial_panels, max_panels, factor):
        return ResilientSpGEMM(initial_panels=initial_panels,
                               max_panels=max_panels,
                               retry_budget_factor=factor)

    @SETTINGS
    @given(st.integers(1, 1 << 40),                  # budget (bytes)
           st.integers(0, 1_000_000),                # n_rows
           st.integers(2, 64),                       # initial_panels
           st.integers(2, 4096),                     # max_panels
           st.floats(0.05, 1.0, allow_nan=False))    # retry_budget_factor
    def test_ladder_terminates_within_documented_bound(
            self, budget, n_rows, initial_panels, max_panels, factor):
        import math

        algo = self._algo(initial_panels, max_panels, factor)
        rungs = list(algo.ladder_rungs(budget, n_rows))
        ratio = max(algo.max_panels / algo.initial_panels, 1.0)
        bound = 2 + math.ceil(math.log2(ratio)) + 1
        assert 2 <= len(rungs) <= bound

    @SETTINGS
    @given(st.integers(1, 1 << 40), st.integers(0, 1_000_000),
           st.integers(2, 64), st.integers(2, 4096),
           st.floats(0.05, 1.0, allow_nan=False))
    def test_ladder_budgets_never_increase(self, budget, n_rows,
                                           initial_panels, max_panels, factor):
        algo = self._algo(initial_panels, max_panels, factor)
        rungs = list(algo.ladder_rungs(budget, n_rows))
        strategies = [s for s, _, _ in rungs]
        assert strategies[:2] == ["plain", "retry"]
        assert set(strategies[2:]) <= {"panels"}
        # every rung's budget is positive and bounded by the plain rung's
        assert all(b >= 1 for _, b, _ in rungs)
        assert all(b <= rungs[0][1] for _, b, _ in rungs)

    @SETTINGS
    @given(st.integers(1, 1 << 40), st.integers(0, 1_000_000),
           st.integers(2, 64), st.integers(2, 4096),
           st.floats(0.05, 1.0, allow_nan=False))
    def test_panel_counts_double_and_stay_bounded(
            self, budget, n_rows, initial_panels, max_panels, factor):
        algo = self._algo(initial_panels, max_panels, factor)
        panels = [k for s, _, k in algo.ladder_rungs(budget, n_rows)
                  if s == "panels"]
        cap = min(algo.max_panels, max(2, n_rows))
        assert all(2 <= k <= cap for k in panels)
        assert all(b == 2 * a for a, b in zip(panels, panels[1:]))
        # the ladder only stops chunking once doubling would burst the cap
        if panels:
            assert panels[-1] * 2 > cap

    def test_real_run_attempt_budgets_non_increasing(self):
        # a transient alloc fault forces plain -> retry; the retry rung's
        # AttemptRecord budget must not exceed the plain rung's
        import repro
        from repro.gpu.faults import FaultPlan
        from repro.sparse import generators

        A = generators.rmat(7, 4, rng=3)
        r = repro.multiply(A, A, resilient=True,
                           faults=FaultPlan().fail_alloc(index=3))
        rep = r.resilience
        assert rep is not None and rep.recovered
        per_algo: dict[str, list[int]] = {}
        for a in rep.attempts:
            per_algo.setdefault(a.algorithm, []).append(a.budget_bytes)
        for budgets in per_algo.values():
            assert all(b <= a for a, b in zip(budgets, budgets[1:]))
        assert len(rep.attempts) <= 2 + 256 + 1   # far under, but bounded
