"""The autotuner's whole-grid scorer and its validation step.

``score_candidates`` costs each distinct group kernel once per search;
these tests pin that it stays bit-identical to planning every candidate
alone (a test-local copy of the per-candidate path is the oracle), that
it really does cost each kernel only once, that it leaves no garbage
cycles behind, and that ``CSRMatrix.allclose`` skips canonicalizing
operands that are already canonical.
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.tune.tuner as tuner
from repro.bench.datasets import DATASETS, WORKLOADS
from repro.core.grouping import group_rows
from repro.core.numeric import plan_numeric
from repro.core.params import build_group_table
from repro.core.symbolic import plan_symbolic
from repro.errors import AlgorithmError, DeviceConfigError
from repro.estimate import (DEFAULT_MARGIN, DEFAULT_SAMPLES,
                            estimate_sample_kernel)
from repro.gpu.cost import kernel_duration_alone
from repro.gpu.device import DEVICE_PRESETS, P100
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.tune import (MatrixSketch, candidate_space, modeled_total,
                        score_candidates, sketch_matrix)
from repro.types import Precision

INF = float("inf")


# -- the oracle: every candidate planned alone --------------------------------


def _makespan(kernels, device, p) -> float:
    per_stream: dict[int, float] = {}
    for k in kernels:
        per_stream[k.stream] = (per_stream.get(k.stream, 0.0)
                                + kernel_duration_alone(k, device, p))
    return max(per_stream.values(), default=0.0)


def oracle_score(sketch, device, precision, ov) -> float:
    """One candidate: group the reconstructed rows, plan both phases with
    the production planners, cost every kernel."""
    p = Precision.parse(precision)
    try:
        table = build_group_table(device, overrides=ov)
    except DeviceConfigError:
        return INF
    nnz_a, nprod, nnz_out = sketch.reconstruct()
    A = SimpleNamespace(row_nnz=lambda: nnz_a)
    try:
        if ov.symbolic == "estimate":
            bounds = np.minimum(
                np.ceil((1.0 + DEFAULT_MARGIN) * nnz_out).astype(np.int64),
                nprod.astype(np.int64))
            num = plan_numeric(A, group_rows(bounds, table, "estimate"),
                               nprod, nnz_out, p, device)
            return (kernel_duration_alone(
                        estimate_sample_kernel(nnz_a, DEFAULT_SAMPLES),
                        device, p)
                    + _makespan(num.kernels, device, p))
        sym = plan_symbolic(A, group_rows(nprod, table, "products"),
                            nprod, nnz_out, device)
        num = plan_numeric(A, group_rows(nnz_out, table, "nnz"),
                           nprod, nnz_out, p, device)
        total = (_makespan(sym.kernels, device, p)
                 + _makespan(num.kernels, device, p))
        if sym.retry_kernel is not None:
            total += kernel_duration_alone(sym.retry_kernel, device, p)
        return total
    except (AlgorithmError, DeviceConfigError):
        return INF


def _bits(scores) -> list[bytes]:
    """Exact float identity (``inf`` included) as comparable bytes."""
    return [np.float64(s).tobytes() for s in scores]


# -- sketches -----------------------------------------------------------------


def make_sketch(rows_and_means) -> MatrixSketch:
    """A sketch from ``{bucket: (rows, nnz_a, products, nnz_out)}`` with
    per-row means (bucket ``k`` holds products of bit length ``k``)."""
    k_max = max(rows_and_means)
    buckets = np.zeros((k_max + 1, 4), dtype=np.int64)
    for k, (rows, a, prod, out) in rows_and_means.items():
        buckets[k] = (rows, rows * a, rows * prod, rows * out)
    n = int(buckets[:, 0].sum())
    return MatrixSketch(shape=(n, n), nnz_a=int(buckets[:, 1].sum()),
                        nnz_b=int(buckets[:, 1].sum()), buckets=buckets)


#: one non-empty bucket, every row a PWARP row
SINGLE_BUCKET = make_sketch({5: (30, 4, 20, 12)})
#: non-empty buckets separated by empty ones
GAPPED = make_sketch({0: (3, 1, 0, 0), 3: (9, 2, 6, 5), 9: (4, 16, 300, 200),
                      12: (2, 40, 3000, 2500)})
#: Group-0 rows whose output overflows every try table: a retry kernel
RETRY = make_sketch({2: (20, 2, 3, 3), 17: (3, 300, 90000, 60000)})
#: wide PWARP rows: the narrow-width / wide-boundary candidates overflow
#: shared memory and score inf
INFEASIBLE = make_sketch({4: (50, 3, 12, 10), 6: (40, 6, 40, 30),
                          11: (5, 30, 1500, 900)})


@st.composite
def sketches(draw):
    """Random bucket tables: any bucket may be empty; rows' product sums
    stay within their bucket's bit length, output nnz within products."""
    n_buckets = draw(st.integers(1, 18))
    buckets = np.zeros((n_buckets, 4), dtype=np.int64)
    for k in range(n_buckets):
        rows = draw(st.integers(0, 12) if k < 14 else st.integers(0, 3))
        if rows == 0:
            continue
        if k == 0:
            buckets[k] = (rows, draw(st.integers(0, 3 * rows)), 0, 0)
            continue
        lo, hi = 1 << (k - 1), (1 << k) - 1
        prod = draw(st.integers(lo * rows, hi * rows))
        out = draw(st.integers(rows, prod))
        nnz_a = draw(st.integers(rows, min(prod, 64 * rows)))
        buckets[k] = (rows, nnz_a, prod, out)
    n = max(1, int(buckets[:, 0].sum()))
    return MatrixSketch(shape=(n, n), nnz_a=int(buckets[:, 1].sum()),
                        nnz_b=int(buckets[:, 1].sum()), buckets=buckets)


GPU_CASES = [(name, prec) for name in DEVICE_PRESETS
             for prec in ("single", "double")]


class TestScoreCandidatesEquivalence:
    @pytest.mark.parametrize("device,precision", GPU_CASES)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(sketch=sketches())
    @example(sketch=SINGLE_BUCKET)
    @example(sketch=GAPPED)
    @example(sketch=RETRY)
    @example(sketch=INFEASIBLE)
    def test_matches_per_candidate_planning(self, device, precision, sketch):
        dev = DEVICE_PRESETS[device]
        cands = candidate_space(dev)
        got = score_candidates(sketch, dev, precision, cands)
        want = [oracle_score(sketch, dev, precision, ov) for ov in cands]
        assert _bits(got) == _bits(want)
        assert _bits(modeled_total(sketch, dev, precision, ov)
                     for ov in cands) == _bits(got)

    def test_fixture_sketches_cover_the_edge_cases(self):
        cands = candidate_space(P100)
        nnz_a, nprod, nnz_out = RETRY.reconstruct()
        table = build_group_table(P100)
        sym = plan_symbolic(SimpleNamespace(row_nnz=lambda: nnz_a),
                            group_rows(nprod, table, "products"),
                            nprod, nnz_out, P100)
        assert sym.retry_kernel is not None
        scores = score_candidates(INFEASIBLE, P100, "double", cands)
        assert INF in scores and any(s < INF for s in scores)
        assert np.count_nonzero(SINGLE_BUCKET.buckets[:, 0]) == 1
        assert 0 in GAPPED.buckets[1:-1, 0]

    def test_empty_grid_and_zero_row_sketch(self):
        assert score_candidates(SINGLE_BUCKET, P100, "double", []) == []
        empty = MatrixSketch(shape=(0, 0), nnz_a=0, nnz_b=0,
                             buckets=np.zeros((1, 4), dtype=np.int64))
        cands = candidate_space(P100)
        got = score_candidates(empty, P100, "double", cands)
        assert all(np.isfinite(got))
        assert _bits(got) == _bits(oracle_score(empty, P100, "double", ov)
                                   for ov in cands)

    @pytest.mark.corpus
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("name", [
        "Protein", "FEM/Cantilever", "Economics", "Circuit", "Epidemiology",
        "webbase", "nm-2:4", "gnn-adj-feat"])
    def test_cold_matrices_p100_grid(self, name, precision):
        if name in DATASETS:
            A = B = DATASETS[name].build_fn()
        else:
            A, B = WORKLOADS[name].build_fn()
        sketch = sketch_matrix(A, B)
        cands = candidate_space(P100)
        assert (_bits(score_candidates(sketch, P100, precision, cands))
                == _bits(oracle_score(sketch, P100, precision, ov)
                         for ov in cands))


# -- regression fences for the mechanism --------------------------------------


def _distinct_kernels(sketch, device, cands) -> int:
    """Distinct (phase, group params, row set) kernels over the grid,
    derived from the production grouping -- Group 0's counting kernels
    also depend on the try-table size."""
    nnz_a, nprod, nnz_out = sketch.reconstruct()
    bounds = np.minimum(
        np.ceil((1.0 + DEFAULT_MARGIN) * nnz_out).astype(np.int64), nprod)
    keys = set()
    for ov in cands:
        try:
            table = build_group_table(device, overrides=ov)
        except DeviceConfigError:
            continue
        phases = ([("calc", bounds, "estimate")] if ov.symbolic == "estimate"
                  else [("count", nprod, "products"), ("calc", nnz_out, "nnz")])
        for phase, counts, metric in phases:
            for params, rows in group_rows(counts, table, metric).nonempty():
                try_table = (table.max_shared_table_symbolic
                             if phase == "count" and params.uses_global_table
                             else None)
                keys.add((phase, params, rows.tobytes(), try_table))
    return len(keys)


def test_each_kernel_costed_once_per_search(monkeypatch):
    A = DATASETS["Epidemiology"].build_fn()
    sketch = sketch_matrix(A, A)
    cands = candidate_space(P100)
    calls = []

    def counting(kernel, device, precision):
        calls.append(kernel.name)
        return kernel_duration_alone(kernel, device, precision)

    monkeypatch.setattr(tuner, "kernel_duration_alone", counting)
    score_candidates(sketch, P100, "double", cands)
    distinct = _distinct_kernels(sketch, P100, cands)
    assert distinct == 63
    # plus the estimator's sample kernel, built once per search
    assert len(calls) <= distinct + 1
    assert calls.count("estimate_sample") == 1


def test_scoring_leaves_no_garbage_cycles():
    cands = candidate_space(P100)
    score_candidates(INFEASIBLE, P100, "double", cands)     # warm imports
    gc.collect()
    gc.disable()
    try:
        scores = score_candidates(INFEASIBLE, P100, "double", cands)
        assert INF in scores
        # a cached exception would hold traceback -> frame -> memo
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- validation without re-sorting --------------------------------------------


class TestAllcloseCanonicalization:
    @staticmethod
    def _counting(monkeypatch):
        calls = []
        original = CSRMatrix.canonicalize

        def canonicalize(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(CSRMatrix, "canonicalize", canonicalize)
        return calls

    def test_canonical_operands_are_not_resorted(self, monkeypatch):
        A, B = (COOMatrix(np.array([0, 0, 2]), np.array([1, 3, 0]),
                          np.array([1.0, 2.0, 3.0]), (3, 4)).to_csr()
                for _ in range(2))
        calls = self._counting(monkeypatch)
        assert A.allclose(B)
        B.val[0] = 1.5
        assert not A.allclose(B)
        assert calls == []

    def test_unsorted_and_duplicate_operands_still_compare(self, monkeypatch):
        canonical = CSRMatrix(np.array([0, 2, 2, 3]), np.array([1, 3, 0]),
                              np.array([1.0, 2.0, 3.0]), (3, 4))
        unsorted = CSRMatrix(np.array([0, 2, 2, 3]), np.array([3, 1, 0]),
                             np.array([2.0, 1.0, 3.0]), (3, 4), check=False)
        duplicate = CSRMatrix(np.array([0, 3, 3, 4]), np.array([1, 3, 3, 0]),
                              np.array([1.0, 0.5, 1.5, 3.0]), (3, 4),
                              check=False)
        wrong = CSRMatrix(np.array([0, 2, 2, 3]), np.array([3, 1, 0]),
                          np.array([2.5, 1.0, 3.0]), (3, 4), check=False)
        calls = self._counting(monkeypatch)
        assert canonical.allclose(unsorted) and unsorted.allclose(canonical)
        assert canonical.allclose(duplicate)
        assert not canonical.allclose(wrong)
        assert calls and all(c is not canonical for c in calls)
