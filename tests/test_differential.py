"""Differential oracle: every registered algorithm vs the reference SpGEMM.

Replaces the narrower per-algorithm checks that used to live in
``test_baselines.TestCorrectness``: instead of three baselines against
scipy, *every* entry of the registry and every wrapper composition
(``tests.conftest.RUNS``) is compared against :func:`spgemm_reference`
over a corpus of structurally adversarial matrices (regular band,
Erdos-Renyi, power-law skew, empty rows, one fully dense row).  Every
composition must moreover match plain ``proposal`` bit for bit.

The full corpus sweep is marked ``corpus`` (slow); a fast subset always
runs so plain tier-1 keeps differential coverage.
"""

import numpy as np
import pytest

import repro
from repro import perf
from repro.baselines.registry import ALGORITHMS
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference
from tests.conftest import COMPOSITIONS, RUNS

ALL_ALGOS = sorted(ALGORITHMS)
ALL_RUNS = sorted(RUNS)


def _empty_rows(rng) -> CSRMatrix:
    """Random matrix with every third row empty (grouping's G1 path)."""
    dense = generators.random_csr(150, 150, 6, rng=rng).to_dense()
    dense[::3] = 0.0
    return CSRMatrix.from_dense(dense)


def _single_dense_row(rng) -> CSRMatrix:
    """Very sparse matrix with one fully dense row (load-imbalance spike
    that must land in Group 0 / the largest bin)."""
    dense = generators.random_csr(150, 150, 3, rng=rng).to_dense()
    dense[7, :] = rng.random(150) + 0.5
    return CSRMatrix.from_dense(dense)


CORPUS = {
    "band": lambda rng: generators.banded(250, 10, rng=rng),
    "erdos_renyi": lambda rng: generators.random_csr(200, 200, 6, rng=rng),
    "power_law": lambda rng: generators.power_law(250, 3.0, 60, rng=rng),
    "empty_rows": _empty_rows,
    "single_dense_row": _single_dense_row,
}

#: Always-on subset: one regular and one skewed instance.
FAST = ("band", "power_law")


def _check(algo: str, A: CSRMatrix, B: CSRMatrix | None = None,
           precision: str = "double") -> None:
    B = A if B is None else B
    ref = spgemm_reference(A, B)
    got = repro.multiply(A, B, precision=precision, **RUNS[algo]).matrix
    rtol = 1e-9 if precision == "double" else 1e-4
    assert got.canonicalize().allclose(ref, rtol=rtol), \
        f"{algo} diverges from reference on {A.shape}"


@pytest.mark.parametrize("algo", ALL_RUNS)
@pytest.mark.parametrize("gen", FAST)
def test_matches_reference_fast(algo, gen, rng):
    _check(algo, CORPUS[gen](rng))


@pytest.mark.corpus
@pytest.mark.parametrize("algo", ALL_RUNS)
@pytest.mark.parametrize("gen", sorted(set(CORPUS) - set(FAST)))
def test_matches_reference_corpus(algo, gen, rng):
    _check(algo, CORPUS[gen](rng))


@pytest.mark.parametrize("algo", ALL_RUNS)
def test_single_precision(algo, rng):
    A = CORPUS["band"](rng)
    result = repro.multiply(A, A, precision="single", **RUNS[algo])
    assert result.matrix.dtype == np.float32
    _check(algo, A, precision="single")


@pytest.mark.parametrize("algo", ALL_RUNS)
def test_rectangular(algo, rng):
    A = generators.random_csr(30, 50, 4, rng=rng)
    B = generators.random_csr(50, 25, 4, rng=rng)
    _check(algo, A, B)


# the device pool's report is named 'dist'; the other compositions'
# reports carry the inner algorithm's name
@pytest.mark.parametrize("algo", ALL_ALGOS + ["dist"])
def test_report_flops_metric(algo, rng):
    A = generators.stencil_regular(300, 4, rng=rng)
    r = repro.multiply(A, A, **RUNS[algo]).report
    assert r.algorithm == algo
    assert r.flops == 2 * r.n_products
    assert r.total_seconds > 0


def _cold(A: CSRMatrix, precision: str, options: dict) -> CSRMatrix:
    """One multiply from empty process-wide caches, so no composition
    can reuse another's memoized product."""
    perf.clear_fast_caches()
    try:
        return repro.multiply(A, A, precision=precision, **options).matrix
    finally:
        perf.clear_fast_caches()


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("gen", FAST)
@pytest.mark.parametrize("name", sorted(COMPOSITIONS))
def test_composition_bit_identical_to_proposal(name, gen, precision, rng):
    """Wrappers, estimated symbolic phases, tiles and device pools change
    modeled time and memory, never the product: ``rpt``/``col``/``val``
    are array-equal to plain ``proposal``."""
    A = CORPUS[gen](rng)
    plain = _cold(A, precision, {})
    got = _cold(A, precision, COMPOSITIONS[name])
    assert got.shape == plain.shape
    assert got.val.dtype == plain.val.dtype
    np.testing.assert_array_equal(got.rpt, plain.rpt)
    np.testing.assert_array_equal(got.col, plain.col)
    np.testing.assert_array_equal(got.val, plain.val)
