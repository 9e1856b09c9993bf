"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.registry import ALGORITHMS
from repro.gpu.device import P100
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix

#: Every wrapper composition, spelled with :class:`repro.SpGEMMOptions`
#: fields and keyed by a short name: the engine, the estimated symbolic
#: phase, the tuner, the tiled algorithm, a uniform and a heterogeneous
#: device pool and the resilience ladder.  Each must match plain
#: ``proposal`` bit for bit.
COMPOSITIONS = {
    "proposal": {},
    "engine": {"engine": True},
    "estimate": {"symbolic": "estimate"},
    "tune": {"tune": True},
    "tile": {"algorithm": "tile"},
    "dist": {"devices": 2},
    "resilient": {"resilient": True},
    "dist-mixed": {"devices": ("P100", "K40")},
}

#: Every registry algorithm plus every composition: the inputs of the
#: suites that must hold for everything a caller can run.
RUNS = {**{name: {"algorithm": name} for name in ALGORITHMS},
        **COMPOSITIONS}


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.txt from the current runs instead of "
             "comparing against them")


@pytest.fixture
def update_goldens(request) -> bool:
    """True when the run should rewrite the golden trace summaries."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def rng():
    """Deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_random(rng) -> CSRMatrix:
    """A 60x60 random matrix, ~8 nnz/row."""
    return generators.random_csr(60, 60, 8, rng=rng)


@pytest.fixture
def small_banded(rng) -> CSRMatrix:
    """A 200x200 banded FEM-like matrix."""
    return generators.banded(200, 12, rng=rng)


@pytest.fixture
def tiny() -> CSRMatrix:
    """A fixed 4x4 matrix with a known square."""
    dense = np.array([
        [2.0, 0.0, 1.0, 0.0],
        [0.0, 3.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 4.0],
        [0.0, 5.0, 0.0, 1.0],
    ])
    return CSRMatrix.from_dense(dense)


@pytest.fixture
def device():
    """The paper's evaluation device."""
    return P100


def to_scipy(m: CSRMatrix):
    """Convert to scipy.sparse for oracle comparisons."""
    import scipy.sparse as sp

    return sp.csr_matrix((m.val, m.col, m.rpt), shape=m.shape)


def from_scipy(s) -> CSRMatrix:
    """Convert a scipy sparse matrix to our CSR."""
    s = s.tocsr()
    s.sort_indices()
    return CSRMatrix(s.indptr.astype(np.int64), s.indices.astype(np.int64),
                     s.data, s.shape)


def assert_matches_scipy(ours: CSRMatrix, theirs, rtol=1e-5, atol=1e-8):
    """Structural + value equality against a scipy product."""
    theirs = theirs.tocsr()
    theirs.sort_indices()
    ours = ours.canonicalize()
    np.testing.assert_array_equal(ours.rpt, theirs.indptr)
    np.testing.assert_array_equal(ours.col, theirs.indices)
    np.testing.assert_allclose(ours.val, theirs.data, rtol=rtol, atol=atol)
