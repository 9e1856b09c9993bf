"""The scheduler and tiling kernels of :mod:`repro.sparse.native` against
their Python references.

:func:`repro.gpu.scheduler.simulate_phase` runs its event loop in the C
kernel whenever one is built and the vectorized core is on, and
:meth:`repro.tile.format.TiledCSR.from_csr` tiles in C likewise; the
Python loop (``_event_loop``) and the numpy conversion
(``_from_csr_numpy``) stay as the fallback and the oracle.  Both pairs
must agree exactly: every timestamp bit for bit, every tiled array and
dtype, every error.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import perf
from repro.backend.gpu_backend import GPUBackend
from repro.errors import SchedulerError, SparseFormatError
from repro.gpu import scheduler
from repro.gpu.device import P100
from repro.gpu.kernel import BlockWorks, KernelLaunch
from repro.sparse import generators, native
from repro.sparse.csr import CSRMatrix
from repro.tile.format import MAX_TILE, TiledCSR
from tests.test_differential import CORPUS

needs_kernel = pytest.mark.skipif(native.compiler() is None,
                                  reason="no C compiler on PATH")

#: A device with few SMs and block slots, so short phases queue blocks
#: and complete many of them at once.
SMALL = dataclasses.replace(P100, sm_count=3, max_blocks_per_sm=4)

TILED_FIELDS = ("shape", "tile", "tile_rpt", "tile_row", "tile_col",
                "tile_off", "row_mask", "col_mask", "ent_row", "ent_col",
                "val")


# -- scheduler: the event loop on raw inputs ----------------------------------

@st.composite
def _events_input(draw):
    """Inputs of the event loop: ties and zero-length blocks on purpose
    (durations from a four-value pool), block footprints bound by
    threads, shared memory or block slots, stream chains of any length
    and a non-zero start time."""
    device = draw(st.sampled_from([P100, SMALL]))
    n = draw(st.integers(1, 6))
    durations = [np.array(draw(st.lists(
        st.sampled_from([0.0, 1e-6, 2e-6, 3.5e-6]), min_size=1,
        max_size=60))) for _ in range(n)]
    threads = [device.warp_size * draw(st.sampled_from([1, 4, 8, 32]))
               for _ in range(n)]
    shared = [draw(st.sampled_from([0, 1024, 16 * 1024, 48 * 1024]))
              for _ in range(n)]
    use_streams = draw(st.booleans())
    streams = [draw(st.integers(0, 2)) if use_streams else 0
               for _ in range(n)]
    last: dict[int, int] = {}
    predecessor = []
    for i, s in enumerate(streams):
        predecessor.append(last.get(s, -1))
        last[s] = i
    start = draw(st.sampled_from([0.0, 1.0, 0.00123]))
    gap = device.kernel_launch_us * 1e-6
    issue = [start + (i + 1) * gap for i in range(n)]
    return durations, threads, shared, predecessor, issue, device


def _native_events(durations, threads, shared, predecessor, issue, device):
    rc, times = native.schedule_phase(durations, threads, shared,
                                      predecessor, issue, device,
                                      scheduler.MAX_EVENTS)
    assert rc == 0
    return times


@needs_kernel
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_events_input())
def test_event_loop_kernel_matches_python(args):
    want = scheduler._event_loop(*args)
    got = _native_events(*args)
    for g, w in zip(got, want):
        assert np.array_equal(np.array(g).view(np.int64),
                              np.array(w, dtype=np.float64).view(np.int64))


def test_event_loop_chain_of_three_waits_for_each_predecessor():
    durations = [np.full(5, 1e-6)] * 3
    args = (durations, [256] * 3, [0] * 3, [-1, 0, 1],
            [1e-6, 2e-6, 3e-6], P100)
    first, ready, finish = scheduler._event_loop(*args)
    assert ready[1] == finish[0] and ready[2] == finish[1]
    if native.kernel() is not None:
        assert _native_events(*args) == (first, ready, finish)


# -- scheduler: whole phases ---------------------------------------------------

def _launch(name, n_blocks, threads, shared, stream, rng):
    flops = rng.choice([0.0, 1e4, 1e5, 1e6], size=n_blocks)
    return KernelLaunch(name=name, block_threads=threads,
                        shared_bytes_per_block=shared,
                        works=BlockWorks(n_blocks=n_blocks, flops=flops),
                        stream=stream)


def _phase(seed):
    rng = np.random.default_rng(seed)
    return [_launch(f"k{i}", int(rng.integers(1, 400)),
                    int(rng.choice([64, 256, 1024])),
                    int(rng.choice([0, 2048, 48 * 1024])),
                    int(rng.integers(0, 3)), rng)
            for i in range(int(rng.integers(1, 6)))]


def _simulate(kernels, *, python: bool, monkeypatch, **kw):
    """Simulate live (memo cleared) through the kernel or the Python loop."""
    perf.clear_fast_caches()
    with monkeypatch.context() as m:
        if python:
            m.setattr(native, "kernel", lambda: None)
        return scheduler.simulate_phase(kernels, P100, "double", **kw)


@needs_kernel
@pytest.mark.parametrize("use_streams", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_phase_records_match_python(seed, use_streams, monkeypatch):
    kernels = _phase(seed)
    kw = dict(start_time=0.25, use_streams=use_streams)
    got = _simulate(kernels, python=False, monkeypatch=monkeypatch, **kw)
    want = _simulate(kernels, python=True, monkeypatch=monkeypatch, **kw)
    assert got == want


@needs_kernel
@pytest.mark.parametrize("algorithm", ["proposal", "tile", "cusparse"])
def test_multiply_phases_match_python(algorithm, monkeypatch):
    """Every phase a real multiply simulates, replayed through both loops."""
    calls = []
    real = scheduler.simulate_phase

    def record(kernels, device, precision, **kw):
        calls.append((kernels, device, precision, kw))
        return real(kernels, device, precision, **kw)

    A = generators.power_law(300, 6.0, 80,
                             rng=np.random.default_rng(3))
    with monkeypatch.context() as m:
        m.setattr(GPUBackend, "simulate_phase", staticmethod(record))
        perf.clear_fast_caches()
        repro.multiply(A, A, algorithm=algorithm)
    assert calls
    for kernels, device, precision, kw in calls:
        kw = {k: v for k, v in kw.items() if k != "faults"}
        perf.clear_fast_caches()
        got = real(kernels, device, precision, **kw)
        with monkeypatch.context() as m:
            m.setattr(native, "kernel", lambda: None)
            perf.clear_fast_caches()
            want = real(kernels, device, precision, **kw)
        assert got == want


def test_scalar_core_runs_the_python_loop(monkeypatch):
    monkeypatch.setenv("REPRO_SCALAR_CORE", "1")

    def boom(*a, **k):
        raise AssertionError("native scheduler called under the scalar core")

    monkeypatch.setattr(native, "schedule_phase", boom)
    sched = scheduler.simulate_phase(_phase(0), P100, "double")
    assert sched.records


# -- scheduler: the same errors on both paths ------------------------------

def _error(fn, *args):
    with pytest.raises(SchedulerError) as exc:
        fn(*args)
    return str(exc.value)


def _both_errors(args):
    want = _error(scheduler._event_loop, *args)
    if native.kernel() is not None:
        assert _error(scheduler._run_events, *args) == want
    return want


def test_event_budget_raises_the_same_error(monkeypatch):
    monkeypatch.setattr(scheduler, "MAX_EVENTS", 25)
    args = ([np.full(40, 1e-6)], [256], [0], [-1], [1e-6], P100)
    assert "event budget exceeded" in _both_errors(args)


def test_deadlock_raises_the_same_error():
    """Blocks wider than an SM never dispatch; their stream successor
    never wakes."""
    too_wide = P100.max_threads_per_sm + P100.warp_size
    args = ([np.full(3, 1e-6), np.full(2, 1e-6), np.full(2, 1e-6)],
            [too_wide, 256, 256], [0, 0, 0], [-1, 0, -1],
            [1e-6, 2e-6, 3e-6], P100)
    assert _both_errors(args) == (
        "2 kernels never completed (dispatch deadlock)")


def test_budget_error_through_simulate_phase(monkeypatch):
    monkeypatch.setattr(scheduler, "MAX_EVENTS", 10)
    kernels = _phase(1)
    msgs = set()
    for scalar in ("", "1"):
        monkeypatch.setenv("REPRO_SCALAR_CORE", scalar)
        perf.clear_fast_caches()
        msgs.add(_error(scheduler.simulate_phase, kernels, P100, "double"))
    assert msgs == {"event budget exceeded; runaway simulation"}


# -- tiling ------------------------------------------------------------------

def _assert_same_tiling(A, tile):
    got = TiledCSR.from_csr(A, tile)
    want = TiledCSR._from_csr_numpy(A, tile)
    for name in TILED_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name
        else:
            assert g == w, name
    return got


@st.composite
def _matrix(draw):
    """Empty and rectangular shapes; rows with unsorted and duplicate
    columns (drawn from a pool of three when ``dup``)."""
    m = draw(st.sampled_from([0, 1, 5, 33, 130]))
    n = draw(st.sampled_from([0, 1, 7, 64, 300]))
    dup = draw(st.booleans())
    pool = min(n, 3) if dup else n
    rows = [draw(st.lists(st.integers(0, pool - 1), max_size=9))
            if pool else [] for _ in range(m)]
    rpt = np.cumsum([0] + [len(r) for r in rows])
    col = np.array([c for r in rows for c in r], dtype=np.int64)
    vals = np.arange(col.size, dtype=np.float64) + 0.5
    return CSRMatrix(rpt, col, vals, (m, n))


@needs_kernel
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_matrix(), st.integers(2, MAX_TILE))
def test_tiling_kernel_matches_numpy(A, tile):
    _assert_same_tiling(A, tile)


@needs_kernel
@pytest.mark.parametrize("shape", [(0, 0), (0, 9), (9, 0), (40, 3)])
@pytest.mark.parametrize("tile", [2, 16, 64])
def test_tiling_kernel_empty_matrices(shape, tile):
    assert _assert_same_tiling(CSRMatrix.empty(shape), tile).nnz == 0


@needs_kernel
def test_tiling_kernel_single_precision(rng):
    A = generators.random_csr(90, 70, 6, rng=rng, precision="single")
    assert _assert_same_tiling(A, 16).val.dtype == np.float32


@needs_kernel
@pytest.mark.parametrize("rpt, col", [([0, 1, 2], [0, 9]),
                                      ([0, 2, 1], [0, 1]),
                                      ([0, 1, 3], [0, 1])])
def test_malformed_structure_takes_the_numpy_path(rpt, col, monkeypatch):
    """The kernel declines an unchecked malformed structure (an
    out-of-range column, a non-monotone ``rpt``, one that disagrees with
    nnz); the conversion then raises a typed error, on the scalar core
    too."""
    A = CSRMatrix(np.array(rpt), np.array(col), np.ones(len(col)), (2, 4),
                  check=False)
    assert native.tile_csr(A, 2, 1, 2) is None
    with pytest.raises(SparseFormatError):
        TiledCSR.from_csr(A, 2)
    monkeypatch.setenv("REPRO_SCALAR_CORE", "1")
    with pytest.raises(SparseFormatError):
        TiledCSR.from_csr(A, 2)


@needs_kernel
@pytest.mark.corpus
@pytest.mark.parametrize("tile", [2, 7, 16, 64])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_tiling_kernel_matches_numpy_corpus(name, tile, rng):
    A = CORPUS[name](rng)
    _assert_same_tiling(A, tile)
    _assert_same_tiling(A.transpose(), tile)


def test_tiling_fallback_without_kernel(monkeypatch, rng):
    A = generators.power_law(120, 4.0, 40, rng=rng)
    want = TiledCSR._from_csr_numpy(A, 8)
    monkeypatch.setattr(native, "kernel", lambda: None)
    got = TiledCSR.from_csr(A, 8)
    for name in TILED_FIELDS[2:]:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# -- concurrency -------------------------------------------------------------

def test_concurrent_calls_match_serial(monkeypatch):
    """Eight threads simulate distinct phases and tile distinct matrices
    at once (the native calls run without the interpreter lock, as serve
    workers make them); every result equals its serial run."""
    monkeypatch.delenv("REPRO_SCALAR_CORE", raising=False)
    phases = [_phase(100 + i) for i in range(8)]
    mats = [generators.power_law(150 + 10 * i, 5.0, 50,
                                 rng=np.random.default_rng(i))
            for i in range(8)]

    def run(i):
        sched = scheduler._run_events(*_event_args(phases[i]))
        tiled = TiledCSR.from_csr(mats[i], 4 + i)
        return sched, tuple(getattr(tiled, f) for f in TILED_FIELDS[2:])

    serial = [run(i) for i in range(8)]
    results: list = [None] * 8
    errors: list = []

    def worker(i):
        try:
            for _ in range(5):
                got = run(i)
                if results[i] is None:
                    results[i] = got
                elif not _same(got, results[i]):
                    errors.append(f"thread {i}: results differ across repeats")
        except Exception as e:     # reported below, with the thread index
            errors.append(f"thread {i}: {e!r}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    for got, want in zip(results, serial):
        assert _same(got, want)


def _event_args(kernels):
    from repro.gpu.cost import block_durations
    from repro.gpu.occupancy import occupancy_for

    durations = [block_durations(k, P100, "double") for k in kernels]
    threads = [occupancy_for(P100, k.block_threads,
                             k.shared_bytes_per_block).warps_per_block
               * P100.warp_size for k in kernels]
    shared = [k.shared_bytes_per_block for k in kernels]
    last: dict[int, int] = {}
    predecessor = []
    for i, k in enumerate(kernels):
        predecessor.append(last.get(k.stream, -1))
        last[k.stream] = i
    gap = P100.kernel_launch_us * 1e-6
    issue = [(i + 1) * gap for i in range(len(kernels))]
    return durations, threads, shared, predecessor, issue, P100


def _same(a, b):
    (sa, ta), (sb, tb) = a, b
    return (tuple(map(list, sa)) == tuple(map(list, sb))
            and all(np.array_equal(x, y) for x, y in zip(ta, tb)))
