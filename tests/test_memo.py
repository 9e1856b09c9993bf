"""The one bounded cache (:class:`repro.perf.Memo`) and the race it fixes.

The process-wide memos -- functional products, sort recipes, phase
schedules -- are shared by every thread that multiplies: serve workers
and ``SpGEMMEngine.batch`` alike.  Unlocked dicts evicting with
``d.pop(next(iter(d)))`` raised ``KeyError`` / ``RuntimeError:
dictionary changed size during iteration`` under that load; the stress
test below reproduces it with a tiny thread switch interval.  The unit
tests cover what the plan-cache suite in ``test_engine.py`` does not.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

import repro
from repro import perf
from repro.gpu import scheduler
from repro.sparse import generators, product

N_THREADS = 16
CALLS_PER_THREAD = 30
#: Distinct operands: enough phase schedules (several per multiply) to
#: overflow every process memo, so nearly every call evicts.
N_MATRICES = 100


def _run_threads(work, n_threads: int) -> None:
    """Run ``work(t)`` for t in range(n_threads) with a 1-us switch interval.

    Each thread pins itself to one CPU, round-robin over the usable ones,
    so a thread waiting for the GIL is always awake to force the switch
    (threads the OS stacks on one CPU barely interleave)."""
    def pinned(t: int) -> None:
        if hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {cpus[t % len(cpus)]})
        work(t)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pinned, args=(t,))
                   for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)


def test_concurrent_multiplies_match_serial(monkeypatch):
    monkeypatch.delenv("REPRO_SCALAR_CORE", raising=False)
    mats = [generators.random_csr(16, 16, 4, rng=np.random.default_rng(i))
            for i in range(N_MATRICES)]
    perf.clear_fast_caches()
    serial = [repro.multiply(M, M) for M in mats]

    errors: list[BaseException] = []
    served: list[tuple[int, object]] = []

    def work(t: int) -> None:
        for k in range(CALLS_PER_THREAD):
            i = (7 * t + k) % N_MATRICES
            try:
                served.append((i, repro.multiply(mats[i], mats[i])))
            except Exception as e:
                errors.append(e)

    _run_threads(work, N_THREADS)
    assert errors == []
    assert len(served) == N_THREADS * CALLS_PER_THREAD
    for i, r in served:
        ref = serial[i]
        assert np.array_equal(r.matrix.rpt, ref.matrix.rpt)
        assert np.array_equal(r.matrix.col, ref.matrix.col)
        assert np.array_equal(r.matrix.val, ref.matrix.val)
        assert r.report.total_seconds == ref.report.total_seconds


def test_counters_and_weight_hold_under_contention():
    """Lost updates to the LRU dict, the weight or the counters would
    break these invariants; the lock is what keeps them."""
    memo: perf.Memo[int, int] = perf.Memo(8)
    n_threads, n_ops = 8, 3000

    def work(t: int) -> None:
        for k in range(n_ops):
            key = (31 * t + k) % 24
            if memo.get(key) is None:
                memo.put(key, key)

    _run_threads(work, n_threads)
    assert memo.stats.lookups == n_threads * n_ops
    assert memo.weight == len(memo) == memo.budget
    assert memo.stats.evictions > 0


def test_get_refreshes_recency_under_entry_weights():
    memo: perf.Memo[str, int] = perf.Memo(3)
    for k in "abc":
        memo.put(k, ord(k))
    assert memo.get("a") == ord("a")          # a is now most recent
    evicted = memo.put("d", ord("d"))
    assert evicted == [("b", ord("b"))]
    assert memo.keys() == ["c", "a", "d"]
    assert memo.weight == len(memo) == 3
    assert (memo.stats.hits, memo.stats.evictions) == (1, 1)


def test_clear_fast_caches_empties_every_process_memo(monkeypatch):
    monkeypatch.delenv("REPRO_SCALAR_CORE", raising=False)
    A = generators.banded(40, 4, rng=np.random.default_rng(0))
    repro.multiply(A, A)
    process_memos = (product._cache, product._recipes, scheduler._memo)
    assert all(len(m) > 0 for m in process_memos)
    assert all(any(m is r for r in perf._memos) for m in process_memos)
    perf.clear_fast_caches()
    assert all(len(m) == 0 and m.weight == 0 for m in perf._memos)
