"""The benchmark's three workloads, driven through the public API.

Every workload takes the run's seed.  The seed drives the op order, the
fresh value draws, the serve job stream and the generated (non-Table II)
patterns; the Table II analogue and structured-workload *structures*
stay fixed by ``dataset_rng``, so host numbers stay comparable to the
paper suite.  Values are drawn from [0.5, 1.5): all-positive operands
cannot cancel to an exact zero, so the structure check against scipy
needs no tolerance.

A measured op is timed alone: cache clearing, value draws and the scipy
reference check all run outside the timed interval.
"""

from __future__ import annotations

import concurrent.futures as cf
import importlib
import pkgutil
from collections import OrderedDict, deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np
import scipy.sparse as sp

import repro
from repro import perf
from repro.bench.datasets import DATASETS, WORKLOADS as STRUCTURED
from repro.errors import ReproError
from repro.options import SpGEMMOptions, runner_for
from repro.serve import SpGEMMServer
from repro.sparse import generators as G
from repro.sparse.csr import CSRMatrix

#: Samples beyond p90 need >= 100 ops; whole cycles run until both this
#: and the requested seconds are reached.
MIN_OPS = 100

#: ``Record.error`` of an op whose result disagrees with scipy's.
MISMATCH = "result differs from scipy A @ B"


# -- shared pieces -------------------------------------------------------------


def import_package() -> None:
    """Import every ``repro`` submodule up front: lazy imports inside the
    layers then cost nothing in a measured op, and are paid once in
    ``setup_s``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def fresh_values(M: CSRMatrix, rng: np.random.Generator) -> CSRMatrix:
    """``M``'s structure (shared arrays) with freshly drawn values."""
    return CSRMatrix(M.rpt, M.col, rng.uniform(0.5, 1.5, M.nnz), M.shape,
                     check=False)


def _scipy(M: CSRMatrix) -> sp.csr_matrix:
    return sp.csr_matrix((M.val, M.col, M.rpt), shape=M.shape)


def reference(A: CSRMatrix, B: CSRMatrix):
    """scipy's ``A @ B`` on the same operands and its host seconds."""
    sa, sb = _scipy(A), _scipy(B)
    t0 = perf_counter()
    ref = sa @ sb
    return ref, perf_counter() - t0


def matches(C: CSRMatrix, ref: sp.csr_matrix) -> bool:
    """Structure equal after canonical ordering, values to precision."""
    if not C.is_canonical():
        C = C.canonicalize()
    ref.eliminate_zeros()
    ref.sort_indices()          # scipy leaves each row's columns unsorted
    rtol = 1e-12 if C.val.dtype == np.float64 else 1e-5
    return (C.shape == ref.shape
            and np.array_equal(C.rpt, ref.indptr)
            and np.array_equal(C.col, ref.indices)
            and bool(np.allclose(C.val, ref.data, rtol=rtol, atol=0.0)))


@dataclass
class Record:
    """One attempted op: what a caller saw, plus its exact counts."""

    key: str                    #: exact-count key (same key => same counts)
    host_s: float               #: host seconds (serve: submit -> finish)
    scipy_s: float = float("nan")
    ok: bool = False            #: produced a result equal to scipy's
    error: str = ""             #: exception or mismatch, '' when ok
    exact: tuple | None = None  #: (products, nnz_out, modeled_s, events)


def exact_counts(result) -> tuple:
    r = result.report
    return (int(r.n_products), int(r.nnz_out), float(r.total_seconds),
            len(r.events))


def verify(rec: Record, A: CSRMatrix, B: CSRMatrix, result,
           ref=None) -> None:
    """Fill ``rec`` from scipy's product (outside any timed interval)."""
    if ref is None:
        ref, rec.scipy_s = reference(A, B)
    if result is None:
        return
    rec.exact = exact_counts(result)
    if matches(result.matrix, ref):
        rec.ok = True
    else:
        rec.error = MISMATCH


@dataclass
class Op:
    """One synchronous op: ``call`` is the only timed statement."""

    key: str
    A: CSRMatrix
    B: CSRMatrix
    call: Callable[[CSRMatrix, CSRMatrix], object]
    cold: bool = False          #: clear the process caches first


# -- cold ------------------------------------------------------------------------

COLD_MATRICES = ("Protein", "FEM/Cantilever", "Economics", "Circuit",
                 "Epidemiology", "webbase", "nm-2:4", "gnn-adj-feat")

COLD_COMPOSITIONS = {
    "default": {},
    "estimate": {"symbolic": "estimate"},
    "tile": {"algorithm": "tile"},
    "devices4": {"devices": 4},
    "tune": {"tune": True},
}


def _operands(name: str) -> tuple[CSRMatrix, CSRMatrix]:
    """A freshly built operand pair (``A @ A`` for Table II analogues)."""
    if name in DATASETS:
        A = DATASETS[name].build_fn()
        return A, A
    return STRUCTURED[name].build_fn()


class SyncWorkload:
    """A workload whose ops run one at a time on the calling thread."""

    name = ""
    root_layers = ("op",)       #: the benchmark's own span around each op

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.busy_s = 0.0       #: op seconds of the last run

    def close(self) -> None:
        pass

    def cycles(self, rng: np.random.Generator) -> Callable[[], list[Op]]:
        """A callable returning the next whole cycle of ops."""
        raise NotImplementedError

    def after(self, op: Op, result) -> None:
        """Hook outside the timed interval of an untraced op."""

    def run(self, rng, seconds: float, min_ops: int,
            timed=None) -> list[Record]:
        """Whole cycles of ops until ``seconds`` of op time and ``min_ops``.

        ``timed(fn, A, B)`` runs each op when given (the traced run's root
        span).  Nothing but the op's call is inside the timed interval.
        """
        cycle = self.cycles(rng)
        records: list[Record] = []
        self.busy_s = 0.0
        while self.busy_s < seconds or len(records) < max(1, min_ops):
            for op in cycle():
                if op.cold:
                    perf.clear_fast_caches()
                result, error = None, ""
                t0 = perf_counter()
                try:
                    result = (timed(op.call, op.A, op.B) if timed
                              else op.call(op.A, op.B))
                except Exception as e:    # every failure counts, none retried
                    error = f"{type(e).__name__}: {e}"
                dt = perf_counter() - t0
                self.busy_s += dt
                rec = Record(op.key, dt, error=error)
                verify(rec, op.A, op.B, result)
                records.append(rec)
                if timed is None and result is not None:
                    self.after(op, result)
        return records


class Cold(SyncWorkload):
    """First multiply of each (matrix, composition) from empty caches."""

    name = "cold"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pairs: dict[str, tuple[CSRMatrix, CSRMatrix]] = {}
        self.warm_ms: dict[str, list[float]] = {}

    def setup(self) -> None:
        self.pairs = {n: _operands(n) for n in COLD_MATRICES}

    def cycles(self, rng: np.random.Generator) -> Callable[[], list[Op]]:
        keys = [(m, c) for m in COLD_MATRICES for c in COLD_COMPOSITIONS]

        def cycle() -> list[Op]:
            ops = []
            for i in rng.permutation(len(keys)):
                m, c = keys[i]
                A0, B0 = self.pairs[m]
                A = fresh_values(A0, rng)
                B = A if B0 is A0 else fresh_values(B0, rng)
                kw = COLD_COMPOSITIONS[c]
                ops.append(Op(f"{m}|{c}", A, B,
                              lambda A, B, kw=kw: repro.multiply(A, B, **kw),
                              cold=True))
            return ops
        return cycle

    def after(self, op: Op, result) -> None:
        """The warm column of the per-matrix table: the identical call
        again with every cache hot (default composition only; untraced
        runs only, so these calls never land in the per-layer spans)."""
        m, c = op.key.split("|")
        if c != "default":
            return
        t0 = perf_counter()
        repro.multiply(op.A, op.B)
        self.warm_ms.setdefault(m, []).append((perf_counter() - t0) * 1e3)



# -- iterative -----------------------------------------------------------------


class Iterative(SyncWorkload):
    """Fresh-value iterates on fixed patterns through long-lived runners."""

    name = "iterative"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.kinds: dict[str, tuple[CSRMatrix, Callable]] = {}

    def setup(self) -> None:
        """Build patterns and runners, then warm every kind once: the six
        sort recipes (Protein, its four dist panels, Economics) and the
        engine plans, so the measured phase sees steady state."""
        perf.clear_fast_caches()
        P = DATASETS["Protein"].build_fn()
        E = DATASETS["Economics"].build_fn()
        p_eng = runner_for(SpGEMMOptions(engine=True))
        p_dist = runner_for(SpGEMMOptions(devices=4, interconnect="nvlink"))
        e_eng = runner_for(SpGEMMOptions(engine=True))
        self.kinds = {
            "Protein|facade": (P, lambda A, B: repro.multiply(A, B)),
            "Protein|engine": (P, lambda A, B: p_eng.multiply(A, B)),
            "Protein|devices4-nvlink": (P, lambda A, B: p_dist.multiply(A, B)),
            "Economics|facade": (E, lambda A, B: repro.multiply(A, B)),
            "Economics|engine": (E, lambda A, B: e_eng.multiply(A, B)),
        }
        rng = np.random.default_rng([self.seed, 0])
        for M, call in self.kinds.values():
            A = fresh_values(M, rng)
            call(A, A)

    def cycles(self, rng: np.random.Generator) -> Callable[[], list[Op]]:
        names = list(self.kinds)

        def cycle() -> list[Op]:
            ops = []
            for i in rng.permutation(len(names)):
                M, call = self.kinds[names[i]]
                A = fresh_values(M, rng)
                ops.append(Op(names[i], A, A, call))
            return ops
        return cycle


# -- serve-mix -------------------------------------------------------------------

#: Generated patterns in the pool: more than the product cache (16) and
#: the recipe cache (8) hold, so the stream evicts.
POOL_SIZE = 24

#: The pool's generator specs: the two seeded-structure entries of the
#: CLI ``serve`` demo trace (``banded:1500:16``, ``powerlaw:4000:8``),
#: built as ``repro.cli`` builds them but from the run's seed.  (The
#: demo's third entry, ``stencil:4900:5``, has one fixed structure, so it
#: cannot make distinct patterns.)
POOL_SPECS = ("banded:1500:16", "powerlaw:4000:8")

#: The job mix.  No repo caller fixes these shares -- the CLI demo trace
#: has exact repeats but no fresh-value iterates -- so they are this
#: benchmark's assumptions, and every run prints the shares it measured:
#: the chance a job exactly repeats one of the last ``RECENT`` jobs, the
#: chance it iterates (fresh values) on one of the last ``HOT`` new
#: patterns; the rest take a new pattern.
REPEAT_SHARE = 0.25
ITERATE_SHARE = 0.40
RECENT = 4
HOT = 6

#: Seed of the pool whose serial replay ``golden.json`` pins, so the
#: modeled numbers of every serve composition are compared across runs
#: whatever seed a run takes.
GOLDEN_POOL_SEED = 0

SERVE_COMPOSITIONS = {
    "default": {},
    "engine": {"engine": True},
    "estimate": {"symbolic": "estimate"},
    "tile": {"algorithm": "tile"},
    "devices2": {"devices": 2},
    "resilient": {"resilient": True},
}

#: Jobs verified per closed-loop segment; the loop drains and checks
#: between segments, so stored results stay bounded.
SEGMENT_JOBS = 25


def pool_pattern(i: int, seed: int) -> CSRMatrix:
    """Pattern ``i`` of the seeded pool (:data:`POOL_SPECS` in turn)."""
    rng = np.random.default_rng([seed, 1, i])
    kind, n, nnz = POOL_SPECS[i % len(POOL_SPECS)].split(":")
    if kind == "banded":
        return G.banded(int(n), int(nnz), rng=rng)
    return G.power_law(int(n), float(nnz), max(64, int(20 * float(nnz))),
                       rng=rng)


def serve_pool(seed: int) -> list[CSRMatrix]:
    return [pool_pattern(i, seed) for i in range(POOL_SIZE)]


@dataclass
class Job:
    key: str                    #: 'pattern|composition'
    A: CSRMatrix
    options: SpGEMMOptions
    kind: str                   #: 'repeat', 'iterate' or 'new'


class JobStream:
    """Seeded job stream: exact repeats, fresh-value iterates on recent
    patterns, and new patterns taken round the pool in seeded order."""

    def __init__(self, pool: list[CSRMatrix], rng: np.random.Generator):
        self.pool = pool
        self.rng = rng
        self.options = {c: SpGEMMOptions(**kw)
                        for c, kw in SERVE_COMPOSITIONS.items()}
        self.recent: deque[Job] = deque(maxlen=RECENT)
        self.hot: deque[int] = deque(maxlen=HOT)
        self.order: list[int] = []

    def _new_pattern(self) -> int:
        if not self.order:
            self.order = list(self.rng.permutation(len(self.pool)))
        i = int(self.order.pop())
        self.hot.append(i)
        return i

    def next(self) -> Job:
        u = self.rng.random()
        if u < REPEAT_SHARE and self.recent:
            job = self.recent[int(self.rng.integers(len(self.recent)))]
            job = Job(job.key, job.A, job.options, "repeat")
        else:
            if u < REPEAT_SHARE + ITERATE_SHARE and self.hot:
                i, kind = self.hot[int(self.rng.integers(len(self.hot)))], \
                    "iterate"
            else:
                i, kind = self._new_pattern(), "new"
            comp = list(self.options)[int(self.rng.integers(len(self.options)))]
            job = Job(f"{i}|{comp}", fresh_values(self.pool[i], self.rng),
                      self.options[comp], kind)
        self.recent.append(job)
        return job


class ServeMix:
    """A closed loop of two outstanding jobs into a two-worker server."""

    name = "serve-mix"
    #: a traced run's roots: the wrapped ``submit`` on the generator
    #: thread and the worker's per-job span
    root_layers = ("serve.run", "serve.submit")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool: list[CSRMatrix] = []
        self.server: SpGEMMServer | None = None
        self.busy_s = 0.0           #: closed-loop seconds of the last run
        self.queue_wait_ms: list[float] = []   #: per dispatched job
        self.coalesced = 0          #: jobs that rode on an identical one
        self.served = 0             #: jobs the server accepted
        self.kinds: dict[str, int] = {}     #: submitted jobs per kind
        self.retained_bytes = 0     #: held by ``server.jobs`` when trimmed

    def setup(self) -> None:
        """Generate the pool, warm up, start the server.

        The warm-up serves every pool pattern once through a throwaway
        server, so the first measured seconds do not pay the process's
        one-time costs (allocator growth, first calls); the memos it
        filled are then cleared and a fresh server takes the load.
        """
        self.close()
        self.pool = serve_pool(self.seed)
        comps = list(SERVE_COMPOSITIONS)
        rng = np.random.default_rng([self.seed, 0])
        with SpGEMMServer(n_workers=2) as warm:
            handles = [warm.submit(A, A, options=SpGEMMOptions(
                **SERVE_COMPOSITIONS[comps[i % len(comps)]]))
                for i, A in enumerate(fresh_values(M, rng)
                                      for M in self.pool)]
            for h in handles:
                h.result()
        perf.clear_fast_caches()
        self.server = SpGEMMServer(n_workers=2)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(wait=True)
            self.server = None

    def run(self, rng, seconds: float, min_ops: int, timed=None):
        """Segments of the closed loop until ``seconds`` of loop time and
        ``min_ops`` jobs; returns one record per submitted job.

        ``timed`` is unused: a traced run's roots here are the wrapped
        ``submit`` and the worker's per-job span.
        """
        stream = JobStream(self.pool, rng)
        records: list[Record] = []
        self.queue_wait_ms, self.coalesced, self.served = [], 0, 0
        self.kinds, self.retained_bytes = {}, 0
        busy = 0.0
        while busy < seconds or len(records) < max(1, min_ops):
            t0 = perf_counter()
            done = self._segment(stream)
            busy += perf_counter() - t0
            # The server keeps every accepted job -- operands, result and
            # all -- in ``jobs``, and no caller in the repo trims it: a
            # 20 s run would hold gigabytes.  The benchmark trims it
            # between segments so runs stay small, and counts what the
            # list held so the retention stays visible.
            self.retained_bytes += retained_bytes(self.server.jobs)
            self.server.jobs.clear()
            refs: OrderedDict = OrderedDict()
            for job, handle, error in done:
                self.kinds[job.kind] = self.kinds.get(job.kind, 0) + 1
                rec = Record(job.key, handle.latency_s if handle else 0.0,
                             error=error)
                result = None
                if handle is not None:
                    self.served += 1
                    if handle.coalesced_with is not None:
                        self.coalesced += 1
                    else:
                        self.queue_wait_ms.append(handle.queue_wait_s * 1e3)
                    try:
                        result = handle.result(timeout=0)
                    except Exception as e:
                        rec.error = f"{type(e).__name__}: {e}"
                # exact repeats share operands: reuse scipy's product
                ident = id(job.A)
                if ident not in refs:
                    refs[ident] = reference(job.A, job.A)
                    if len(refs) > 8:
                        refs.popitem(last=False)
                ref, rec.scipy_s = refs[ident]
                verify(rec, job.A, job.A, result, ref)
                records.append(rec)
        self.busy_s = busy
        return records

    def _segment(self, stream: JobStream):
        """One closed-loop segment: keep two jobs outstanding for
        ``SEGMENT_JOBS`` submissions, then drain."""
        server = self.server
        outstanding: dict = {}
        done = []
        submitted = 0
        while submitted < SEGMENT_JOBS or outstanding:
            while submitted < SEGMENT_JOBS and len(outstanding) < 2:
                job = stream.next()
                submitted += 1
                try:
                    handle = server.submit(job.A, job.A, options=job.options)
                except ReproError as e:    # rejected: counts as failed
                    done.append((job, None, f"{type(e).__name__}: {e}"))
                    continue
                # the handle's future is the only completion signal a
                # caller can wait on without polling
                outstanding[handle._future] = (job, handle)
            if not outstanding:
                continue
            finished, _ = cf.wait(list(outstanding),
                                  return_when=cf.FIRST_COMPLETED)
            for fut in finished:
                job, handle = outstanding.pop(fut)
                done.append((job, handle, ""))
        return done

    @staticmethod
    def replay(pool: list[CSRMatrix], seed: int) -> list[Record]:
        """Every pool pattern once, serially, under the compositions in
        rotation, from empty caches and fresh runners: a deterministic
        op sequence to take modeled throughput and exact counts over."""
        perf.clear_fast_caches()
        runners: dict[str, object] = {}
        comps = list(SERVE_COMPOSITIONS)
        records = []
        rng = np.random.default_rng([seed, 2])
        for i, M in enumerate(pool):
            comp = comps[i % len(comps)]
            opts = SpGEMMOptions(**SERVE_COMPOSITIONS[comp])
            runner = runners.get(comp)
            if runner is None:
                runner = runners[comp] = runner_for(opts)
            A = fresh_values(M, rng)
            rec = Record(f"{i}|{comp}", 0.0)
            try:
                result = runner.multiply(A, A, precision=opts.precision,
                                         device=opts.device)
            except Exception as e:
                rec.error = f"{type(e).__name__}: {e}"
                result = None
            verify(rec, A, A, result)
            records.append(rec)
        return records


def retained_bytes(jobs) -> int:
    """Array bytes reachable from served jobs: operands and results
    (arrays shared between jobs count once)."""
    seen: dict[int, int] = {}
    for job in jobs:
        mats = list((job._payload or ())[:2])
        if job.done() and job.exception() is None:
            mats.append(job.result().matrix)
        for M in mats:
            for a in (M.rpt, M.col, M.val):
                seen[id(a)] = a.nbytes
    return sum(seen.values())


WORKLOAD_TYPES = {w.name: w for w in (Cold, Iterative, ServeMix)}
