"""The search: score candidates analytically, measure the best, validate.

Three stages, cheap to expensive:

1. *Score* -- :func:`score_candidates` evaluates the whole
   :func:`candidate_space` grid on the sketch in one pass: the rows of
   each group are gathered from the reconstructed sketch, their kernels
   built by the production per-group builders
   (:func:`~repro.core.symbolic.symbolic_group`,
   :func:`~repro.core.numeric.numeric_group`) and costed by
   :func:`~repro.gpu.cost.kernel_duration_alone` -- concurrent streams
   modeled as the max over per-stream sums, the Group-0 retry serial --
   each distinct kernel once per search.  Infeasible candidates (a
   :class:`~repro.errors.DeviceConfigError` from the table or kernel
   builders) score infinity.
2. *Measure* -- the paper's default plus the ``top_k`` best-scoring
   candidates run a real :class:`~repro.core.spgemm.HashSpGEMM` multiply;
   the full event-scheduler figure (``report.total_seconds``) decides.
3. *Validate* -- the winner's output is checked against the reference
   oracle.  A tuned config that is not strictly faster than the default,
   or that fails validation, is discarded in favor of the default -- so
   ``tuned_seconds <= default_seconds`` always holds (the regression gate
   relies on this invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grouping import assign_gids
from repro.core.numeric import numeric_group
from repro.core.params import (GroupTable, ParamOverrides, build_group_table,
                               pow2_floor)
from repro.core.symbolic import symbolic_group
from repro.errors import AlgorithmError, DeviceConfigError
from repro.estimate import (
    DEFAULT_MARGIN,
    DEFAULT_SAMPLES,
    estimate_sample_kernel,
)
from repro.gpu.cost import kernel_duration_alone
from repro.gpu.device import DeviceSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.reference import spgemm_reference
from repro.tune.sketch import MatrixSketch, sketch_matrix  # noqa: F401  (re-exported)
from repro.tune.store import TuningStore
from repro.types import Precision

#: How many top-scoring non-default candidates get a real measurement.
DEFAULT_TOP_K = 3


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one tuning run (or one store hit)."""

    overrides: ParamOverrides
    default_seconds: float        #: measured modeled time, paper defaults
    tuned_seconds: float          #: measured modeled time, winning config
    objective_seconds: float      #: winner's analytic (sketch) score
    candidates: int               #: configs scored analytically
    measured: int                 #: configs measured with real multiplies
    validated: bool               #: winner matched the reference oracle
    digest: str                   #: sketch digest (the store key part)
    from_cache: bool = False      #: served from the tuning store

    @property
    def speedup(self) -> float:
        """Modeled default/tuned ratio (>= 1.0 by construction)."""
        if self.tuned_seconds <= 0:
            return 1.0
        return self.default_seconds / self.tuned_seconds

    def entry(self) -> dict:
        """JSON-representable store entry."""
        return {
            "overrides": self.overrides.to_dict(),
            "default_seconds": self.default_seconds,
            "tuned_seconds": self.tuned_seconds,
            "objective_seconds": self.objective_seconds,
            "candidates": self.candidates,
            "measured": self.measured,
            "validated": self.validated,
            "speedup": self.speedup,
        }

    @classmethod
    def from_entry(cls, entry: dict, digest: str,
                   decode=ParamOverrides.from_dict) -> "TuneResult":
        """Decode a store entry (tolerating missing fields).

        ``decode`` turns the stored override dict back into the owning
        backend's param type (GPU :class:`ParamOverrides` by default).
        """
        return cls(
            overrides=decode(entry.get("overrides", {})),
            default_seconds=float(entry.get("default_seconds", 0.0)),
            tuned_seconds=float(entry.get("tuned_seconds", 0.0)),
            objective_seconds=float(entry.get("objective_seconds", 0.0)),
            candidates=int(entry.get("candidates", 0)),
            measured=int(entry.get("measured", 0)),
            validated=bool(entry.get("validated", False)),
            digest=digest,
            from_cache=True,
        )


def candidate_space(device: DeviceSpec) -> list[ParamOverrides]:
    """The Table I search grid for ``device``.

    Each axis includes ``None`` = "keep the Section III-D value", so the
    all-default :class:`ParamOverrides` is always candidate 0 and every
    candidate carries only its *deviations* (keeping plan-cache keys and
    store entries minimal).  ``hash_scal`` is not searched: the cost
    model is multiplier-invariant, so no candidate could win on it.

    ``symbolic`` is the outermost axis: every table configuration is
    scored under both the exact counting pass (``None``) and the sampled
    estimator (``"estimate"``), so the tuner can trade symbolic-phase
    time against numeric-phase over-allocation per matrix sketch.
    """
    warp = device.warp_size
    t_max = pow2_floor(max(1, device.max_shared_per_block // 12))
    threads = device.max_threads_per_block

    sym_axis = [None, "estimate"]
    t_axis = [None, t_max // 2, t_max // 4]
    width_axis = [None] + [w for w in (2, 8) if 1 <= w <= warp]
    boundary_axis = [None] + [b for b in (warp // 4, warp)
                              if b >= 1 and b != warp // 2]
    threads_axis = [None] + [t for t in (threads // 2, threads // 4)
                             if t >= warp]

    out, seen = [], set()
    for sym in sym_axis:
        for t in t_axis:
            for w in width_axis:
                for b in boundary_axis:
                    for bt in threads_axis:
                        ov = ParamOverrides(t_max=t, pwarp_width=w,
                                            pwarp_nnz_max=b,
                                            max_block_threads=bt,
                                            symbolic=sym)
                        if ov.switches() not in seen:
                            seen.add(ov.switches())
                            out.append(ov)
    return out


def _stream_makespan(timed) -> float:
    """Phase makespan of ``(stream, seconds)`` kernels under concurrent
    streams: kernels on the same stream serialize, distinct streams
    overlap -- the max over per-stream sums (the analytic analogue of
    the event scheduler's stream model)."""
    per_stream: dict[int, float] = {}
    for stream, seconds in timed:
        per_stream[stream] = per_stream.get(stream, 0.0) + seconds
    return max(per_stream.values(), default=0.0)


#: Memo value of a kernel that cannot run: a plain ``(stream, seconds)``
#: pair, never the exception (its traceback would pin the search's
#: frames -- and through them the per-row arrays -- in a reference cycle).
_INFEASIBLE = (-1, float("inf"))


class _GridScorer:
    """One search's scoring state: the reconstructed sketch and a memo of
    kernel durations.  Lives for one :func:`score_candidates` call."""

    def __init__(self, sketch: MatrixSketch, device: DeviceSpec,
                 precision: Precision) -> None:
        self.device, self.precision = device, precision
        self.nnz_a, self.nprod, self.nnz_out = sketch.reconstruct()
        counts = sketch.buckets[:, 0]
        starts = np.concatenate(([0], np.cumsum(counts)))
        self.present = np.flatnonzero(counts > 0)
        first = starts[self.present]
        nprod, nnz = self.nprod[first], self.nnz_out[first]
        #: rows of bucket ``b`` are ``starts[b]:starts[b + 1]``
        self.starts: list[int] = starts.tolist()
        #: one representative count per non-empty bucket, per metric
        self.by_metric = {
            "products": nprod,
            "nnz": nnz,
            "estimate": np.minimum(
                np.ceil((1.0 + DEFAULT_MARGIN) * nnz).astype(np.int64),
                nprod.astype(np.int64)),
        }
        self.memo: dict[tuple, tuple[int, float]] = {}
        self.sample_seconds: float | None = None

    def groups(self, table: GroupTable, metric: str):
        """``(params, buckets)`` per non-empty group in table order, or
        None when some bucket falls outside every group's range.  Rows
        of a bucket are identical, so each group is a union of buckets."""
        gids = assign_gids(self.by_metric[metric], table, metric).tolist()
        if -1 in gids:
            return None
        members: dict[int, list[int]] = {}
        for b, gid in zip(self.present.tolist(), gids):
            members.setdefault(gid, []).append(b)
        return [(table[gid], tuple(members[gid])) for gid in sorted(members)]

    def rows(self, buckets: tuple[int, ...]):
        """The group's per-row ``(nnz_a, products, nnz_out)``: its
        buckets' rows, in bucket order."""
        idx = np.concatenate([np.arange(self.starts[b], self.starts[b + 1])
                              for b in buckets])
        return self.nnz_a[idx], self.nprod[idx], self.nnz_out[idx]

    def _time(self, key: tuple, kernel) -> None:
        self.memo[key] = (kernel.stream, kernel_duration_alone(
            kernel, self.device, self.precision))

    def symbolic(self, params, buckets, try_table: int):
        """``((stream, s) of the counting kernel, (stream, s) of the
        Group-0 retry or None)``."""
        # only Group 0's kernels read the try-table size
        key = (params, buckets,
               try_table if params.uses_global_table else None)
        count, retry = ("count", *key), ("retry", *key)
        if count not in self.memo:
            try:
                group = symbolic_group(params, *self.rows(buckets),
                                       try_table, self.device)
                self._time(count, group.kernel)
                if group.retry_kernel is not None:
                    self._time(retry, group.retry_kernel)
            except (AlgorithmError, DeviceConfigError):
                self.memo[count] = _INFEASIBLE
        return self.memo[count], self.memo.get(retry)

    def numeric(self, params, buckets) -> tuple[int, float]:
        key = ("calc", params, buckets)
        if key not in self.memo:
            try:
                self._time(key, numeric_group(
                    params, *self.rows(buckets), self.precision,
                    self.device).kernel)
            except (AlgorithmError, DeviceConfigError):
                self.memo[key] = _INFEASIBLE
        return self.memo[key]

    def sample(self) -> float:
        """The estimator's sample kernel: one per search."""
        if self.sample_seconds is None:
            try:
                self.sample_seconds = kernel_duration_alone(
                    estimate_sample_kernel(self.nnz_a, DEFAULT_SAMPLES),
                    self.device, self.precision)
            except DeviceConfigError:
                self.sample_seconds = float("inf")
        return self.sample_seconds

    def score(self, ov: ParamOverrides) -> float:
        try:
            table = build_group_table(self.device, overrides=ov)
        except DeviceConfigError:
            return float("inf")
        if ov.symbolic == "estimate":
            num = self.groups(table, "estimate")
            if num is None:
                return float("inf")
            return self.sample() + _stream_makespan(
                self.numeric(params, b) for params, b in num)
        sym, num = self.groups(table, "products"), self.groups(table, "nnz")
        if sym is None or num is None:
            return float("inf")
        counts, retry = [], None
        for params, b in sym:
            count, group_retry = self.symbolic(
                params, b, table.max_shared_table_symbolic)
            counts.append(count)
            if group_retry is not None:
                retry = group_retry
        total = (_stream_makespan(counts)
                 + _stream_makespan(self.numeric(params, b)
                                    for params, b in num))
        if retry is not None:
            total += retry[1]
        return total


def score_candidates(sketch: MatrixSketch, device: DeviceSpec,
                     precision: Precision | str,
                     candidates: list[ParamOverrides]) -> list[float]:
    """Analytic objective of every candidate: modeled count+calc seconds
    on the sketch, ``inf`` for infeasible configurations (so callers can
    rank without special-casing).

    Exact candidates cost the symbolic kernels (concurrent streams, the
    Group-0 retry serial after them) plus the numeric kernels.
    ``symbolic == "estimate"`` swaps the symbolic pass for the sampled
    estimator: one sample kernel, and numeric grouping driven by the
    margin-inflated bounds (clamped to the product counts, assumed
    violation-free -- recovery is a runtime event the sketch cannot
    predict).

    One call costs each distinct kernel once.  Every row of a sketch
    bucket is identical, so every group is a union of whole buckets;
    the production per-group builders
    (:func:`~repro.core.symbolic.symbolic_group`,
    :func:`~repro.core.numeric.numeric_group`) build each kernel on its
    group's gathered rows and :func:`~repro.gpu.cost.
    kernel_duration_alone` costs it, memoized per ``(phase, group
    params, buckets)`` for this call only -- so every score is
    bit-identical to planning that candidate alone.
    """
    grid = _GridScorer(sketch, device, Precision.parse(precision))
    return [grid.score(ov) for ov in candidates]


def modeled_total(sketch: MatrixSketch, device: DeviceSpec,
                  precision: Precision | str,
                  overrides: ParamOverrides) -> float:
    """Analytic objective of one candidate (see :func:`score_candidates`)."""
    return score_candidates(sketch, device, precision, [overrides])[0]


class Autotuner:
    """Searches one backend's parameter space for ``(matrix, device,
    precision)``.

    A :class:`~repro.backend.base.TuningFamily` supplies the search
    grid, the sketch builder, the sketch objective, the measurement
    algorithm and the override codec, so GPU Table I searches, CPU
    thread/block searches and the tile family's density-cutoff search
    share this one driver.  ``family=None`` selects the device backend's
    primary family (its five tuning hooks) -- bit-identical to the
    pre-family tuner.  ``store`` (a :class:`~repro.tune.store.
    TuningStore`) short-circuits repeat instances; ``None`` tunes from
    scratch every call.  Families namespace their sketch digests, so one
    store serves all of them without key collisions.
    """

    def __init__(self, device: DeviceSpec, precision: Precision | str, *,
                 store: TuningStore | None = None,
                 top_k: int = DEFAULT_TOP_K,
                 family=None) -> None:
        from repro.backend import backend_for_spec

        self.device = device
        self.backend = backend_for_spec(device)
        self.family = family or self.backend.tuning_families(device)[0]
        self.precision = Precision.parse(precision)
        self.store = store
        self.top_k = max(1, int(top_k))

    def _measure(self, A: CSRMatrix, B: CSRMatrix, ov,
                 matrix_name: str):
        """One real multiply under ``ov``; ``(seconds, result)`` or
        ``(inf, None)`` when the config cannot run at all."""
        algo = self.family.algorithm(ov)
        try:
            res = algo.multiply(A, B, precision=self.precision,
                                device=self.device, matrix_name=matrix_name)
        except (DeviceConfigError, AlgorithmError):
            return float("inf"), None
        return res.report.total_seconds, res

    def tune(self, A: CSRMatrix, B: CSRMatrix, *,
             matrix_name: str = "") -> TuneResult:
        """Full search (or store hit) for one instance."""
        sketch = self.family.sketch(A, B)
        digest = sketch.digest()
        if self.store is not None:
            entry = self.store.get(self.device.name, self.precision.value,
                                   digest)
            if entry is not None:
                return TuneResult.from_entry(entry, digest,
                                             self.family.decode_overrides)

        default_ov = self.family.default_overrides()
        candidates = self.family.candidates(self.device)
        scored = list(zip(self.family.score(sketch, self.device,
                                            self.precision, candidates),
                          candidates))
        default_score = scored[0][0]
        ranked = sorted((s for s in scored[1:] if s[0] < float("inf")),
                        key=lambda s: s[0])

        default_seconds, default_res = self._measure(A, B, default_ov,
                                                     matrix_name)
        best_ov, best_seconds, best_score, best_res = (
            default_ov, default_seconds, default_score, default_res)
        measured = 1
        for score, ov in ranked[:self.top_k]:
            seconds, res = self._measure(A, B, ov, matrix_name)
            measured += 1
            if seconds < best_seconds:
                best_ov, best_seconds, best_score, best_res = (
                    ov, seconds, score, res)

        validated = True
        if not best_ov.is_default() and best_res is not None:
            ref = spgemm_reference(A, B)
            rtol = 1e-9 if self.precision is Precision.DOUBLE else 1e-4
            validated = best_res.matrix.allclose(ref, rtol=rtol)
            if not validated:
                # never ship a config the oracle rejects
                best_ov, best_seconds, best_score = (
                    default_ov, default_seconds, default_score)

        result = TuneResult(
            overrides=best_ov,
            default_seconds=default_seconds,
            tuned_seconds=best_seconds,
            objective_seconds=best_score,
            candidates=len(candidates),
            measured=measured,
            validated=validated,
            digest=digest,
        )
        if self.store is not None:
            self.store.put(self.device.name, self.precision.value, digest,
                           result.entry())
        return result
