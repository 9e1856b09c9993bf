"""Labelled metrics: counters, gauges and histograms over run reports.

The registry mirrors the Prometheus data model at simulation scale:
metric *families* hold samples keyed by a canonical label set, e.g.
``kernel_seconds{kernel="numeric_tb_g3", phase="calc", stream="4"}``.
:func:`metrics_from_report` derives a full registry deterministically
from a :class:`~repro.gpu.timeline.SimReport` -- the same numbers the
CLI's ``--metrics`` flag, the bench runner's metrics tables and the
E15 experiment render, and the quantities the metrics-conservation
property tests pin down:

* ``phase_seconds{phase}`` equals the sum of
  ``phase_component_seconds{phase, component}`` exactly;
* ``total_seconds`` equals the sum of ``phase_seconds`` over phases;
* ``alloc_bytes_total`` equals ``free_bytes_total`` at run exit.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.obs import events as E

if TYPE_CHECKING:   # pragma: no cover - typing only, avoids an import cycle
    from repro.gpu.timeline import SimReport

#: Canonical label tuple: sorted (key, value-as-str) pairs.
LabelKey = tuple[tuple[str, str], ...]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _labels_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    """Stable numeric formatting: integers render bare, floats as %.9g."""
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.9g}"


class MetricFamily:
    """One named metric with labelled samples.

    Counters accumulate via :meth:`inc`, gauges overwrite via :meth:`set`,
    histograms collect observations via :meth:`observe` and render as
    ``_count`` / ``_sum`` / ``_min`` / ``_max`` samples.
    """

    def __init__(self, name: str, kind: str, help: str = "") -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.samples: dict[LabelKey, Any] = {}

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Counter: add ``value`` (must be non-negative) to the sample."""
        if self.kind != COUNTER:
            raise TypeError(f"{self.name} is a {self.kind}, not a counter")
        if value < 0:
            raise ValueError(f"counter {self.name} decremented by {value}")
        key = _labels_key(labels)
        self.samples[key] = self.samples.get(key, 0.0) + float(value)

    def set(self, value: float, **labels: Any) -> None:
        """Gauge: record the current value of the sample."""
        if self.kind != GAUGE:
            raise TypeError(f"{self.name} is a {self.kind}, not a gauge")
        self.samples[_labels_key(labels)] = float(value)

    def observe(self, value: float, **labels: Any) -> None:
        """Histogram: append one observation to the sample."""
        if self.kind != HISTOGRAM:
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        self.samples.setdefault(_labels_key(labels), []).append(float(value))

    # -- reading -----------------------------------------------------------

    def value(self, **labels: Any) -> float:
        """The sample for an exact label set (0.0 when absent)."""
        v = self.samples.get(_labels_key(labels), 0.0)
        return float(len(v)) if isinstance(v, list) else float(v)

    def quantile(self, q: float, **label_filter: Any) -> float:
        """Empirical quantile over a histogram's raw observations.

        Pools every sample whose labels include ``label_filter`` (so
        ``quantile(0.99)`` is the global p99 and
        ``quantile(0.5, tenant="a")`` a per-tenant median).  Uses the
        nearest-rank method on the sorted observations -- deterministic
        and exact for the small populations the serving layer tracks.
        Returns 0.0 when no observations match.
        """
        if self.kind != HISTOGRAM:
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        want = set(_labels_key(label_filter))
        obs: list[float] = []
        for key, v in self.samples.items():
            if want <= set(key):
                obs.extend(v)
        if not obs:
            return 0.0
        obs.sort()
        rank = max(0, min(len(obs) - 1,
                          int(math.ceil(q * len(obs))) - 1))
        return obs[rank]

    def total(self, **label_filter: Any) -> float:
        """Sum of samples whose labels include ``label_filter``."""
        want = set(_labels_key(label_filter))
        out = 0.0
        for key, v in self.samples.items():
            if want <= set(key):
                out += sum(v) if isinstance(v, list) else v
        return out

    def render(self) -> list[str]:
        """Canonical text lines, sorted by label set."""
        lines = [f"# TYPE {self.name} {self.kind}"]
        if self.help:
            lines.insert(0, f"# HELP {self.name} {self.help}")
        for key in sorted(self.samples):
            v = self.samples[key]
            lab = _render_labels(key)
            if self.kind == HISTOGRAM:
                obs = v
                lines.append(f"{self.name}_count{lab} {len(obs)}")
                lines.append(f"{self.name}_sum{lab} {_fmt_value(sum(obs))}")
                lines.append(f"{self.name}_min{lab} {_fmt_value(min(obs))}")
                lines.append(f"{self.name}_max{lab} {_fmt_value(max(obs))}")
            else:
                lines.append(f"{self.name}{lab} {_fmt_value(v)}")
        return lines


class MetricsRegistry:
    """Get-or-create store of :class:`MetricFamily` by name."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = MetricFamily(name, kind, help)
        elif fam.kind != kind:
            raise TypeError(f"metric {name!r} already registered as {fam.kind}")
        return fam

    def counter(self, name: str, help: str = "") -> MetricFamily:
        """Monotone accumulator family."""
        return self._family(name, COUNTER, help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        """Point-in-time value family."""
        return self._family(name, GAUGE, help)

    def histogram(self, name: str, help: str = "") -> MetricFamily:
        """Observation-collection family."""
        return self._family(name, HISTOGRAM, help)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def value(self, name: str, **labels: Any) -> float:
        """Exact-label sample of family ``name`` (0.0 when absent)."""
        fam = self._families.get(name)
        return fam.value(**labels) if fam else 0.0

    def total(self, name: str, **label_filter: Any) -> float:
        """Filtered sum over family ``name`` (0.0 when absent)."""
        fam = self._families.get(name)
        return fam.total(**label_filter) if fam else 0.0

    def render(self) -> str:
        """Canonical text exposition, families sorted by name."""
        lines: list[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].render())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# report -> registry
# ---------------------------------------------------------------------------

_COMPONENT_BY_KIND = {"kernels": "kernels", "sync": "sync",
                      "malloc": "malloc", "free": "free",
                      "comm": "comm", "devices": "devices"}


def metrics_from_report(report: "SimReport") -> MetricsRegistry:
    """Aggregate a run report (and its event stream) into a registry.

    Pure function of the report: calling it twice yields identical
    renderings, which is what lets the golden-trace suite include the
    metrics exposition verbatim.
    """
    reg = MetricsRegistry()

    run = reg.gauge("run_info", "result statistics of the run")
    run.set(report.n_products, stat="n_products")
    run.set(report.nnz_out, stat="nnz_out")
    run.set(1.0 if report.complete else 0.0, stat="complete")
    if report.numeric_only:
        # only present on plan-cache replays, so pre-engine golden
        # expositions stay byte-identical
        run.set(1.0, stat="numeric_only")
    reg.gauge("total_seconds", "simulated wall time").set(report.total_seconds)
    reg.gauge("peak_bytes", "device-memory high-water mark").set(report.peak_bytes)
    reg.gauge("malloc_count", "timed cudaMalloc calls").set(report.malloc_count)

    phase = reg.counter("phase_seconds", "per-phase simulated time")
    for p, dt in report.phase_seconds.items():
        phase.inc(dt, phase=p)

    k_sec = reg.counter("kernel_seconds", "wall time per kernel launch")
    k_busy = reg.counter("kernel_block_seconds", "device work per kernel")
    k_n = reg.counter("kernels_launched_total", "launches per phase")
    k_hist = reg.histogram("kernel_duration_seconds",
                           "kernel wall-time distribution per phase")
    for rec in report.kernels:
        k_sec.inc(rec.duration, phase=rec.phase, kernel=rec.name,
                  stream=rec.stream)
        k_busy.inc(rec.block_seconds, phase=rec.phase, kernel=rec.name)
        k_n.inc(1, phase=rec.phase)
        k_hist.observe(rec.duration, phase=rec.phase)

    aggregate_events(reg, report.events)
    return reg


def metrics_from_events(events) -> MetricsRegistry:
    """A registry from a bare event list (no :class:`SimReport` around it).

    The serving layer's event stream lives on the server, not on any one
    run report; this builds the same families
    :func:`metrics_from_report` would for those kinds.  Pure function of
    the events, like its report-level sibling.
    """
    reg = MetricsRegistry()
    aggregate_events(reg, events)
    return reg


def aggregate_events(reg: MetricsRegistry, events) -> None:
    """Fold an event stream into ``reg`` (shared by both constructors)."""
    comp = reg.counter("phase_component_seconds",
                       "phase time split by charge source")
    alloc_b = reg.counter("alloc_bytes_total", "bytes allocated")
    free_b = reg.counter("free_bytes_total", "bytes freed")
    allocs = reg.counter("allocs_total", "allocation events by buffer")
    for e in events:
        if e.kind == E.CHARGE:
            comp.inc(e.attrs.get("seconds", 0.0), phase=e.name,
                     component=_COMPONENT_BY_KIND.get(
                         e.attrs.get("source", ""), "other"))
        elif e.kind == E.ALLOC:
            alloc_b.inc(e.attrs.get("nbytes", 0))
            allocs.inc(1, buffer=e.name)
        elif e.kind == E.FREE:
            free_b.inc(e.attrs.get("nbytes", 0))
        elif e.kind == E.GROUPING:
            reg.counter("group_rows", "rows per group and stage").inc(
                e.attrs.get("rows", 0), stage=e.name,
                group=e.attrs.get("group", -1),
                assign=e.attrs.get("assign", ""))
        elif e.kind == E.HASH_STATS:
            reg.gauge("hash_load_factor", "hash-table occupancy").set(
                e.attrs.get("load_mean", 0.0), stage=e.name,
                group=e.attrs.get("group", -1), bound="mean")
            reg.gauge("hash_load_factor").set(
                e.attrs.get("load_max", 0.0), stage=e.name,
                group=e.attrs.get("group", -1), bound="max")
        elif e.kind == E.FAULT:
            reg.counter("faults_injected_total", "FaultPlan rules fired").inc(
                1, fault_kind=e.attrs.get("fault_kind", ""))
        elif e.kind == E.RUN_ABORT:
            reg.counter("run_aborts_total", "contexts exited on error").inc(
                1, error=e.attrs.get("error", ""))
        elif e.kind == E.RESILIENCE:
            reg.counter("resilience_attempts_total",
                        "ladder attempts by outcome").inc(
                1, algorithm=e.attrs.get("algorithm", ""),
                strategy=e.name, ok=e.attrs.get("ok", ""))
        elif e.kind in (E.CACHE_HIT, E.CACHE_MISS, E.CACHE_EVICT):
            reg.counter("plan_cache_events_total",
                        "plan-cache traffic seen by this run").inc(
                1, event=e.kind.removeprefix("cache_"))
            if e.kind == E.CACHE_HIT:
                reg.counter(
                    "plan_cache_saved_seconds_total",
                    "symbolic+setup time amortized by the hit").inc(
                    e.attrs.get("saved_seconds", 0.0))
        elif e.kind == E.COMM:
            reg.counter("dist_comm_bytes_total",
                        "interconnect bytes by direction").inc(
                e.attrs.get("nbytes", 0), direction=e.name,
                link=e.attrs.get("link", ""))
            reg.counter("dist_comm_link_seconds_total",
                        "per-link transfer occupancy (>= wall time when "
                        "p2p links overlap)").inc(
                e.attrs.get("seconds", 0.0), direction=e.name,
                link=e.attrs.get("link", ""))
            reg.counter("dist_comm_transfers_total",
                        "interconnect transfers by direction").inc(
                1, direction=e.name,
                cached=e.attrs.get("cached", False))
        elif e.kind == E.DIST_PANEL:
            reg.counter("dist_panel_rows", "rows executed per device").inc(
                e.attrs.get("rows", 0), device=e.name)
            reg.counter("dist_panel_seconds",
                        "per-device span of the compute wave").inc(
                e.attrs.get("seconds", 0.0), device=e.name)
            reg.counter("dist_panel_products",
                        "intermediate products per device").inc(
                e.attrs.get("n_products", 0), device=e.name)
            reg.counter("dist_panels_total", "panels retired").inc(
                1, device=e.name)
        elif e.kind == E.DEVICE_LOST:
            reg.counter("dist_device_lost_total",
                        "pool devices dropped mid-run").inc(
                1, device=e.name)
        elif e.kind in (E.TUNE_HIT, E.TUNE_MISS, E.TUNE_SEARCH,
                        E.TUNE_APPLY):
            reg.counter("tune_events_total",
                        "autotuner traffic seen by this run").inc(
                1, event=e.kind.removeprefix("tune_"))
            if e.kind == E.TUNE_SEARCH:
                reg.counter("tune_candidates_total",
                            "configurations scored by the cost model").inc(
                    e.attrs.get("candidates", 0))
                reg.counter("tune_measured_total",
                            "configurations measured end-to-end").inc(
                    e.attrs.get("measured", 0))
            elif e.kind == E.TUNE_APPLY:
                reg.gauge("tune_speedup",
                          "default/tuned modeled-time ratio of the "
                          "applied config").set(
                    e.attrs.get("speedup", 1.0), sketch=e.name)
        elif e.kind in E.SERVE_KINDS:
            _aggregate_serve_event(reg, e)
        elif e.kind in E.ESTIMATE_KINDS:
            _aggregate_estimate_event(reg, e)


def _aggregate_estimate_event(reg: MetricsRegistry, e) -> None:
    """One estimated-symbolic-phase event into the ``estimate_*`` families.

    ``estimate_rows_total{status}`` is the conservation family: every
    estimated row is either within its bound or recovered by the exact
    recount, which :func:`check_estimate_conservation` asserts.
    """
    rows = reg.counter("estimate_rows_total",
                       "rows by bound outcome (conservation family)")
    if e.kind == E.ESTIMATE_SAMPLE:
        reg.counter("estimate_passes_total",
                    "estimator sampling passes").inc(1)
        reg.counter("estimate_sampled_rows_total",
                    "rows whose bound came from sampling (the rest "
                    "carried their exact product count)").inc(
            e.attrs.get("sampled_rows", 0))
    elif e.kind == E.ESTIMATE_BOUND:
        rows.inc(e.attrs.get("rows", 0), status="estimated")
        rows.inc(e.attrs.get("within", 0), status="within_bound")
        reg.counter("estimate_overalloc_nnz_total",
                    "output slack allocated above the true nnz").inc(
            e.attrs.get("overalloc_nnz", 0))
    elif e.kind == E.ESTIMATE_RECOVER:
        rows.inc(e.attrs.get("rows", 0), status="recovered")
        reg.counter("estimate_recover_table_bytes_total",
                    "global recount tables for bound-violating rows").inc(
            e.attrs.get("table_bytes", 0))


def _aggregate_serve_event(reg: MetricsRegistry, e) -> None:
    """One serving-layer event into the ``serve_*`` families.

    ``serve_jobs_total{outcome}`` is the conservation family: every
    submission lands in exactly one terminal outcome (``completed`` |
    ``rejected`` | ``timed_out`` | ``failed``), which
    :func:`check_serve_conservation` asserts.
    """
    jobs = reg.counter("serve_jobs_total",
                       "jobs by lifecycle outcome (conservation family)")
    if e.kind == E.SERVE_SUBMIT:
        jobs.inc(1, outcome="submitted")
    elif e.kind == E.SERVE_ADMIT:
        reg.counter("serve_admission_total",
                    "admission decisions by kind").inc(
            1, decision="admitted")
        reg.histogram("serve_queue_wait_seconds",
                      "host seconds between submit and dispatch").observe(
            e.attrs.get("queue_wait_s", 0.0), tenant=e.name)
    elif e.kind == E.SERVE_REJECT:
        jobs.inc(1, outcome="rejected")
        reg.counter("serve_admission_total").inc(
            1, decision="rejected", reason=e.attrs.get("reason", ""))
    elif e.kind == E.SERVE_TIMEOUT:
        jobs.inc(1, outcome="timed_out")
    elif e.kind == E.SERVE_RETRY:
        reg.counter("serve_retries_total",
                    "recoverable-failure retry attempts").inc(1, tenant=e.name)
    elif e.kind == E.SERVE_DEGRADE:
        reg.counter("serve_degraded_total",
                    "admissions downgraded to chunked/fallback "
                    "execution").inc(1, reason=e.attrs.get("reason", ""))
    elif e.kind == E.SERVE_COALESCE:
        reg.counter("serve_coalesced_total",
                    "followers attached to an identical in-flight "
                    "job").inc(1, tenant=e.name)
    elif e.kind == E.SERVE_BREAKER:
        reg.counter("serve_breaker_transitions_total",
                    "circuit-breaker state transitions").inc(
            1, tenant=e.name, state=e.attrs.get("state", ""))
    elif e.kind == E.SERVE_DONE:
        outcome = e.attrs.get("outcome", "completed")
        jobs.inc(1, outcome=outcome)
        reg.histogram("serve_latency_seconds",
                      "host seconds from submit to completion").observe(
            e.attrs.get("latency_s", 0.0), tenant=e.name)
        if outcome == "completed":
            reg.histogram("serve_job_modeled_seconds",
                          "modeled device seconds of completed jobs").observe(
                e.attrs.get("modeled_seconds", 0.0), tenant=e.name)


def check_conservation(report: "SimReport", *, tol: float = 1e-9) -> None:
    """Assert the conservation laws the registry is built on.

    Raises :class:`AssertionError` naming the first violated law; used by
    the property-based tests and available to callers as a self-check.
    """
    reg = metrics_from_report(report)
    for p, dt in report.phase_seconds.items():
        parts = reg.total("phase_component_seconds", phase=p)
        if not math.isclose(parts, dt, rel_tol=tol, abs_tol=tol):
            raise AssertionError(
                f"phase {p!r}: components sum to {parts!r}, "
                f"report says {dt!r}")
    total = sum(report.phase_seconds.values())
    if not math.isclose(total, report.total_seconds, rel_tol=tol, abs_tol=tol):
        raise AssertionError(
            f"phase_seconds sum {total!r} != total_seconds "
            f"{report.total_seconds!r}")
    alloc_b = reg.total("alloc_bytes_total")
    free_b = reg.total("free_bytes_total")
    if alloc_b != free_b:
        raise AssertionError(
            f"alloc {alloc_b:.0f} B != free {free_b:.0f} B at run exit")
    if not E.is_nondecreasing(report.events):
        raise AssertionError("event timestamps decrease")
    # -- distributed runs: comm and device-wave components ------------------
    if any(e.kind == E.COMM for e in report.events):
        comm_wall = reg.total("phase_component_seconds", component="comm")
        link = reg.total("dist_comm_link_seconds_total")
        if comm_wall > link + tol:
            raise AssertionError(
                f"comm wall {comm_wall!r} exceeds link occupancy {link!r} "
                "(transfers cannot take less link time than wall time)")
    panel_secs = [e.attrs.get("seconds", 0.0) for e in report.events
                  if e.kind == E.DIST_PANEL]
    if panel_secs:
        wave = reg.total("phase_component_seconds", component="devices")
        if max(panel_secs) > wave + tol:
            raise AssertionError(
                f"slowest panel {max(panel_secs)!r} exceeds the charged "
                f"device-wave time {wave!r}")
        if wave > sum(panel_secs) + tol:
            raise AssertionError(
                f"device-wave time {wave!r} exceeds the panels' combined "
                f"span {sum(panel_secs)!r}")


def check_estimate_conservation(reg: MetricsRegistry) -> None:
    """Assert the estimated symbolic phase's row-conservation law.

    Every row whose nnz was estimated must either sit within its bound
    or be recovered by the exact global-table recount::

        estimated == within_bound + recovered

    ``reg`` is a registry over an estimate-mode run's events
    (:func:`metrics_from_report`); exact-mode runs carry no
    ``estimate_*`` families and pass vacuously.  Raises
    :class:`AssertionError` naming the imbalance -- a violation means a
    bound-violating row was neither recounted nor accounted for, i.e. a
    potentially corrupt output allocation went unnoticed.
    """
    estimated = reg.value("estimate_rows_total", status="estimated")
    within = reg.value("estimate_rows_total", status="within_bound")
    recovered = reg.value("estimate_rows_total", status="recovered")
    if estimated != within + recovered:
        raise AssertionError(
            f"estimate conservation violated: estimated {estimated:.0f} != "
            f"within_bound {within:.0f} + recovered {recovered:.0f}")


def check_serve_conservation(reg: MetricsRegistry) -> None:
    """Assert the serving layer's job-conservation law.

    Every submitted job must land in exactly one terminal outcome::

        submitted == completed + rejected + timed_out + failed

    ``reg`` is a registry built over the server's event stream
    (:func:`metrics_from_events` or ``SpGEMMServer.metrics()`` after
    :meth:`~repro.serve.SpGEMMServer.drain`).  Raises
    :class:`AssertionError` naming the imbalance -- a violation means a
    job was silently dropped or double-counted, the failure modes the
    chaos harness exists to catch.
    """
    submitted = reg.value("serve_jobs_total", outcome="submitted")
    terminal = {o: reg.value("serve_jobs_total", outcome=o)
                for o in ("completed", "rejected", "timed_out", "failed")}
    if submitted != sum(terminal.values()):
        raise AssertionError(
            f"serve conservation violated: submitted {submitted:.0f} != "
            + " + ".join(f"{o} {n:.0f}" for o, n in terminal.items()))
