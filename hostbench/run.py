#!/usr/bin/env python3
"""Host-time benchmark of the repro SpGEMM stack.

Run from the repository root::

    python3 hostbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice on the same seed -- first
untraced, then with every layer's public functions wrapped in spans
(``tracer.py``) -- and reports the per-layer metrics, the tracing
overhead between the two passes, and the conservation, binding-site and
exact-count checks.  Every op's result is compared with scipy's
``A @ B`` outside the timed interval.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--update-golden`` rewrites the workload's entry of ``golden.json``
(the exact modeled counts of the ``cold`` and ``iterative`` op kinds, and
of ``serve-mix``'s replay of a fixed pool) from this run; only a change
that means to alter the simulator's model should do that.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

#: Set-up is repeated this many times per run; ``setup_s`` is the median
#: import time of that many fresh interpreters plus the median of as many
#: in-process set-ups (dataset generation, warm-up, server start).
SETUP_REPEATS = 3

#: What a fresh interpreter imports before the first op, timed inside it.
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = {paths!r}; "
    "import workloads; workloads.import_package(); "
    "print(time.perf_counter() - t)")

#: Why each per-layer metric of the traced run is there: name -> (the
#: end-to-end metric it should move, where the layer works -> where it
#: does little).  Units and directions live in BENCHMARK.json, which has
#: no room for these notes.  ``*_ms`` are self ms per op, ``*_calls``
#: calls per op.
LAYER_NOTES = {
    "options.self_ms": ("latency_p50_ms", "iterative (facade leg) -> cold"),
    "options.runner_for_calls": ("latency_p50_ms", "iterative -> cold"),
    "serve.submit_ms": ("ops_per_s", "serve-mix -> absent"),
    "serve.queue_wait_p50_ms": ("latency_p90_ms", "serve-mix -> absent"),
    "serve.queue_wait_p90_ms": ("latency_p90_ms", "serve-mix -> absent"),
    "serve.coalesced_frac": ("ops_per_s", "serve-mix -> absent"),
    "serve.retries": ("latency_p90_ms", "serve-mix -> absent"),
    "serve.jobs_retained_mb": ("peak_rss_mb", "serve-mix -> absent"),
    "dist.self_ms": ("latency_p90_ms", "iterative (slowest leg) -> cold"),
    "dist.calls": ("latency_p90_ms", "iterative -> cold"),
    "tune.search_ms": ("latency_p90_ms", "cold -> iterative"),
    "tune.search_calls": ("latency_p90_ms", "cold -> iterative"),
    "resilient.self_ms": ("latency_p50_ms", "serve-mix -> absent"),
    "engine.self_ms": ("latency_p50_ms", "iterative -> cold"),
    "engine.plan_hit_ratio": ("latency_p50_ms", "iterative -> cold"),
    "core.self_ms": ("latency_p50_ms", "cold and iterative"),
    "estimate.sample_ms": ("latency_p50_ms", "cold -> iterative"),
    "tile.self_ms": ("latency_p90_ms", "cold -> iterative"),
    "product.self_ms": ("latency_p50_ms", "cold -> iterative"),
    "product.recipe_build_ms": ("latency_p50_ms, peak_rss_mb, ops_per_s",
                                "cold, serve-mix -> iterative"),
    "product.recipe_build_calls": ("latency_p50_ms, ops_per_s",
                                   "cold, serve-mix -> iterative (0)"),
    "product.value_replay_ms": ("latency_p50_ms", "iterative -> cold"),
    "product.digest_ms": ("latency_p50_ms", "iterative -> cold"),
    "product.digest_calls": ("latency_p50_ms", "iterative -> cold"),
    "product.result_hit_ratio": ("ops_per_s",
                                 "serve-mix (churn) -> iterative"),
    "product.recipe_hit_ratio": ("ops_per_s",
                                 "serve-mix (churn) -> iterative (1.0)"),
    "product.intermediate_products": ("ops_per_s", "all (exact)"),
    "scheduler.simulate_ms": ("latency_p50_ms", "cold -> iterative"),
    "scheduler.simulate_calls": ("latency_p50_ms", "cold -> iterative"),
    "scheduler.us_per_block": ("latency_p50_ms",
                               "cold -> iterative (memo hits)"),
    "obs.events_per_op": ("latency_p50_ms", "iterative (exact)"),
    "ref.scipy_ms": ("host_x_scipy (denominator)", "all"),
    "trace.unattributed_frac": ("-", "all"),
    "trace.overhead_frac": ("-", "all"),
}


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold", "iterative", "serve-mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true")
    return ap.parse_args(argv)


def import_seconds() -> float:
    """Median import time of :data:`SETUP_REPEATS` fresh interpreters."""
    code = _IMPORT_PROBE.format(paths=[os.path.join(ROOT, "src"), HERE])
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def ops_per_s(wl, records) -> float:
    """Completed ops per second of the workload's last measured run."""
    done = sum(1 for r in records if r.exact is not None)
    return done / wl.busy_s if wl.busy_s > 0 else 0.0


# -- exact counts ------------------------------------------------------------------


def exact_guard(records, problems: list) -> dict:
    """Per-key exact counts; a key seen twice must repeat exactly."""
    guard: dict = {}
    for r in records:
        if r.exact is None:
            continue
        prev = guard.setdefault(r.key, r.exact)
        if prev != r.exact:
            problems.append(f"exact counts of {r.key} drifted within the "
                            f"run: {prev} vs {r.exact}")
    return guard


def golden_entry(exact: tuple) -> list:
    products, nnz, seconds, events = exact
    return [products, nnz, float.hex(seconds), events]


def check_golden(workload: str, guard: dict, problems: list) -> None:
    with open(GOLDEN) as f:
        golden = json.load(f).get(workload, {})
    for key in sorted(set(golden) | set(guard)):
        want = golden.get(key)
        got = golden_entry(guard[key]) if key in guard else None
        if want != got:
            problems.append(f"exact counts of {workload} {key}: golden "
                            f"{want}, measured {got}")


def update_golden(workload: str, guard: dict) -> None:
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    golden[workload] = {k: golden_entry(guard[k]) for k in sorted(guard)}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def modeled_gflops(guard: dict) -> float:
    keys = sorted(guard)
    flops = sum(2 * guard[k][0] for k in keys)
    seconds = sum(guard[k][2] for k in keys)
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def guard_for(wl, records, problems: list, update: bool = False) -> dict:
    """The exact counts the modeled metrics are taken over, checked.

    cold / iterative: the measured ops themselves (every kind recurs, and
    each recurrence must repeat exactly; the golden file pins them
    across runs).  serve-mix: a serial replay of the seeded pool, made
    twice (the two must agree exactly), whose products and output nnz
    every served job must match -- both are independent of which path
    (coalesced, cached, degraded) ran it; served jobs' modeled seconds
    are not, so the golden file pins a replay of the fixed
    ``GOLDEN_POOL_SEED`` pool instead, which covers every composition.
    """
    import workloads as W

    def pin(guard: dict) -> None:
        if update:
            update_golden(wl.name, guard)
        else:
            check_golden(wl.name, guard, problems)

    if wl.name != "serve-mix":
        guard = exact_guard(records, problems)
        pin(guard)
        return guard
    replay = wl.replay(wl.pool, wl.seed) + wl.replay(wl.pool, wl.seed)
    guard = exact_guard(replay, problems)
    by_pattern = {k.split("|")[0]: v[:2] for k, v in guard.items()}
    for r in records:
        if r.exact is None:
            continue
        want = by_pattern.get(r.key.split("|")[0])
        if want is not None and r.exact[:2] != want:
            problems.append(f"serve job {r.key}: products/nnz {r.exact[:2]} "
                            f"differ from the serial replay's {want}")
    fixed = wl.replay(W.serve_pool(W.GOLDEN_POOL_SEED), W.GOLDEN_POOL_SEED)
    pin(exact_guard(fixed, problems))
    records.extend(replay + fixed)
    return guard


# -- reports -------------------------------------------------------------------------


def cold_table(wl, records) -> str:
    """Per (matrix, composition) median host ms beside scipy's."""
    from workloads import COLD_COMPOSITIONS, COLD_MATRICES

    host: dict = {}
    ref: dict = {}
    for r in records:
        if r.exact is None:
            continue
        m, c = r.key.split("|")
        host.setdefault((m, c), []).append(r.host_s * 1e3)
        ref.setdefault(m, []).append(r.scipy_s * 1e3)
    comps = list(COLD_COMPOSITIONS)
    head = (f"{'matrix':<16}{'scipy':>9}"
            + "".join(f"{c + ' cold':>15}" for c in comps)
            + f"{'default warm':>14}")
    lines = ["cold per-matrix host ms (medians; scipy = ref.scipy_ms)", head]
    med = statistics.median
    for m in COLD_MATRICES:
        s = med(ref[m]) if m in ref else float("nan")
        cells = "".join(
            f"{med(host[m, c]):>9.1f} {med(host[m, c]) / s:>4.0f}x"
            if (m, c) in host else f"{'-':>15}" for c in comps)
        warm = wl.warm_ms.get(m)
        lines.append(f"{m:<16}{s:>9.2f}{cells}"
                     + (f"{med(warm):>14.1f}" if warm else f"{'-':>14}"))
    return "\n".join(lines)


def end_to_end(wl, records, setup_s: float, peak_rss_mb: float,
               guard: dict) -> dict:
    ok = [r for r in records if r.exact is not None]
    lat = [r.host_s * 1e3 for r in ok]
    failed = sum(1 for r in records if not r.ok)
    scipy_s = sum(r.scipy_s for r in ok)
    return {
        "ops_per_s": ops_per_s(wl, records),
        "latency_p50_ms": pct(lat, 50),
        "latency_p90_ms": pct(lat, 90),
        # 1 - error_rate: a rate that is 0 on a healthy run cannot carry
        # a relative bound
        "success_rate": 1.0 - failed / max(1, len(records)),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "modeled_gflops": modeled_gflops(guard),
        "host_x_scipy": (sum(r.host_s for r in ok) / scipy_s
                         if scipy_s > 0 else 0.0),
    }


def per_layer(wl, tr, records, guard: dict, untraced_rate: float,
              retries: float, problems: list) -> dict:
    """Every per-layer metric of the traced ``records``; the trace's
    checks append to ``problems``."""
    import tracer as T

    n = max(1, len(records))

    def ms(layer: str) -> float:
        return tr.self_s.get(layer, 0.0) * 1e3 / n

    def calls(target_suffix: str) -> float:
        return T.site_calls(target_suffix) / n

    compute = T.site_calls("product:compute_product")
    recipe = T.site_calls("product:recipe_for")
    builds = T.site_calls("expansion:build_sort_recipe")
    serve = wl.name == "serve-mix"
    waits = wl.queue_wait_ms if serve else []
    exact = list(guard.values())
    traced_rate = ops_per_s(wl, records)
    m = {
        "options.self_ms": ms("options"),
        "options.runner_for_calls": calls("options:runner_for"),
        "serve.submit_ms": ms("serve.submit"),
        "serve.queue_wait_p50_ms": pct(waits, 50),
        "serve.queue_wait_p90_ms": pct(waits, 90),
        "serve.coalesced_frac": wl.coalesced / max(1, wl.served)
        if serve else 0.0,
        "serve.retries": retries / n,
        "serve.jobs_retained_mb": wl.retained_bytes / 2**20 if serve else 0.0,
        "dist.self_ms": ms("dist"),
        "dist.calls": calls("DistSpGEMM.multiply"),
        "tune.search_ms": ms("tune"),
        "tune.search_calls": calls("Autotuner.tune"),
        "resilient.self_ms": ms("resilient"),
        "engine.self_ms": ms("engine"),
        "engine.plan_hit_ratio": tr.plan_hit_ratio(),
        "core.self_ms": ms("core"),
        "estimate.sample_ms": ms("estimate"),
        "tile.self_ms": ms("tile"),
        "product.self_ms": ms("product"),
        "product.recipe_build_ms": ms("product.recipe_build"),
        "product.recipe_build_calls": builds / n,
        "product.value_replay_ms": ms("product.value_replay"),
        "product.digest_ms": ms("product.digest"),
        "product.digest_calls": calls("product:pattern_digest"),
        "product.result_hit_ratio": 1.0 - recipe / compute if compute else 0.0,
        "product.recipe_hit_ratio": 1.0 - builds / recipe if recipe else 0.0,
        "product.intermediate_products":
            sum(e[0] for e in exact) / max(1, len(exact)),
        "scheduler.simulate_ms": ms("scheduler"),
        "scheduler.simulate_calls": calls("scheduler:simulate_phase"),
        "scheduler.us_per_block": (tr.self_s.get("scheduler", 0.0) * 1e6
                                   / tr.blocks if tr.blocks else 0.0),
        "obs.events_per_op": sum(e[3] for e in exact) / max(1, len(exact)),
        "ref.scipy_ms": sum(r.scipy_s for r in records if r.exact is not None)
        * 1e3 / n,
        "trace.unattributed_frac": tr.unattributed_frac(),
        "trace.overhead_frac": (untraced_rate / traced_rate - 1.0
                                if traced_rate > 0 else 0.0),
    }
    if wl.name == "iterative":
        if builds:
            problems.append(f"iterative rebuilt {builds} sort recipes in "
                            "steady state (expected 0)")
        if m["engine.plan_hit_ratio"] != 1.0:
            problems.append("iterative engine plan-hit ratio "
                            f"{m['engine.plan_hit_ratio']} (expected 1.0)")
    problems.extend(T.binding_failures(wl.name))
    problems.extend(tr.violations[:10])
    problems.extend(tr.conservation())
    return m


def declared_units(metrics: dict, key: str) -> dict:
    """BENCHMARK.json's unit of each metric; the emitted names must be
    exactly the ones it declares under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[key]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metric names differ from BENCHMARK.json "
                           f"{key}: {sorted(set(units) ^ set(metrics))}")
    return units


def serve_mix_report(wl) -> str:
    """The job mix a serve-mix run measured, and the retention it hid."""
    total = max(1, sum(wl.kinds.values()))
    shares = ", ".join(f"{k} {wl.kinds.get(k, 0) / total:.3f}"
                       for k in ("repeat", "iterate", "new"))
    return (f"serve-mix job shares: {shares} of {total} jobs; "
            f"SpGEMMServer.jobs held {wl.retained_bytes / 2**20:.1f} MB "
            "of operands and results, trimmed by the benchmark")


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads as W

    W.import_package()
    wl = W.WORKLOAD_TYPES[args.workload](args.seed)
    stream_seed = [args.seed, 1]
    problems: list[str] = []

    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        samples.append(time.perf_counter() - t0)
    if not args.trace:
        setup_s = import_seconds() + statistics.median(samples)
        records = wl.run(np.random.default_rng(stream_seed), args.seconds,
                         W.MIN_OPS)
        wl.close()
        # read before the exact-count replays, which are checks, not load
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = list(records)
        guard = guard_for(wl, records, problems, args.update_golden)
        metrics = end_to_end(wl, measured, setup_s, peak_mb, guard)
        key = "end_to_end"
        if wl.name == "cold":
            print(cold_table(wl, measured))
    else:
        import tracer as T

        half = args.seconds / 2
        untraced = wl.run(np.random.default_rng(stream_seed), half, 0)
        untraced_rate = ops_per_s(wl, untraced)
        if wl.name == "serve-mix":
            wl.setup()
        tr = T.Tracer(wl.root_layers)
        T.install(tr)
        tr.on = True
        timed = None if wl.name == "serve-mix" else (
            lambda fn, A, B: tr.span("op", fn, A, B))
        records = wl.run(np.random.default_rng(stream_seed), half, 0, timed)
        tr.on = False
        retries = (wl.server.metrics().total("serve_retries_total")
                   if wl.name == "serve-mix" else 0.0)
        wl.close()
        traced = list(records)
        records = untraced + records
        guard = guard_for(wl, records, problems)
        metrics = per_layer(wl, tr, traced, guard, untraced_rate, retries,
                            problems)
        key = "per_layer"

    units = declared_units(metrics, key)
    if wl.name == "serve-mix":
        print(serve_mix_report(wl))
    wrong = [r for r in records if r.error == W.MISMATCH]
    failed = [r for r in records if not r.ok]
    for r in failed[:10]:
        print(f"failed op {r.key}: {r.error or 'no result'}", file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, value in metrics.items():
        moves, where = LAYER_NOTES.get(name, ("", ""))
        note = f"  moves {moves}; {where}" if args.trace else ""
        print(f"{args.workload:<10} {name:<32} {value:>14.6g} "
              f"{units[name]}{note}")
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
