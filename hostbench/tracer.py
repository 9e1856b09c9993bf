"""Per-layer host-time spans recorded from outside the package.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
each layer's public functions where the package binds them: a module
function is replaced in *every* ``repro`` module that imported it by
name (``product_for`` alone is bound in nine), including the
``staticmethod`` a backend class keeps; a method is replaced on its
class.  Each wrapper times the call as a span on the calling thread's
own stack, so serve worker threads nest their spans independently of
the load-generating thread.

Self time is a span's duration minus the time its child spans cover.
Conservation: no child outlasts its parent, every root span belongs to
one of the workload's own root layers (a wrapped layer that fires on
another thread or outside the op would otherwise add self time that no
op accounts for), and the self times of all layers sum to the summed
duration of those roots.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

#: Relative slack of the conservation checks (float round-off only).
_EPS = 1e-9

WORKLOADS = ("cold", "iterative", "serve-mix")


@dataclass
class Site:
    """One wrapped function: where it lives, its layer, and which
    workloads must reach it (the binding-site guard)."""

    target: str                 #: 'module:function' or 'module:Class.method'
    layer: str                  #: span/layer name the time is charged to
    expect: tuple[str, ...]     #: workloads on which it must fire
    calls: int = 0
    bindings: int = 0           #: places the wrapper was installed


#: Every wrapped entry point.  ``expect`` lists the workloads whose
#: measured phase must reach the wrapper; the traced run fails when an
#: expected wrapper never fires, so a rename or re-import cannot report
#: a layer as silently zero.
SITES: list[Site] = [
    Site("repro.options:multiply", "options", ("cold", "iterative")),
    Site("repro.options:runner_for", "options", WORKLOADS),
    Site("repro.serve.server:SpGEMMServer.submit", "serve.submit",
         ("serve-mix",)),
    # per-job worker entry: the root span of each served job
    Site("repro.serve.server:SpGEMMServer._execute", "serve.run",
         ("serve-mix",)),
    Site("repro.dist.dist:DistSpGEMM.multiply", "dist", WORKLOADS),
    Site("repro.tune.tuned:TunedSpGEMM.multiply", "tune", ("cold",)),
    Site("repro.tune.tuner:Autotuner.tune", "tune", ("cold",)),
    Site("repro.core.resilient:ResilientSpGEMM.multiply", "resilient",
         ("serve-mix",)),
    Site("repro.engine.engine:SpGEMMEngine.multiply", "engine", WORKLOADS),
    Site("repro.core.spgemm:HashSpGEMM.multiply", "core", WORKLOADS),
    Site("repro.core.spgemm:HashSpGEMM.multiply_planned", "core",
         ("iterative", "serve-mix")),
    Site("repro.estimate.estimator:estimate_row_nnz", "estimate",
         ("cold", "serve-mix")),
    Site("repro.tile.algorithm:TileSpGEMM.multiply", "tile",
         ("cold", "serve-mix")),
    Site("repro.tile.algorithm:TileSpGEMM.multiply_planned", "tile", ()),
    Site("repro.sparse.product:product_for", "product", WORKLOADS),
    Site("repro.sparse.product:compute_product", "product", WORKLOADS),
    Site("repro.sparse.product:recipe_for", "product", WORKLOADS),
    Site("repro.sparse.expansion:build_sort_recipe", "product.recipe_build",
         ("cold", "serve-mix")),
    Site("repro.sparse.expansion:values_from_recipe", "product.value_replay",
         WORKLOADS),
    Site("repro.sparse.product:pattern_digest", "product.digest", WORKLOADS),
    Site("repro.gpu.scheduler:simulate_phase", "scheduler", WORKLOADS),
]


@dataclass
class _Frame:
    layer: str
    start: float
    child: float = 0.0          #: summed durations of direct children


@dataclass
class Tracer:
    """Span recorder shared by every wrapper (one per traced run)."""

    roots: tuple[str, ...]      #: the workload's own root layers
    on: bool = False
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    root_s: dict = field(default_factory=lambda: defaultdict(float))
    root_self_s: dict = field(default_factory=lambda: defaultdict(float))
    violations: list = field(default_factory=list)
    blocks: int = 0             #: thread blocks handed to the scheduler
    engines: dict = field(default_factory=dict)   #: id -> (engine, hits, lookups)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as a span of ``layer`` on this thread's stack."""
        st = self._stack()
        frame = _Frame(layer, perf_counter())
        st.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame.start
            st.pop()
            self._close(st, frame, dur)

    def _close(self, st: list, frame: _Frame, dur: float) -> None:
        own = dur - frame.child
        with self._lock:
            self.self_s[frame.layer] += own
            if frame.child > dur + _EPS * max(1.0, dur):
                self.violations.append(
                    f"{frame.layer}: children {frame.child:.6f}s exceed "
                    f"span {dur:.6f}s")
            if st:
                st[-1].child += dur
                return
            if frame.layer not in self.roots:
                self.violations.append(
                    f"{frame.layer} ran outside the workload's root spans "
                    f"{self.roots} ({dur:.6f}s)")
            self.root_s[frame.layer] += dur
            self.root_self_s[frame.layer] += own

    def conservation(self) -> list[str]:
        """The layers' self times must sum to the workload's root time."""
        total = sum(self.self_s.values())
        roots = sum(self.root_s.get(r, 0.0) for r in self.roots)
        if abs(total - roots) > _EPS * max(1.0, roots):
            return [f"layer self times sum to {total:.9f}s, the roots "
                    f"{self.roots} to {roots:.9f}s"]
        return []

    def unattributed_frac(self) -> float:
        """Self time of the root spans (covered by no layer) over their
        total duration."""
        total = sum(self.root_s.get(r, 0.0) for r in self.roots)
        own = sum(self.root_self_s.get(r, 0.0) for r in self.roots)
        return own / total if total else 0.0

    def note_engine(self, engine) -> None:
        """Remember an engine's plan-cache counters at first sight."""
        key = id(engine)
        if key not in self.engines:
            s = engine.stats()
            with self._lock:
                self.engines.setdefault(key, (engine, s.hits, s.lookups))

    def plan_hit_ratio(self) -> float:
        """Plan-cache hits per lookup over every engine seen while on."""
        hits = lookups = 0
        for engine, h0, l0 in self.engines.values():
            s = engine.stats()
            hits += s.hits - h0
            lookups += s.lookups - l0
        return hits / lookups if lookups else 0.0


def _resolve(target: str):
    mod_name, _, attr = target.partition(":")
    owner = importlib.import_module(mod_name)
    cls = None
    if "." in attr:
        cls_name, attr = attr.split(".")
        cls = owner = getattr(owner, cls_name)
    return owner, cls, attr, owner.__dict__[attr]


def _wrapper(tracer: Tracer, site: Site, fn):
    layer = site.layer
    engine_site = site.target.endswith("SpGEMMEngine.multiply")
    sched_site = layer == "scheduler"

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        blocks = sum(k.works.n_blocks for k in args[0]) if sched_site else 0
        with tracer._lock:
            site.calls += 1
            tracer.blocks += blocks
        if engine_site:
            tracer.note_engine(args[0])
        return tracer.span(layer, fn, *args, **kwargs)

    return wrapped


def install(tracer: Tracer) -> None:
    """Wrap every :data:`SITES` entry at each of its binding sites.

    Expects every ``repro`` submodule imported already
    (:func:`workloads.import_package`), so no late import can bind an
    unwrapped original.

    Raises ``RuntimeError`` when a target no longer exists or a module
    function is bound nowhere -- the guard against a rename turning a
    layer into a silent zero.
    """
    modules = [m for name, m in list(sys.modules.items())
               if (name == "repro" or name.startswith("repro."))
               and m is not None]
    for site in SITES:
        try:
            owner, cls, attr, orig = _resolve(site.target)
        except (ImportError, AttributeError, KeyError, ValueError) as e:
            raise RuntimeError(f"trace target {site.target} is gone: {e}")
        wrapped = _wrapper(tracer, site, orig)
        if cls is not None:
            setattr(cls, attr, wrapped)
            site.bindings = 1
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
                    site.bindings += 1
                elif isinstance(value, type) and value.__module__.startswith(
                        "repro"):
                    for cname, cval in list(vars(value).items()):
                        if (isinstance(cval, staticmethod)
                                and cval.__func__ is orig):
                            setattr(value, cname, staticmethod(wrapped))
                            site.bindings += 1
        if site.bindings == 0:
            raise RuntimeError(f"trace target {site.target} is bound nowhere")


def binding_failures(workload: str) -> list[str]:
    """Expected wrappers that never fired on ``workload``."""
    return [f"{s.target} ({s.layer}) never fired"
            for s in SITES if workload in s.expect and s.calls == 0]


def site_calls(target_suffix: str) -> int:
    """Calls recorded by the site whose target ends with the suffix."""
    return sum(s.calls for s in SITES if s.target.endswith(target_suffix))
