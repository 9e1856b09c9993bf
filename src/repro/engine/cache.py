"""LRU plan cache under a device-memory budget.

A production SpGEMM service keeps captured plans (group-row arrays,
per-row counts, output-CSR structure) resident on the device so a hit
replays without any host round trip.  Device memory is the scarce
resource, so the cache is budgeted in *bytes*, not entries: storing a
plan evicts least-recently-used plans until the new total fits.  Plans
larger than the whole budget are never stored (the multiply still runs,
it just stays cold).

The cache is a :class:`~repro.perf.Memo` weighted by device bytes, so
it is thread-safe and the engine's batched worker pool can share one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.plan import PlanKey, SpGEMMPlan
from repro.perf import Memo, MemoStats

#: Default budget: 256 MiB of simulated device memory, a small slice of
#: the P100's 16 GiB -- enough for the benchmark suite's working set.
DEFAULT_BUDGET_BYTES = 256 << 20


@dataclass
class CacheStats(MemoStats):
    """Monotone counters of one plan cache's traffic."""

    saved_seconds: float = 0.0   #: symbolic+setup time amortized by hits


@dataclass
class Eviction:
    """One plan pushed out by the budget (reported back to the caller so
    the engine can mirror it onto the run's event stream)."""

    key: PlanKey
    plan: SpGEMMPlan
    reason: str = "budget"


class PlanCache(Memo[PlanKey, SpGEMMPlan]):
    """Pattern-keyed LRU store of :class:`SpGEMMPlan` under a byte budget:
    a :class:`~repro.perf.Memo` weighing each plan by its device bytes."""

    stats: CacheStats

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        super().__init__(budget_bytes, lambda plan: plan.device_bytes())
        self.stats = CacheStats()

    @property
    def budget_bytes(self) -> int:
        """The configured device-memory budget."""
        return self.budget

    @property
    def bytes_in_use(self) -> int:
        """Device bytes held by the cached plans."""
        return self.weight

    def lookup(self, key: PlanKey) -> SpGEMMPlan | None:
        """Return the plan for ``key`` (refreshing its LRU slot) or None."""
        plan = self.get(key)
        if plan is not None:
            with self.lock:
                self.stats.saved_seconds += plan.symbolic_seconds
        return plan

    def store(self, key: PlanKey, plan: SpGEMMPlan) -> list[Eviction]:
        """Insert ``plan``, evicting LRU entries until the budget holds.

        Returns the evictions performed (possibly empty).  A plan larger
        than the entire budget is not stored at all.
        """
        return [Eviction(key=k, plan=p) for k, p in self.put(key, plan)]

    def retract_hit(self, key: PlanKey, plan: SpGEMMPlan) -> None:
        """Reclassify a served hit as a miss (stale-plan fallback): the
        engine discards the entry and corrects the traffic counters so
        the hit rate reflects multiplies actually amortized."""
        with self.lock:
            self.stats.hits -= 1
            self.stats.misses += 1
            self.stats.saved_seconds -= plan.symbolic_seconds
        self.discard(key)
