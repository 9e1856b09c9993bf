"""The one cache primitive and the scalar-core switch.

Two concerns live here, both deliberately tiny and dependency-free:

* :class:`Memo` -- every bounded cache of the package: a lock, LRU
  order, a budget in caller-defined weight units and hit/miss/evict
  counters.  The process-wide memos (functional products and sort
  recipes in :mod:`repro.sparse.product`, phase schedules in
  :mod:`repro.gpu.scheduler`) weigh one unit per entry and register
  themselves, so one call (:func:`clear_fast_caches`) restores a
  cold process.  The engine's plan cache is a ``Memo`` weighted by
  device bytes, owned by its engine.
* :func:`scalar_core_enabled` -- the ``REPRO_SCALAR_CORE=1`` escape
  hatch.  The vectorized hot paths behind those memos are bit-identical
  to the original scalar/recomputing paths by construction, and the
  dual-path equivalence suite (``tests/test_vectorized.py``) holds them
  to it.  Setting the environment variable routes every multiply
  through the original paths -- the reference the fast paths are judged
  against, and a one-line mitigation if a fast-path bug ever ships.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_ENV_FLAG = "REPRO_SCALAR_CORE"

#: Every process-wide memo, for :func:`clear_fast_caches`.
_memos: list["Memo"] = []


def scalar_core_enabled() -> bool:
    """True when ``REPRO_SCALAR_CORE`` requests the original scalar paths.

    Read from the environment on every call (a dict lookup -- it is
    checked once per multiply/phase, never per element) so tests can
    flip it with ``monkeypatch.setenv`` without reloading modules.
    """
    return os.environ.get(_ENV_FLAG, "") not in ("", "0")


@dataclass
class MemoStats:
    """Monotone counters of one memo's traffic."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    uncacheable: int = 0         #: entries heavier than the whole budget

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 before any traffic)."""
        return self.hits / self.lookups if self.lookups else 0.0


class Memo(Generic[K, V]):
    """Thread-safe LRU map under a budget of summed entry weights.

    ``weight(value)`` is taken once, at :meth:`put`.  The lock guards
    only the dict and the counters: callers compute a missing value
    outside it (two threads may build the same entry; the last
    :meth:`put` wins), so a memo may be used while building another
    memo's entry.  ``process_wide`` memos are dropped by
    :func:`clear_fast_caches`.
    """

    def __init__(self, budget: int,
                 weight: Callable[[V], int] = lambda _: 1, *,
                 process_wide: bool = False) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = int(budget)
        self.weight = 0              #: summed weight of the resident entries
        self.stats = MemoStats()
        #: held around dict and counter updates only, never a computation
        self.lock = threading.Lock()
        self._weigh = weight
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        if process_wide:
            _memos.append(self)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self.lock:
            return key in self._entries

    def keys(self) -> list[K]:
        """Resident keys, least-recently-used first."""
        with self.lock:
            return list(self._entries)

    def get(self, key: K) -> V | None:
        """The value for ``key`` (refreshing its LRU slot), or None."""
        with self.lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: K, value: V) -> list[tuple[K, V]]:
        """Store ``value``, evicting LRU entries until the budget holds.

        Returns the evicted ``(key, value)`` pairs, oldest first.  A
        value heavier than the whole budget is not stored at all.
        """
        w = self._weigh(value)
        evicted: list[tuple[K, V]] = []
        with self.lock:
            if w > self.budget:
                self.stats.uncacheable += 1
                return evicted
            old = self._entries.pop(key, None)
            if old is not None:
                self.weight -= old[1]
            while self._entries and self.weight + w > self.budget:
                k, (v, vw) = self._entries.popitem(last=False)
                self.weight -= vw
                self.stats.evictions += 1
                evicted.append((k, v))
            self._entries[key] = (value, w)
            self.weight += w
        return evicted

    def discard(self, key: K) -> None:
        """Drop ``key`` if resident."""
        with self.lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.weight -= entry[1]

    def clear(self) -> None:
        """Drop every entry (the counters keep counting)."""
        with self.lock:
            self._entries.clear()
            self.weight = 0


def clear_fast_caches() -> None:
    """Drop every process-wide memo (cold-process state).

    Covers the functional product cache, the sort-recipe cache and the
    scheduler's phase memo of every module imported so far; a module
    not yet imported holds nothing to drop.
    """
    for memo in _memos:
        memo.clear()
