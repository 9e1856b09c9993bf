"""A pool of simulated devices, each fronted by its own runner.

The pool owns one :class:`DeviceSlot` per device: the spec, a stable id
(``dev0``, ``dev1``, ...) and the runner instance that executes this
device's row panels.  Runners are created once and live for the pool's
lifetime, so a per-slot :class:`~repro.engine.SpGEMMEngine` keeps its
plan cache warm across multiplies -- the steady-state path of the E17
scaling experiment.

Devices may be heterogeneous (mixed specs, even mixed *architectures*:
GPU and CPU presets share one pool); :meth:`DevicePool.weights` asks
each device's backend for its work share
(:meth:`~repro.backend.base.Backend.work_weight`, bandwidth-derived) and
:func:`_make_runner` translates the requested algorithm onto each
slot's architecture, so a pool asked for 'proposal' runs 'hash-cpu' on
its CPU slots.  A device lost mid-run is only marked, never removed, so
ids stay stable and the audit trail can name it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import backend_for_spec, resolve_device
from repro.base import SpGEMMAlgorithm
from repro.baselines.registry import create
from repro.engine.engine import SpGEMMEngine
from repro.errors import DeviceConfigError
from repro.gpu.device import P100, DeviceSpec


@dataclass
class DeviceSlot:
    """One pool member: id, hardware spec, runner, liveness."""

    device_id: str
    spec: DeviceSpec
    runner: SpGEMMAlgorithm
    lost: bool = field(default=False)


def _make_runner(algorithm: "str | SpGEMMAlgorithm", engine: bool,
                 algo_options: dict,
                 spec: "DeviceSpec | None" = None) -> SpGEMMAlgorithm:
    if isinstance(algorithm, str) and spec is not None:
        # run each slot's architecture-native equivalent of the request
        algorithm = backend_for_spec(spec).native_algorithm(algorithm)
    if engine:
        return SpGEMMEngine(algorithm, **algo_options)
    if isinstance(algorithm, SpGEMMAlgorithm):
        return algorithm
    return create(algorithm, **algo_options)


class DevicePool:
    """Ordered collection of :class:`DeviceSlot`."""

    def __init__(self, slots: list[DeviceSlot]) -> None:
        if not slots:
            raise DeviceConfigError("a device pool needs at least one device")
        ids = [s.device_id for s in slots]
        if len(set(ids)) != len(ids):
            raise DeviceConfigError(f"duplicate device ids in pool: {ids}")
        self.slots = list(slots)

    # -- construction ------------------------------------------------------

    @classmethod
    def uniform(cls, n_devices: int, spec: DeviceSpec = P100, *,
                algorithm: "str | SpGEMMAlgorithm" = "proposal",
                engine: bool = True, **algo_options) -> "DevicePool":
        """``n_devices`` identical devices, each with a fresh runner."""
        if n_devices < 1:
            raise DeviceConfigError(f"n_devices must be >= 1, got {n_devices}")
        return cls([DeviceSlot(device_id=f"dev{i}", spec=spec,
                               runner=_make_runner(algorithm, engine,
                                                   algo_options, spec))
                    for i in range(int(n_devices))])

    @classmethod
    def from_names(cls, names: list[str], *,
                   algorithm: "str | SpGEMMAlgorithm" = "proposal",
                   engine: bool = True, **algo_options) -> "DevicePool":
        """Heterogeneous pool from registered preset names, any backend
        (e.g. ``["P100", "P100", "K40"]`` or ``["P100", "KNL64"]``)."""
        specs = [resolve_device(name) for name in names]
        return cls([DeviceSlot(device_id=f"dev{i}", spec=spec,
                               runner=_make_runner(algorithm, engine,
                                                   algo_options, spec))
                    for i, spec in enumerate(specs)])

    # -- membership --------------------------------------------------------

    @property
    def active(self) -> list[DeviceSlot]:
        """Slots still participating, in id order."""
        return [s for s in self.slots if not s.lost]

    def __len__(self) -> int:
        return len(self.slots)

    def slot(self, device_id: str) -> DeviceSlot:
        """Look a slot up by id."""
        for s in self.slots:
            if s.device_id == device_id:
                return s
        raise DeviceConfigError(f"no device {device_id!r} in pool")

    def mark_lost(self, device_id: str) -> DeviceSlot:
        """Flag a device as dropped; it keeps its slot but no new work."""
        s = self.slot(device_id)
        s.lost = True
        return s

    def weights(self) -> np.ndarray:
        """Partitioner shares of the active devices.

        Each backend derives its share from sustained memory bandwidth
        (:meth:`~repro.backend.base.Backend.work_weight`); the GPU
        backend returns the raw GB/s figure, so single-architecture GPU
        pools partition exactly as before the abstraction layer.
        """
        return np.array([backend_for_spec(s.spec).work_weight(s.spec)
                         for s in self.active], dtype=np.float64)

    def memory_bytes(self) -> int:
        """Combined device-memory capacity of the *active* devices.

        The serving layer's admission budget: jobs are admitted while
        their estimated working sets fit under this figure, and the
        budget shrinks automatically when a device is marked lost.
        """
        return sum(s.spec.global_mem_bytes for s in self.active)

    def describe(self) -> str:
        """Short pool description for reports (``4x Tesla P100...``)."""
        from collections import Counter

        counts = Counter(s.spec.name for s in self.active)
        return " + ".join(f"{n}x {name}" for name, n in counts.items())
