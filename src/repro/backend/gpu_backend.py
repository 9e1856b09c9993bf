"""The GPU backend: the paper's Pascal model behind the abstraction.

This is a thin shell, by design: ``simulate_phase`` and
``kernel_duration_alone`` *are* the pre-existing module functions of
:mod:`repro.gpu.scheduler` / :mod:`repro.gpu.cost` (installed as
staticmethods, not wrapped), and the presets are the same frozen
:data:`~repro.gpu.device.DEVICE_PRESETS` objects -- so every schedule,
plan-cache key and tuning-store entry produced through the backend is
bit-identical to what the direct imports produced before the
refactor.  The tuning hooks import :mod:`repro.tune` lazily: the tune
package sits above :mod:`repro.base` in the import order.
"""

from __future__ import annotations

from typing import Any

from repro.backend.base import Backend, TuningFamily
from repro.gpu.cost import kernel_duration_alone
from repro.gpu.device import DEVICE_PRESETS, P100, DeviceSpec
from repro.gpu.scheduler import simulate_phase


class GPUBackend(Backend):
    """CUDA-like devices costed by the Pascal model of :mod:`repro.gpu`."""

    name = "gpu"
    spec_type = DeviceSpec
    presets = DEVICE_PRESETS
    default_preset = P100
    algorithms = ("proposal", "cusparse", "cusp", "bhsparse", "tile")
    default_algorithm = "proposal"
    fallback_algorithm = "cusparse"

    # the pre-existing module functions, unwrapped: bit-identity holds
    # because these *are* the objects every call site used before
    simulate_phase = staticmethod(simulate_phase)
    kernel_duration_alone = staticmethod(kernel_duration_alone)

    # -- tuning hooks ---------------------------------------------------------

    def default_overrides(self) -> Any:
        from repro.core.params import ParamOverrides

        return ParamOverrides()

    def decode_overrides(self, d: dict) -> Any:
        from repro.core.params import ParamOverrides

        return ParamOverrides.from_dict(d)

    def tuning_candidates(self, spec: DeviceSpec) -> list:
        """Table I grid crossed with the ``symbolic`` axis: every table
        configuration is scored under both the exact counting pass and
        the sampled estimator (:mod:`repro.estimate`), so a tuned config
        can select ``symbolic='estimate'`` per matrix sketch."""
        from repro.tune.tuner import candidate_space

        return candidate_space(spec)

    def modeled_total(self, sketch, spec: DeviceSpec, precision,
                      overrides) -> float:
        from repro.tune.tuner import modeled_total

        return modeled_total(sketch, spec, precision, overrides)

    def score_candidates(self, sketch: Any, spec: DeviceSpec,
                         precision: Any, candidates: list) -> list[float]:
        """The whole Table I grid in one pass, each distinct group
        kernel costed once (:func:`repro.tune.tuner.score_candidates`)."""
        from repro.tune.tuner import score_candidates

        return score_candidates(sketch, spec, precision, candidates)

    def tuning_algorithm(self, overrides) -> Any:
        from repro.core.spgemm import HashSpGEMM

        return HashSpGEMM(overrides=overrides)

    def tuning_families(self, spec: DeviceSpec) -> tuple[TuningFamily, ...]:
        """The hash family (primary, = the five hooks above) plus the
        tile family with its own param type, grid, tiled sketch and
        objective.  Family selection is by override-type probing, so a
        :class:`~repro.tile.algorithm.TileSpGEMM` inner lands on the
        tile space and everything else keeps the Table I search."""
        from repro.tile.algorithm import TileSpGEMM
        from repro.tile.params import TileParams
        from repro.tile.plan import (candidate_space, modeled_tile_total,
                                     sketch_tiles)

        tile = TuningFamily(
            family="tile",
            default_overrides=TileParams,
            decode_overrides=TileParams.from_dict,
            candidates=candidate_space,
            score=lambda sketch, spec, precision, candidates: [
                modeled_tile_total(sketch, spec, precision, ov)
                for ov in candidates],
            algorithm=lambda ov: TileSpGEMM(params=ov),
            sketch=sketch_tiles,
        )
        return super().tuning_families(spec) + (tile,)

    # -- presentation ---------------------------------------------------------

    def render_info(self, spec: DeviceSpec) -> str:
        from repro.core.params import build_group_table

        lines = [
            f"device: {spec.name} [{self.name}]",
            f"  SMs: {spec.sm_count} x {spec.cores_per_sm} cores "
            f"@ {spec.clock_ghz} GHz",
            f"  shared memory: {spec.shared_mem_per_sm // 1024} KB/SM "
            f"(max {spec.max_shared_per_block // 1024} KB/block)",
            f"  memory: {spec.global_mem_bytes / 1024 ** 3:.0f} GB @ "
            f"{spec.mem_bandwidth_gbps:.0f} GB/s",
            "",
            build_group_table(spec).render(),
        ]
        return "\n".join(lines)


#: The singleton instance :mod:`repro.backend` registers.
GPU_BACKEND = GPUBackend()
