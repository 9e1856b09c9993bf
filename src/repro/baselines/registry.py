"""Name -> compute-algorithm registry behind :func:`repro.multiply`."""

from __future__ import annotations

from repro.base import SpGEMMAlgorithm
from repro.baselines.bhsparse import BHSparseSpGEMM
from repro.baselines.cusparse_like import CuSparseSpGEMM
from repro.baselines.esc import ESCSpGEMM
from repro.core.spgemm import HashSpGEMM
from repro.cpu.algorithms import HashCPUSpGEMM, HeapCPUSpGEMM, PropBlockSpGEMM
from repro.errors import UnknownAlgorithmError
from repro.tile.algorithm import TileSpGEMM

#: All compute algorithms, keyed by their benchmark-table names.  The
#: wrappers (engine, resilience ladder, device pool, tuner) are not
#: algorithms: they compose from :class:`~repro.options.SpGEMMOptions`
#: fields.  Benchmark sweeps over "the four algorithms" should use
#: DISPLAY_ORDER.  The 'hash-cpu' / 'heap-cpu' / 'propblock' entries
#: are the multicore CPU baselines (Nagasaka et al. and Gu et al.); they
#: run on :class:`~repro.cpu.device.CPUSpec` presets and are excluded
#: from the GPU benchmark tables.  'tile' is the TileSpGEMM-style 2-D
#: tiled family (Niu et al.): GPU-native, no global atomics, at home on
#: structured/blocked patterns -- the E22 crossover study's counterpart
#: to the proposal.
ALGORITHMS: dict[str, type[SpGEMMAlgorithm]] = {
    "proposal": HashSpGEMM,
    "cusparse": CuSparseSpGEMM,
    "cusp": ESCSpGEMM,
    "bhsparse": BHSparseSpGEMM,
    "tile": TileSpGEMM,
    "hash-cpu": HashCPUSpGEMM,
    "heap-cpu": HeapCPUSpGEMM,
    "propblock": PropBlockSpGEMM,
}

#: Display order used by the benchmark tables (matches the paper's figures).
DISPLAY_ORDER = ("cusp", "cusparse", "bhsparse", "proposal")

#: CPU-backend algorithms, in benchmark display order.
CPU_DISPLAY_ORDER = ("heap-cpu", "hash-cpu", "propblock")


def create(name: str, **options) -> SpGEMMAlgorithm:
    """Instantiate an algorithm by registry name.

    Raises :class:`~repro.errors.UnknownAlgorithmError` (listing the
    registered names) for unknown names; keyword options are forwarded to
    the algorithm constructor (the proposal's ablation switches, a
    :class:`~repro.core.params.ParamOverrides` via ``overrides=``).
    """
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise UnknownAlgorithmError(name, ALGORITHMS) from None
    return cls(**options)
