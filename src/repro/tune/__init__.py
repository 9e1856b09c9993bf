"""Cost-model autotuner for the proposal's Table I parameter space.

The paper fixes its kernel parameters for the P100 (Section III-D);
other devices -- and skewed matrices -- can prefer different boundaries.
This package searches the construction inputs of
:func:`repro.core.params.build_group_table` (``t_max``, PWARP width and
boundary, the TB block-size ladder) using the repo's own modeled cost
machinery as the objective:

* :mod:`repro.tune.sketch` -- a cheap structural summary of ``A @ B``
  (log2-bucketed row histograms) that seeds the search and keys the
  tuning store;
* :mod:`repro.tune.tuner` -- the search itself: every candidate is
  scored analytically on the sketch, the best few are measured with real
  multiplies, and the winner is validated bit-identically against the
  reference oracle (falling back to the paper's defaults when nothing
  beats them);
* :mod:`repro.tune.store` -- a persistent JSON store of tuned configs
  keyed by ``(device, precision, sketch digest)``;
* :mod:`repro.tune.tuned` -- :class:`TunedSpGEMM`, the wrapper behind
  ``SpGEMMOptions(tune=True)``: it tunes, injects the winning
  :class:`~repro.core.params.ParamOverrides` into the inner algorithm
  and annotates the run report with ``tune_*`` events.
"""

from repro.tune.sketch import MatrixSketch, sketch_matrix
from repro.tune.store import STORE_SCHEMA, TuningStore
from repro.tune.tuned import TunedSpGEMM
from repro.tune.tuner import (Autotuner, TuneResult, candidate_space,
                              modeled_total, score_candidates)

__all__ = [
    "Autotuner",
    "MatrixSketch",
    "STORE_SCHEMA",
    "TuneResult",
    "TunedSpGEMM",
    "TuningStore",
    "candidate_space",
    "modeled_total",
    "score_candidates",
    "sketch_matrix",
]
