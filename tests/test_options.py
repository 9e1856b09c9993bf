"""The unified facade: SpGEMMOptions, repro.multiply and evolve().

Pins the API-redesign contract: the options path works for every
registered algorithm, the removed legacy entry points raise
:class:`RemovedAPIError` with a migration message, unknown option-field
names raise a typed :class:`OptionsError` naming the closest match, and
the facade composes engine / resilience / distribution / tuning the
same way the dedicated constructors do.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import SpGEMMOptions, multiply, runner_for
from repro.baselines.registry import ALGORITHMS
from repro.core.resilient import ResilientSpGEMM, resilient_spgemm
from repro.core.spgemm import HashSpGEMM, hash_spgemm
from repro.errors import OptionsError, RemovedAPIError
from repro.dist import DistSpGEMM
from repro.engine import SpGEMMEngine
from repro.errors import UnknownAlgorithmError
from repro.sparse import generators
from repro.tune.tuned import TunedSpGEMM
from tests.conftest import RUNS


@pytest.fixture(scope="module")
def A():
    return generators.power_law(300, 8, 60, rng=11)


def _same(r1, r2, rtol=1e-12):
    a, b = r1.matrix.canonicalize(), r2.matrix.canonicalize()
    assert np.array_equal(a.rpt, b.rpt)
    assert np.array_equal(a.col, b.col)
    np.testing.assert_allclose(a.val, b.val, rtol=rtol)


# -- the one entry point, per algorithm -------------------------------------

@pytest.mark.parametrize("name", sorted(RUNS))
def test_multiply_works_for_every_registered_algorithm(A, name):
    res = multiply(A, A, options=SpGEMMOptions(**RUNS[name]))
    assert res.matrix.nnz > 0
    assert res.report.total_seconds > 0.0


def test_option_fields_spelling_matches_options_object(A):
    _same(multiply(A, A, algorithm="cusparse", precision="single"),
          multiply(A, A, options=SpGEMMOptions(algorithm="cusparse",
                                               precision="single")))


def test_options_and_fields_together_is_an_error(A):
    with pytest.raises(TypeError, match="not both"):
        multiply(A, A, options=SpGEMMOptions(), algorithm="cusp")


# -- removed legacy entry points --------------------------------------------

def test_spgemm_raises_removed_api_error(A):
    with pytest.raises(RemovedAPIError, match="repro.multiply"):
        repro.spgemm(A, A)
    with pytest.raises(RemovedAPIError):
        repro.spgemm(A, A, options=SpGEMMOptions(algorithm="cusparse"))


def test_hash_spgemm_raises_removed_api_error(A):
    with pytest.raises(RemovedAPIError, match="repro.multiply") as ei:
        hash_spgemm(A, A)
    assert ei.value.name == "hash_spgemm()"
    assert "HashSpGEMM" in ei.value.replacement


def test_resilient_spgemm_raises_removed_api_error(A):
    with pytest.raises(RemovedAPIError, match="resilient=True"):
        resilient_spgemm(A, A)


@pytest.mark.parametrize("name, field", [
    ("resilient", "resilient=True"), ("engine", "engine=True"),
    ("dist", "devices="), ("tune", "tune=True"),
])
def test_wrapper_algorithm_names_raise_removed_api_error(A, name, field):
    for call in (lambda: SpGEMMOptions(algorithm=name),
                 lambda: multiply(A, A, algorithm=name),
                 lambda: SpGEMMOptions().evolve(algorithm=name)):
        with pytest.raises(RemovedAPIError) as ei:
            call()
        assert ei.value.name == f"algorithm={name!r}"
        assert field in ei.value.replacement
    assert name not in ALGORITHMS


def test_removed_api_message_names_a_readme_section(A):
    with pytest.raises(RemovedAPIError) as ei:
        repro.spgemm(A, A)
    section = re.search(r"the '(.+)' section of README.md",
                        str(ei.value)).group(1)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert f"\n## {section}\n" in readme.read_text(encoding="utf-8")


# -- evolve + typed option errors -------------------------------------------

def test_evolve_replaces_and_revalidates():
    o = SpGEMMOptions()
    o2 = o.evolve(algorithm="cusp", symbolic="estimate")
    assert o2.algorithm == "cusp" and o2.symbolic == "estimate"
    assert o.algorithm == "proposal" and o.symbolic == "exact"
    # evolve re-runs __post_init__ normalization
    o3 = o.evolve(precision="single", devices=["P100", "K40"])
    assert o3.precision is repro.Precision.SINGLE
    assert o3.devices == ("P100", "K40")


def test_evolve_unknown_field_raises_options_error():
    with pytest.raises(OptionsError, match="symbolic") as ei:
        SpGEMMOptions().evolve(symblic="estimate")
    assert ei.value.unknown == ("symblic",)
    assert ei.value.suggestions == ("symbolic",)
    assert "algorithm" in ei.value.valid


def test_multiply_unknown_field_raises_options_error(A):
    with pytest.raises(OptionsError, match="algorithm"):
        multiply(A, A, algoritm="cusparse")


def test_invalid_symbolic_mode_raises_options_error():
    with pytest.raises(OptionsError, match="symbolic"):
        SpGEMMOptions(symbolic="guess")


def test_estimate_on_neutral_baseline_raises_options_error(A):
    with pytest.raises(OptionsError, match="cusp"):
        multiply(A, A, algorithm="cusp", symbolic="estimate")


# -- runner composition -----------------------------------------------------

def test_runner_for_plain_algorithm():
    assert isinstance(runner_for(SpGEMMOptions()), HashSpGEMM)


def test_runner_for_engine_wrap():
    r = runner_for(SpGEMMOptions(engine=True))
    assert isinstance(r, SpGEMMEngine)
    assert isinstance(r.inner, HashSpGEMM)


def test_runner_for_resilient_keeps_chosen_algorithm_first():
    r = runner_for(SpGEMMOptions(algorithm="cusp", resilient=True))
    assert isinstance(r, ResilientSpGEMM)
    assert r.algorithms[0] == "cusp"


def test_runner_for_memory_budget_implies_resilient():
    r = runner_for(SpGEMMOptions(memory_budget=1 << 20))
    assert isinstance(r, ResilientSpGEMM)
    assert r.memory_budget == 1 << 20


def test_runner_for_devices_builds_dist():
    r = runner_for(SpGEMMOptions(devices=2))
    assert isinstance(r, DistSpGEMM)
    hetero = runner_for(SpGEMMOptions(devices=("P100", "K40")))
    assert isinstance(hetero, DistSpGEMM)
    assert len(hetero.pool().slots) == 2


def test_runner_for_tune_wraps():
    r = runner_for(SpGEMMOptions(tune=True))
    assert isinstance(r, TunedSpGEMM)
    assert isinstance(r.inner, HashSpGEMM)
    r2 = runner_for(SpGEMMOptions(tune=True, engine=True))
    assert isinstance(r2, TunedSpGEMM)
    assert isinstance(r2.inner, SpGEMMEngine)


def test_options_normalizes_precision_and_devices():
    o = SpGEMMOptions(precision="single", devices=["P100", "K40"])
    assert o.precision is repro.Precision.SINGLE
    assert o.devices == ("P100", "K40")


def test_options_frozen_and_with_options():
    o = SpGEMMOptions()
    with pytest.raises(AttributeError):
        o.algorithm = "cusp"
    o2 = o.evolve(algorithm="cusp")
    assert o2.algorithm == "cusp" and o.algorithm == "proposal"
    assert "cusp" in o2.describe() and o.describe() == "default"
    # evolve is the one spelling; its old alias is gone
    assert not hasattr(o, "with_options")


def test_dispatch_accepts_options(A):
    from repro.apps._dispatch import multiply as app_multiply

    res = app_multiply(A, A, options=SpGEMMOptions(algorithm="cusparse"))
    assert res.report.algorithm == "cusparse"
    _same(res, multiply(A, A, options=SpGEMMOptions(algorithm="cusparse")))


def test_engine_and_dist_multiply_accept_options(A):
    o = SpGEMMOptions(precision="single")
    eng = SpGEMMEngine()
    assert eng.multiply(A, A, options=o).report.precision == "single"
    dist = DistSpGEMM(n_devices=2)
    assert dist.multiply(A, A, options=o).report.precision == "single"


# -- typed registry errors --------------------------------------------------

def test_unknown_algorithm_error_lists_names():
    from repro.baselines.registry import create

    with pytest.raises(UnknownAlgorithmError) as ei:
        create("nope")
    assert ei.value.name == "nope"
    assert set(ei.value.available) == set(ALGORITHMS)
    assert "proposal" in str(ei.value)


def test_multiply_raises_unknown_algorithm(A):
    with pytest.raises(UnknownAlgorithmError):
        multiply(A, A, options=SpGEMMOptions(algorithm="nope"))
