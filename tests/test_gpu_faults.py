"""Fault injection: FaultPlan rules, injected OOM/hash faults, and the
exception-safety guarantee (no simulated allocation survives an abort)."""

import pytest

from repro.baselines.registry import create
from repro.base import SpGEMMAlgorithm
from repro.errors import DeviceFreeError, DeviceMemoryError, HashTableError
from repro.gpu.device import P100
from repro.gpu.faults import FaultPlan
from repro.gpu.memory import DeviceMemory
from repro.sparse import generators
from repro.sparse.reference import spgemm_reference

#: The four paper algorithms (the sweep exercises each one's alloc sites).
ALGS = ("proposal", "cusparse", "cusp", "bhsparse")


@pytest.fixture
def matrices():
    """Two small squares with different routing: FEM-banded and scale-free."""
    return {
        "banded": generators.banded(120, 8, rng=0),
        "powerlaw": generators.power_law(150, 4.0, 40, rng=0),
    }


@pytest.fixture
def contexts(monkeypatch):
    """Spy on every RunContext any algorithm creates (for leak checks)."""
    created = []
    original = SpGEMMAlgorithm.context

    def spy(self, matrix_name, device, precision, faults=None):
        ctx = original(self, matrix_name, device, precision, faults)
        created.append(ctx)
        return ctx

    monkeypatch.setattr(SpGEMMAlgorithm, "context", spy)
    return created


class TestFaultPlanRules:
    def test_index_fault_is_one_shot(self):
        plan = FaultPlan().fail_alloc(index=1)
        assert plan.check_alloc("a", 10) is None
        event = plan.check_alloc("b", 10)
        assert event is not None and event.rule == "index==1"
        # the counter is global to the plan: a retry proceeds past index 1
        assert plan.check_alloc("b", 10) is None
        assert plan.n_fired == 1

    def test_name_rule_nth_and_times(self):
        plan = FaultPlan().fail_alloc(name="^buf", nth=2, times=2)
        assert plan.check_alloc("buf", 1) is None          # match #1: skipped
        assert plan.check_alloc("other", 1) is None        # no match
        assert plan.check_alloc("buf", 1) is not None      # match #2: fires
        assert plan.check_alloc("buf", 1) is not None      # still armed
        assert plan.check_alloc("buf", 1) is None          # times exhausted

    def test_name_rule_persistent(self):
        plan = FaultPlan().fail_alloc(name="C", times=None)
        for _ in range(5):
            assert plan.check_alloc("C", 1) is not None

    def test_limit_capacity(self):
        plan = FaultPlan().limit_capacity(factor=0.5)
        assert plan.effective_capacity(1000) == 500
        plan.limit_capacity(300)
        assert plan.effective_capacity(1000) == 300

    def test_random_failures_deterministic(self):
        fires = []
        for _ in range(2):
            plan = FaultPlan(seed=7).random_alloc_failures(0.5)
            fires.append([plan.check_alloc(f"a{i}", 1) is not None
                          for i in range(30)])
        assert fires[0] == fires[1]
        assert any(fires[0]) and not all(fires[0])

    def test_kernel_rule(self):
        plan = FaultPlan().fail_hash_table("symbolic")
        assert plan.check_kernel("numeric_tb_g0") is None
        event = plan.check_kernel("symbolic_pwarp_g1")
        assert event is not None and event.kind == "hash_table"
        assert plan.check_kernel("symbolic_pwarp_g1") is None   # one-shot


class TestInjectedMemoryFaults:
    def test_injected_alloc_raises_and_keeps_state(self):
        mem = DeviceMemory(P100, faults=FaultPlan().fail_alloc(index=1))
        mem.alloc("a", 100)
        with pytest.raises(DeviceMemoryError) as exc:
            mem.alloc("b", 50)
        assert exc.value.injected
        assert "injected" in str(exc.value)
        assert mem.in_use == 100 and mem.peak == 100

    def test_capacity_shrink_causes_genuine_oom(self):
        mem = DeviceMemory(P100.with_memory(1000),
                           faults=FaultPlan().limit_capacity(factor=0.5))
        with pytest.raises(DeviceMemoryError) as exc:
            mem.alloc("a", 600)
        assert not exc.value.injected
        assert exc.value.capacity == 500

    def test_oom_message_names_top_live_buffers(self):
        mem = DeviceMemory(P100.with_memory(1000))
        mem.alloc("big", 700)
        mem.alloc("small", 100)
        with pytest.raises(DeviceMemoryError) as exc:
            mem.alloc("c", 600)
        assert exc.value.live[0] == ("big", 700)
        assert "big=700 B" in str(exc.value)

    def test_bad_free_raises_device_free_error(self):
        mem = DeviceMemory(P100)
        a = mem.alloc("a", 10)
        mem.free(a)
        with pytest.raises(DeviceFreeError, match="double free"):
            mem.free(a)
        foreign = DeviceMemory(P100).alloc("x", 5)
        with pytest.raises(DeviceFreeError, match="not owned"):
            mem.free(foreign)
        assert issubclass(DeviceFreeError, DeviceMemoryError)


@pytest.mark.faults
class TestAbortSafety:
    def test_abort_releases_everything(self, matrices):
        A = matrices["banded"]
        with pytest.raises(DeviceMemoryError) as exc:
            create("proposal").multiply(
                A, A, faults=FaultPlan().fail_alloc(name="C"))
        e = exc.value
        assert e.run_context.memory.in_use == 0
        assert e.run_context.leaked_on_abort, \
            "abort path should report what would have leaked"
        assert not e.report.complete
        assert e.report.peak_bytes > 0

    def test_kernel_fault_raises_hash_table_error(self, matrices):
        A = matrices["powerlaw"]
        with pytest.raises(HashTableError, match="injected") as exc:
            create("proposal").multiply(
                A, A, faults=FaultPlan().fail_hash_table("symbolic"))
        assert exc.value.run_context.memory.in_use == 0


@pytest.mark.faults
@pytest.mark.parametrize("alg", ALGS)
@pytest.mark.parametrize("mat", ("banded", "powerlaw"))
def test_oom_sweep_every_alloc_site(alg, mat, matrices, contexts):
    """Inject an OOM at *every* allocation index of every algorithm.

    Each run must end in a clean injected DeviceMemoryError -- never a
    secondary exception -- and no context may leak a single simulated byte.
    """
    A = matrices[mat]
    clean = create(alg).multiply(A, A, matrix_name=mat)
    n_sites = clean.report.malloc_count
    assert n_sites > 0

    for idx in range(n_sites):
        plan = FaultPlan().fail_alloc(index=idx)
        with pytest.raises(DeviceMemoryError) as exc:
            create(alg).multiply(A, A, matrix_name=mat, faults=plan)
        assert exc.value.injected, f"{alg} site {idx}: fault did not fire"
        assert not exc.value.report.complete
        assert plan.n_fired == 1
    assert contexts, "context spy saw no runs"
    leaks = [(c.algorithm, c.memory.in_use) for c in contexts
             if c.memory.in_use != 0]
    assert leaks == [], f"leaked bytes after abort: {leaks}"


@pytest.mark.faults
@pytest.mark.parametrize("mat", ("banded", "powerlaw"))
def test_resilient_sweep_recovers_every_site(mat, matrices, contexts):
    """The ladder turns each injected single-site OOM into a correct result."""
    import repro

    A = matrices[mat]
    ref = spgemm_reference(A, A)
    n_sites = create("proposal").multiply(A, A).report.malloc_count

    for idx in range(n_sites):
        result = repro.multiply(A, A, resilient=True, matrix_name=mat,
                                faults=FaultPlan().fail_alloc(index=idx))
        assert result.resilience.recovered
        assert result.resilience.injected_faults == 1
        assert result.matrix.allclose(ref)
    leaks = [c for c in contexts if c.memory.in_use != 0]
    assert leaks == []
