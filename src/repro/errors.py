"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The GPU
simulator raises :class:`DeviceMemoryError` where a real CUDA run would
return ``cudaErrorMemoryAllocation`` -- the Table III experiments rely on
catching it to report the "-" (out of memory) entries of the paper.

The taxonomy::

    ReproError
    ├── SparseFormatError          structurally invalid CSR/COO container
    ├── ShapeMismatchError         incompatible operand shapes
    ├── DeviceMemoryError          simulated cudaErrorMemoryAllocation
    │   └── DeviceFreeError        double free / unknown allocation
    ├── DeviceConfigError          infeasible launch configuration
    │   └── UnknownDeviceError     device-preset lookup of an unknown name
    ├── DeviceLostError            a pool device died (or the pool emptied)
    ├── SchedulerError             kernel-scheduler invariant violation
    ├── HashTableError             hash-table overflow inside a kernel
    ├── AlgorithmError             algorithm selection / wiring
    │   ├── UnknownAlgorithmError  registry lookup of an unknown name
    │   └── PlanMismatchError      cached plan no longer matches operands
    ├── OptionsError               invalid SpGEMMOptions field or value
    ├── RemovedAPIError            call into a removed legacy entry point
    └── ServeError                 serving-layer rejections (repro.serve)
        ├── ServerOverloadedError  bounded queue full -- load shed
        ├── JobTimeoutError        deadline expired before completion
        └── CircuitOpenError       tenant breaker open -- rejected fast

The three :class:`ServeError` leaves are the acceptance taxonomy of the
serving layer: every job a :class:`~repro.serve.SpGEMMServer` accepts
either completes bit-identical to a direct multiply or resolves with
exactly one of these (or the run error itself); nothing is dropped
silently.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SparseFormatError(ReproError):
    """A sparse matrix container is structurally invalid.

    Raised by :func:`repro.sparse.validate.validate_csr` and by the CSR/COO
    constructors when ``check=True``: non-monotone row pointers, column
    indices out of range, dtype mismatches, shape inconsistencies.
    """


class ShapeMismatchError(ReproError):
    """Operand shapes are incompatible (e.g. ``A.n_cols != B.n_rows``)."""


class DeviceMemoryError(ReproError):
    """A simulated device allocation exceeded the device memory capacity.

    Mirrors ``cudaErrorMemoryAllocation``.  Carries the attempted size,
    the allocator state at failure time, the largest live allocations
    (``live``, rendered into the message so OOM reports name the buffers
    actually holding the memory), and whether the failure was injected by
    a :class:`repro.gpu.faults.FaultPlan` rather than a genuine capacity
    overrun.
    """

    def __init__(self, message: str, *, requested: int = 0, in_use: int = 0,
                 capacity: int = 0, live: tuple = (),
                 injected: bool = False) -> None:
        self.live = tuple((str(n), int(b)) for n, b in live)
        if self.live:
            message += ("; live: "
                        + ", ".join(f"{n}={b:,} B" for n, b in self.live))
        if injected:
            message += " [injected fault]"
        super().__init__(message)
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        self.injected = bool(injected)


class DeviceFreeError(DeviceMemoryError):
    """An invalid ``cudaFree``: double free or an allocation unknown to the
    allocator.  Carries the allocator state like its OOM sibling."""


class DeviceLostError(ReproError):
    """A device of a multi-GPU pool dropped out mid-run.

    Mirrors ``cudaErrorDeviceUnavailable`` / a failed peer: raised when a
    :class:`repro.gpu.faults.FaultPlan` device-loss rule fires while
    :class:`repro.dist.DistSpGEMM` dispatches a panel.  Carries the pool
    slot that died; the distributed driver absorbs it by repartitioning
    the surviving devices, and only propagates when the pool is empty.
    """

    def __init__(self, message: str, *, device_id: str = "",
                 injected: bool = False) -> None:
        if injected:
            message += " [injected fault]"
        super().__init__(message)
        self.device_id = str(device_id)
        self.injected = bool(injected)


class DeviceConfigError(ReproError):
    """A kernel launch or device specification is invalid.

    Examples: thread block larger than ``max_threads_per_block``, shared
    memory request above ``max_shared_per_block``, zero-SM device.
    """


class UnknownDeviceError(DeviceConfigError):
    """A device lookup named a preset no backend registered.

    Carries the requested ``name``, the tuple of ``available`` preset
    names and the tuple of registered ``backends``, and renders all of
    them into the message so a ``--device`` typo is self-explanatory.
    """

    def __init__(self, name: str, available: tuple = (),
                 backends: tuple = ()) -> None:
        self.name = str(name)
        self.available = tuple(sorted(available))
        self.backends = tuple(sorted(backends))
        message = (f"unknown device preset {self.name!r} "
                   f"(expected one of {list(self.available)}")
        if self.backends:
            message += f"; registered backends: {list(self.backends)}"
        message += ")"
        super().__init__(message)


class SchedulerError(ReproError):
    """Internal inconsistency in the discrete-event block scheduler."""


class HashTableError(ReproError):
    """A hash-table operation failed (table full, invalid key, bad size)."""


class AlgorithmError(ReproError):
    """An SpGEMM algorithm was mis-configured or hit an internal invariant."""


class UnknownAlgorithmError(AlgorithmError):
    """A registry lookup named an algorithm that is not registered.

    Carries the requested ``name`` and the tuple of ``available`` registry
    names, and renders both into the message so a CLI typo is
    self-explanatory.
    """

    def __init__(self, name: str, available=()) -> None:
        self.name = str(name)
        self.available = tuple(sorted(available))
        super().__init__(
            f"unknown algorithm {self.name!r}; available: "
            f"{list(self.available)}")


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer.

    Every serving-side rejection is a subclass, so a tenant can catch
    the whole family with one ``except ServeError`` while the three
    concrete outcomes stay distinguishable (the acceptance taxonomy:
    overload, deadline, breaker).
    """


class ServerOverloadedError(ServeError):
    """The server's bounded queue is full: load was shed at admission.

    Carries the tenant, the queue depth at rejection time and the
    configured bound, so a client can implement its own backpressure
    (and the chaos harness can assert the bound is actually enforced).
    """

    def __init__(self, message: str, *, tenant: str = "",
                 queue_depth: int = 0, max_queue_depth: int = 0) -> None:
        super().__init__(message)
        self.tenant = str(tenant)
        self.queue_depth = int(queue_depth)
        self.max_queue_depth = int(max_queue_depth)


class JobTimeoutError(ServeError):
    """A served job's deadline expired before it could complete.

    Raised through the job's future when the deadline passes while the
    job is queued or between retry attempts (running work is never
    preempted -- the simulator has no cancellation points).  Carries the
    tenant, the deadline and how long the job actually waited.
    """

    def __init__(self, message: str, *, tenant: str = "",
                 deadline_s: float = 0.0, waited_s: float = 0.0) -> None:
        super().__init__(message)
        self.tenant = str(tenant)
        self.deadline_s = float(deadline_s)
        self.waited_s = float(waited_s)


class CircuitOpenError(ServeError):
    """A tenant's circuit breaker is open: the job was rejected fast.

    Raised at submission time when the tenant's recent jobs kept
    failing; carries the tenant and the seconds until the breaker next
    admits a half-open probe, so well-behaved clients can back off.
    """

    def __init__(self, message: str, *, tenant: str = "",
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.tenant = str(tenant)
        self.retry_after_s = float(retry_after_s)


class OptionsError(ReproError):
    """An :class:`repro.options.SpGEMMOptions` field or value is invalid.

    Raised by the options facade for unknown field names (a typo in
    ``repro.multiply(**option_fields)`` or ``SpGEMMOptions.evolve``) and
    for field values outside their domain (e.g. ``symbolic='guess'``).
    Carries the offending ``unknown`` names, the tuple of ``valid`` field
    names and the closest-match ``suggestions``, and renders all of them
    into the message so a keyword typo is self-explanatory.
    """

    def __init__(self, message: str, *, unknown: tuple = (),
                 valid: tuple = (), suggestions: tuple = ()) -> None:
        self.unknown = tuple(str(n) for n in unknown)
        self.valid = tuple(sorted(str(n) for n in valid))
        self.suggestions = tuple(str(n) for n in suggestions)
        if self.suggestions:
            message += ("; did you mean "
                        + " or ".join(repr(s) for s in self.suggestions)
                        + "?")
        if self.valid:
            message += f" (valid fields: {', '.join(self.valid)})"
        super().__init__(message)


class RemovedAPIError(ReproError):
    """A removed legacy entry point or spelling was used.

    The ``repro.spgemm`` / ``hash_spgemm`` / ``resilient_spgemm``
    functions were deprecation shims for two majors; they now raise this
    error instead of running, as do the wrapper names once accepted as
    ``SpGEMMOptions(algorithm=...)``.  Carries the removed ``name`` and
    the ``replacement`` to migrate to (always a :func:`repro.multiply` or
    :class:`~repro.options.SpGEMMOptions` spelling), rendered into the
    message.
    """

    def __init__(self, name: str, replacement: str) -> None:
        self.name = str(name)
        self.replacement = str(replacement)
        super().__init__(
            f"{self.name} was removed; migrate to {self.replacement} "
            f"(see the 'Public API' section of README.md)")


class PlanMismatchError(AlgorithmError):
    """A cached :class:`repro.engine.plan.SpGEMMPlan` no longer matches its
    operands: the sparsity pattern behind the cache key changed (in-place
    mutation of ``rpt``/``col``) or the plan was built under different
    switches.  The engine treats this as a miss and falls back to a cold
    run; it only propagates when replay is invoked directly."""
