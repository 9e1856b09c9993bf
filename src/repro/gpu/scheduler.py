"""Discrete-event simulation of thread-block dispatch onto SMs.

This is where load balance -- the central concern of the paper -- comes
from.  Each kernel is a bag of blocks with individual durations (from
:mod:`repro.gpu.cost`).  Blocks are dispatched FIFO onto any SM with free
resources (threads, shared memory, block slots), mirroring the GPU's
hardware work distributor.  A single 4700-nnz webbase row therefore holds
one SM hostage while the rest drain, exactly the pathology the paper's
grouping fixes.

Stream semantics follow CUDA: kernels on the same stream serialize in
issue order; kernels on different streams co-schedule whenever SM
resources allow.  Passing ``use_streams=False`` forces serialization --
that switch is the paper's Section IV-C stream ablation (x1.3 on Circuit).
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.errors import HashTableError, SchedulerError
from repro.gpu.cost import block_durations
from repro.gpu.device import DeviceSpec
from repro.gpu.faults import FaultPlan
from repro.gpu.kernel import KernelLaunch
from repro.gpu.occupancy import occupancy_for
from repro.gpu.timeline import KernelRecord
from repro.sparse import native
from repro.types import Precision

#: Hard cap on simulated events, as a runaway guard (not a tuning knob).
MAX_EVENTS = 20_000_000

#: Retained phase schedules.  Iterative workloads re-simulate identical
#: kernel sets at identical clock offsets every iteration; the memo turns
#: those repeats into a dict lookup.  256 entries cover the bench suites'
#: working sets with room to spare (each entry is a handful of records).
_memo: perf.Memo[bytes, tuple[float, tuple[KernelRecord, ...]]] = perf.Memo(
    256, process_wide=True)


def _phase_key(kernels: list[KernelLaunch], device: DeviceSpec,
               precision: Precision, start_time: float,
               use_streams: bool) -> bytes:
    """Content digest of everything the simulation is a function of.

    The schedule depends on the device's *full* resource model (not just
    its name -- tests run modified presets under the same name), the
    precision, the stream switch, the start time (timestamps are stored
    absolute, so a hit reproduces them bit-for-bit) and, per kernel, the
    launch configuration plus the seven work columns that determine the
    block durations.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(device.key_bytes)
    h.update(precision.value.encode())
    h.update(b"s" if use_streams else b"n")
    h.update(np.float64(start_time).tobytes())
    for k in kernels:
        h.update(k.work_digest())
    return h.digest()


@dataclass
class PhaseSchedule:
    """Result of simulating one phase (a set of kernel launches)."""

    start: float
    end: float
    records: list[KernelRecord]

    @property
    def duration(self) -> float:
        """Phase wall-clock span in seconds."""
        return self.end - self.start


def simulate_phase(kernels: list[KernelLaunch], device: DeviceSpec,
                   precision: Precision | str, *, start_time: float = 0.0,
                   use_streams: bool = True,
                   faults: FaultPlan | None = None) -> PhaseSchedule:
    """Simulate the concurrent execution of ``kernels`` on ``device``.

    Kernels are issued host-side in list order, each issue costing
    ``kernel_launch_us``; a kernel becomes *ready* when its issue has
    happened and its stream predecessor (if any) has finished.  Returns the
    phase schedule with one :class:`KernelRecord` per launch.

    A :class:`~repro.gpu.faults.FaultPlan` may inject a hash-table-full
    event at launch time -- the model of a global retry table overflowing
    mid-kernel, surfaced host-side as :class:`HashTableError`.

    The simulation is a pure function of (kernels, device, precision,
    stream switch, start time), so fault-free phases are memoized by a
    content digest of exactly those inputs: iterative workloads replay
    identical kernel sets at identical clock offsets every iteration,
    and a hit returns bit-identical records (stored with absolute
    timestamps) without re-running the event loop.  Fault plans always
    simulate live (``check_kernel`` is stateful), and
    ``REPRO_SCALAR_CORE=1`` disables the memo outright.  A live
    simulation's event loop runs in the native kernel when it is built
    (:func:`_run_events`).
    """
    if not kernels:
        return PhaseSchedule(start=start_time, end=start_time, records=[])

    if faults is not None:
        for k in kernels:
            event = faults.check_kernel(k.name)
            if event is not None:
                raise HashTableError(
                    f"hash table full in kernel {k.name!r} "
                    f"(injected: {event.rule})")

    p = Precision.parse(precision)
    key: bytes | None = None
    if faults is None and not perf.scalar_core_enabled():
        key = _phase_key(kernels, device, p, start_time, use_streams)
        hit = _memo.get(key)
        if hit is not None:
            end, records = hit
            return PhaseSchedule(start=start_time, end=end,
                                 records=[dataclasses.replace(r)
                                          for r in records])
    durations = [block_durations(k, device, p) for k in kernels]
    # resource footprint of one block on an SM
    threads = [occupancy_for(device, k.block_threads,
                             k.shared_bytes_per_block).warps_per_block
               * device.warp_size for k in kernels]
    shared = [k.shared_bytes_per_block for k in kernels]
    streams = [k.stream if use_streams else 0 for k in kernels]
    # stream predecessor chains (all on one stream when streams disabled)
    prev_on_stream: dict[int, int] = {}
    predecessor = [-1] * len(kernels)
    for i, stream in enumerate(streams):
        predecessor[i] = prev_on_stream.get(stream, -1)
        prev_on_stream[stream] = i
    issue_gap = device.kernel_launch_us * 1e-6
    issue = [start_time + (i + 1) * issue_gap for i in range(len(kernels))]

    first_start, _, finish = _run_events(durations, threads, shared,
                                         predecessor, issue, device)
    records = [KernelRecord(name=k.name, phase=k.phase, stream=stream,
                            start=float(first_start[i]),
                            end=float(finish[i]),
                            n_blocks=k.n_blocks,
                            block_seconds=float(durations[i].sum()))
               for i, (k, stream) in enumerate(zip(kernels, streams))]
    end = max(r.end for r in records)
    if key is not None:
        _memo.put(key, (end, tuple(dataclasses.replace(r) for r in records)))
    return PhaseSchedule(start=start_time, end=end, records=records)


def _run_events(durations: list[np.ndarray], threads: list[int],
                shared: list[int], predecessor: list[int],
                issue: list[float],
                device: DeviceSpec) -> tuple[list, list, list]:
    """The phase's event loop: the native kernel
    (:func:`repro.sparse.native.schedule_phase`) when it is built and the
    vectorized core is on, else :func:`_event_loop`.  Both give
    bit-identical times and raise the same :class:`SchedulerError`s."""
    if not perf.scalar_core_enabled():
        ran = native.schedule_phase(durations, threads, shared, predecessor,
                                    issue, device, MAX_EVENTS)
        if ran is not None:
            rc, times = ran
            if rc == 0:
                return times
            if rc == native.SCHEDULE_BUDGET:
                raise SchedulerError(_BUDGET_MSG)
            if rc == native.SCHEDULE_DEADLOCK:
                raise SchedulerError(_deadlock_msg(
                    sum(map(math.isnan, times[2]))))    # NaN: unfinished
            raise MemoryError("scheduler kernel: scratch allocation failed")
    return _event_loop(durations, threads, shared, predecessor, issue,
                       device)


_BUDGET_MSG = "event budget exceeded; runaway simulation"


def _deadlock_msg(unfinished: int) -> str:
    return f"{unfinished} kernels never completed (dispatch deadlock)"


def _event_loop(durations: list[np.ndarray], threads: list[int],
                shared: list[int], predecessor: list[int],
                issue: list[float],
                device: DeviceSpec) -> tuple[list, list, list]:
    """Dispatch every kernel's blocks FIFO onto the SMs, event by event.

    Kernel ``i`` has blocks of ``durations[i]`` seconds, each holding
    ``threads[i]`` threads and ``shared[i]`` bytes of shared memory; it
    becomes ready at ``issue[i]`` or, with a stream predecessor
    (``predecessor[i] >= 0``), when that finishes, whichever is later.
    Returns per-kernel ``(first_start, ready_at, finish)`` times.  The
    reference of the native kernel, run without a compiler and under
    ``REPRO_SCALAR_CORE=1``.
    """
    n = len(durations)
    n_blocks = [len(d) for d in durations]
    next_block = [0] * n
    done = [0] * n
    first_start: list[float | None] = [None] * n
    ready_at: list[float | None] = [None] * n
    finish: list[float | None] = [None] * n

    # per-SM free resources
    threads_free = [device.max_threads_per_sm] * device.sm_count
    shared_free = [device.shared_mem_per_sm] * device.sm_count
    blocks_free = [device.max_blocks_per_sm] * device.sm_count

    heap: list[tuple[float, int, int, int, int, int]] = []
    seq = 0
    # event tuples: (time, seq, kind, kernel_idx, sm, threads) where kind
    # 0 = kernel becomes ready, 1 = block completion
    for i in range(n):
        if predecessor[i] < 0:
            heapq.heappush(heap, (issue[i], seq, 0, i, -1, 0))
            seq += 1

    n_events = 0
    finished = 0
    # indices of ready kernels with blocks left, kept sorted (FIFO by
    # issue order) via insort -- no per-insert sort, no O(n) removals
    ready: list[int] = []

    all_sms = range(device.sm_count)

    def try_dispatch(now: float, sms=None) -> None:
        nonlocal seq
        scan = all_sms if sms is None else sms
        still_ready = []
        for idx in ready:
            thr, shm, durs = threads[idx], shared[idx], durations[idx]
            for sm in scan:
                if next_block[idx] >= n_blocks[idx]:
                    break
                fit_t = threads_free[sm] // thr
                fit_b = blocks_free[sm]
                fit_s = (shared_free[sm] // shm) if shm > 0 else fit_b
                n_fit = min(fit_t, fit_b, fit_s,
                            n_blocks[idx] - next_block[idx])
                if n_fit <= 0:
                    continue
                threads_free[sm] -= n_fit * thr
                shared_free[sm] -= n_fit * shm
                blocks_free[sm] -= n_fit
                if first_start[idx] is None:
                    first_start[idx] = now
                for b in range(next_block[idx], next_block[idx] + n_fit):
                    heapq.heappush(
                        heap, (now + float(durs[b]), seq, 1, idx, sm, thr))
                    seq += 1
                next_block[idx] += n_fit
            if next_block[idx] < n_blocks[idx]:
                still_ready.append(idx)
        ready[:] = still_ready

    freed_sms: set[int] = set()
    new_ready = False
    while heap:
        n_events += 1
        if n_events > MAX_EVENTS:
            raise SchedulerError(_BUDGET_MSG)
        now, _, kind, k_idx, sm, thr = heapq.heappop(heap)
        if kind == 0:
            ready_at[k_idx] = now
            insort(ready, k_idx)
            new_ready = True
        else:
            threads_free[sm] += thr
            shared_free[sm] += shared[k_idx]
            blocks_free[sm] += 1
            freed_sms.add(sm)
            done[k_idx] += 1
            if done[k_idx] == n_blocks[k_idx]:
                finish[k_idx] = now
                finished += 1
                # wake stream successors
                for succ in range(n):
                    if predecessor[succ] == k_idx:
                        heapq.heappush(heap, (max(now, issue[succ]), seq, 0,
                                              succ, -1, 0))
                        seq += 1
        # coalesce simultaneous events before dispatching
        if heap and heap[0][0] == now:
            continue
        if ready and (new_ready or freed_sms):
            try_dispatch(now, None if new_ready else sorted(freed_sms))
        freed_sms.clear()
        new_ready = False

    if finished != n:
        raise SchedulerError(_deadlock_msg(n - finished))
    return first_start, ready_at, finish
