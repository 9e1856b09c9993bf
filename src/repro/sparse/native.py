"""The native kernels, built on first use into one shared library.

Three C sources sit next to this module, each the compiled half of a
host hot loop whose Python or numpy formulation stays as the
no-compiler fallback and the test oracle:

* ``sort_recipe.c`` -- :func:`sort_recipe`, the per-row sort recipe of
  :func:`repro.sparse.expansion.build_sort_recipe`;
* ``schedule.c`` -- :func:`schedule_phase`, the block-dispatch event
  loop of :func:`repro.gpu.scheduler.simulate_phase`;
* ``tiling.c`` -- :func:`tile_csr`, the CSR to tile conversion of
  :meth:`repro.tile.format.TiledCSR.from_csr`.

Nothing here runs at import.  The first call compiles every source
with the system compiler (``cc``, ``gcc`` or ``clang`` on ``PATH``)
into one library in a per-user cache directory, keyed by a hash of
all the sources, the compiler and its flags, and loads it with
:mod:`ctypes`.  The library is compiled into a temporary file and moved
into place with :func:`os.replace`, so processes building at once never
load a half-written file.  The cache directory must belong to the user
and is made private (0700); otherwise, and whenever there is no
compiler or the build fails, :func:`kernel` is ``None`` and every
caller uses its Python path.  The kernels keep no static state and
ctypes releases the interpreter lock around each call, so server
workers run them in parallel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.types import INDEX_DTYPE

_HERE = Path(__file__).parent
_SOURCES = tuple(_HERE / name
                 for name in ("sort_recipe.c", "schedule.c", "tiling.c"))
_HEADERS = (_HERE / "sort_keys.h",)
_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")

_IDX = ctypes.POINTER(ctypes.c_int64)
_F64 = ctypes.POINTER(ctypes.c_double)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.c_int64

#: Every exported function with its argument types (all return ``int``).
ENTRY_POINTS: dict[str, list] = {
    "recipe_count": [_I64, _I64, _IDX, _IDX, _IDX, _IDX, _IDX, _IDX],
    "recipe_fill": [_I64, _I64, _IDX, _IDX, _IDX, _IDX, _IDX,
                    _IDX, _IDX, _IDX, _IDX],
    "schedule_phase": [_I64, _IDX, _F64, _IDX, _IDX, _IDX, _F64,
                       _I64, _I64, _I64, _I64, _I64, _F64, _F64, _F64],
    "tile_count": [_I64, _I64, _I64, _I64, _I64, _I64, _IDX, _IDX, _IDX],
    "tile_fill": [_I64, _I64, _I64, _I64, _I64, _IDX, _IDX, _IDX, _IDX,
                  _IDX, _U64, _U64, _U8, _U8, _IDX],
}

#: ``schedule_phase`` return codes besides 0 (done) and -1 (scratch
#: allocation failed): the event budget ran out; the event queue drained
#: with a kernel unfinished.
SCHEDULE_BUDGET, SCHEDULE_DEADLOCK = -2, -3

#: ``tile_count`` return code for a malformed CSR structure.
MALFORMED = -2


def compiler() -> str | None:
    """Path of the C compiler the kernels are built with, if any."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _cache_dirs() -> list[Path]:
    """Candidate build caches: the user cache, then a per-user temp dir."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return [Path(base) / "repro-native",
            Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"]


def _private_dir(path: Path) -> bool:
    """Create ``path`` if needed; True when it is ours and now 0700."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.lstat()
        if not path.is_dir() or path.is_symlink() or st.st_uid != os.getuid():
            return False
        if st.st_mode & 0o077:
            path.chmod(0o700)
        return True
    except OSError:
        return False


def _build(cc: str, lib: Path) -> bool:
    """Compile every source into ``lib`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *_FLAGS, "-o", tmp, *map(str, _SOURCES)],
                              capture_output=True, timeout=120)
        if done.returncode != 0:
            return False
        os.replace(tmp, lib)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def kernel() -> ctypes.CDLL | None:
    """The loaded kernel library, or None (no compiler, failed build)."""
    cc = compiler()
    if cc is None:
        return None
    h = hashlib.sha256()
    for path in (*_SOURCES, *_HEADERS):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    h.update(" ".join((cc, *_FLAGS, sys.platform)).encode())
    name = f"native-{h.hexdigest()[:16]}.so"
    for d in _cache_dirs():
        if not _private_dir(d):
            continue
        lib = d / name
        if not lib.exists() and not _build(cc, lib):
            continue
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for fn, argtypes in ENTRY_POINTS.items():
            entry = getattr(dll, fn)
            entry.argtypes = argtypes
            entry.restype = ctypes.c_int
        return dll
    return None


def _ptr(a: np.ndarray, kind=_IDX):
    return a.ctypes.data_as(kind)


def sort_recipe(A, B) -> tuple[np.ndarray, ...] | None:
    """``(a_idx, b_idx, starts, rpt, col, row_counts)`` of ``A @ B`` from
    the kernel, or None when it is unavailable.

    The operands must already be validated (see
    :func:`repro.sparse.expansion.check_multiplicable`): the kernel
    indexes through them unchecked.
    """
    dll = kernel()
    if dll is None:
        return None
    # CSRMatrix keeps its structure arrays contiguous int64; the kernel
    # relies on it, so hold it to that before passing pointers
    ops = [np.ascontiguousarray(a, dtype=INDEX_DTYPE)
           for a in (A.rpt, A.col, B.rpt, B.col)]
    n_rows, n_cols = A.n_rows, B.n_cols
    row_counts = np.empty(n_rows, dtype=INDEX_DTYPE)
    rpt = np.empty(n_rows + 1, dtype=INDEX_DTYPE)
    if dll.recipe_count(n_rows, n_cols, *map(_ptr, ops),
                        _ptr(row_counts), _ptr(rpt)) != 0:
        raise MemoryError("sort recipe kernel: scratch allocation failed")
    n_products = int(row_counts.sum())
    nnz = int(rpt[-1])
    a_idx = np.empty(n_products, dtype=INDEX_DTYPE)
    b_idx = np.empty(n_products, dtype=INDEX_DTYPE)
    starts = np.empty(nnz, dtype=INDEX_DTYPE)
    col = np.empty(nnz, dtype=INDEX_DTYPE)
    if dll.recipe_fill(n_rows, n_cols, *map(_ptr, ops), _ptr(rpt),
                       _ptr(a_idx), _ptr(b_idx), _ptr(starts),
                       _ptr(col)) != 0:
        raise MemoryError("sort recipe kernel: scratch allocation failed")
    return a_idx, b_idx, starts, rpt, col, row_counts


def schedule_phase(durations: list[np.ndarray], threads: list[int],
                   shared: list[int], predecessor: list[int],
                   issue: list[float], device,
                   max_events: int) -> tuple[int, tuple[list, ...]] | None:
    """Run the phase's event loop in the kernel, or None when unavailable.

    Takes what :func:`repro.gpu.scheduler._event_loop` takes (per-kernel
    block durations, per-block thread and shared-memory footprints,
    stream predecessor or -1, issue time) and returns the return code
    (0 or one of the ``SCHEDULE_*`` codes) with the per-kernel
    ``(first_start, ready_at, finish)`` lists, NaN where unset.  A
    non-positive thread footprint, which the kernel would divide by, is
    left to the Python loop as well.
    """
    dll = kernel()
    if dll is None or min(threads) <= 0:
        return None
    n = len(durations)
    block_off = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum([d.shape[0] for d in durations], out=block_off[1:])
    flat = np.ascontiguousarray(np.concatenate(durations), dtype=np.float64)
    ints = [np.asarray(a, dtype=INDEX_DTYPE)
            for a in (threads, shared, predecessor)]
    issue_at = np.asarray(issue, dtype=np.float64)
    out = [np.empty(n, dtype=np.float64) for _ in range(3)]
    rc = dll.schedule_phase(
        n, _ptr(block_off), _ptr(flat, _F64), *map(_ptr, ints),
        _ptr(issue_at, _F64), device.sm_count, device.max_threads_per_sm,
        device.shared_mem_per_sm, device.max_blocks_per_sm, max_events,
        *(_ptr(a, _F64) for a in out))
    return rc, tuple(a.tolist() for a in out)


def tile_csr(A, tile: int, tile_rows: int,
             tile_cols: int) -> tuple[np.ndarray, ...] | None:
    """``(tile_rpt, tile_col, tile_off, row_mask, col_mask, ent_row,
    ent_col, order)`` of ``A`` tiled ``tile x tile`` on a
    ``tile_rows x tile_cols`` grid, or None when the kernel is
    unavailable or ``A``'s structure is malformed (the numpy path then
    decides).  ``A.val[order]`` is the tiled value array.
    """
    dll = kernel()
    if dll is None:
        return None
    rpt = np.ascontiguousarray(A.rpt, dtype=INDEX_DTYPE)
    col = np.ascontiguousarray(A.col, dtype=INDEX_DTYPE)
    m, n = A.shape
    nnz = col.shape[0]
    if rpt.shape[0] != m + 1:
        return None
    tile_rpt = np.empty(tile_rows + 1, dtype=INDEX_DTYPE)
    rc = dll.tile_count(m, n, nnz, tile, tile_rows, tile_cols, _ptr(rpt),
                        _ptr(col), _ptr(tile_rpt))
    if rc == MALFORMED:
        return None
    if rc != 0:
        raise MemoryError("tiling kernel: scratch allocation failed")
    n_tiles = int(tile_rpt[-1])
    tile_col = np.empty(n_tiles, dtype=INDEX_DTYPE)
    tile_off = np.empty(n_tiles + 1, dtype=np.int64)
    row_mask = np.empty(n_tiles, dtype=np.uint64)
    col_mask = np.empty(n_tiles, dtype=np.uint64)
    ent_row = np.empty(nnz, dtype=np.uint8)
    ent_col = np.empty(nnz, dtype=np.uint8)
    order = np.empty(nnz, dtype=np.int64)
    if dll.tile_fill(m, nnz, tile, tile_rows, tile_cols, _ptr(rpt),
                     _ptr(col), _ptr(tile_rpt), _ptr(tile_col),
                     _ptr(tile_off), _ptr(row_mask, _U64),
                     _ptr(col_mask, _U64), _ptr(ent_row, _U8),
                     _ptr(ent_col, _U8), _ptr(order)) != 0:
        raise MemoryError("tiling kernel: scratch allocation failed")
    return tile_rpt, tile_col, tile_off, row_mask, col_mask, ent_row, \
        ent_col, order
