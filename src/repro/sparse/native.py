"""The native sort-recipe kernel (``sort_recipe.c``), built on first use.

:func:`repro.sparse.expansion.build_sort_recipe` calls
:func:`sort_recipe`; nothing here runs at import.  The first call
compiles the C source with the system compiler (``cc``, ``gcc`` or
``clang`` on ``PATH``) into a per-user cache directory, keyed by a hash
of the source, the compiler and its flags, and loads it with
:mod:`ctypes`.  The library is compiled into a temporary file and moved
into place with :func:`os.replace`, so processes building at once never
load a half-written file.  The cache directory must belong to the user
and is made private (0700); otherwise, and whenever there is no
compiler or the build fails, :func:`kernel` is ``None`` and the caller
uses its numpy path.  ctypes releases the interpreter lock around the
calls, so server workers build recipes in parallel.
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

_SOURCE = Path(__file__).with_name("sort_recipe.c")
_FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
_COMPILERS = ("cc", "gcc", "clang")

_IDX = ctypes.POINTER(ctypes.c_int64)


def compiler() -> str | None:
    """Path of the C compiler the kernel is built with, if any."""
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
    """Compile the kernel to ``lib`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE)],
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
    h = hashlib.sha256(_SOURCE.read_bytes())
    h.update(" ".join((cc, *_FLAGS, sys.platform)).encode())
    name = f"sort_recipe-{h.hexdigest()[:16]}.so"
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
        dll.recipe_count.argtypes = [ctypes.c_int64, ctypes.c_int64,
                                     _IDX, _IDX, _IDX, _IDX, _IDX, _IDX]
        dll.recipe_count.restype = ctypes.c_int
        dll.recipe_fill.argtypes = [ctypes.c_int64, ctypes.c_int64,
                                    _IDX, _IDX, _IDX, _IDX, _IDX,
                                    _IDX, _IDX, _IDX, _IDX]
        dll.recipe_fill.restype = ctypes.c_int
        return dll
    return None


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_IDX)


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
