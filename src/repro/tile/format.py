"""``TiledCSR`` -- the fixed-size 2-D tile intermediate format.

TileSpGEMM-style algorithms (Niu et al.; the pem-spgemm exemplar) do not
run on CSR directly: both operands are first converted into a grid of
``tile x tile`` squares, stored sparsely -- only nonempty tiles exist --
with CSR-of-tiles indexing on top:

* ``tile_rpt`` / ``tile_col`` index nonempty tiles by *tile row*, exactly
  like CSR's ``rpt`` / ``col`` index entries by row;
* ``tile_off`` gives each tile's slice of the entry arrays (monotone, the
  per-tile analogue of a row pointer);
* ``row_mask`` / ``col_mask`` are per-tile occupancy bitmaps (bit ``k``
  set when local row / column ``k`` holds an entry) -- the step-1
  matching and step-2 accumulator-selection inputs;
* ``ent_row`` / ``ent_col`` are tile-*local* coordinates (one byte each,
  the format's memory saving over CSR's 4-byte column indices), and
  entries within a tile are sorted row-major.

Conversion is lossless and order-canonical: ``from_csr`` followed by
:meth:`TiledCSR.to_csr` reproduces the input bit-identically (a pure
permutation of the entry arrays and its inverse).  The conversion *cost*
is charged to the modeled timeline by :mod:`repro.tile.plan`'s
conversion kernels, like pem-spgemm's ``csr2tile`` kernel set.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.errors import SparseFormatError
from repro.sparse import native
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import validate_csr
from repro.types import INDEX_DTYPE, Precision

#: Default tile edge (the paper-family sweet spot on Pascal-class SMs: a
#: 16x16 tile's dense accumulator fits comfortably in shared memory).
DEFAULT_TILE = 16

#: Largest supported tile edge (occupancy masks are uint64 bitmaps).
MAX_TILE = 64


class TiledCSR:
    """A sparse matrix partitioned into fixed-size 2-D tiles.

    Construct via :meth:`from_csr`; the raw constructor trusts its
    arrays (internal use and tests).
    """

    __slots__ = ("shape", "tile", "tile_rpt", "tile_row", "tile_col",
                 "tile_off", "row_mask", "col_mask", "ent_row", "ent_col",
                 "val")

    def __init__(self, shape: tuple[int, int], tile: int,
                 tile_rpt: np.ndarray, tile_col: np.ndarray,
                 tile_off: np.ndarray, row_mask: np.ndarray,
                 col_mask: np.ndarray, ent_row: np.ndarray,
                 ent_col: np.ndarray, val: np.ndarray) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.tile = int(tile)
        self.tile_rpt = tile_rpt
        #: tile-row index of each nonempty tile (expanded from tile_rpt)
        self.tile_row = np.repeat(
            np.arange(tile_rpt.shape[0] - 1, dtype=INDEX_DTYPE),
            np.diff(tile_rpt))
        self.tile_col = tile_col
        self.tile_off = tile_off
        self.row_mask = row_mask
        self.col_mask = col_mask
        self.ent_row = ent_row
        self.ent_col = ent_col
        self.val = val

    # -- basic properties ----------------------------------------------------

    @property
    def n_tiles(self) -> int:
        """Number of nonempty tiles."""
        return int(self.tile_col.shape[0])

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.val.shape[0])

    @property
    def tile_rows(self) -> int:
        """Grid height in tiles (``ceil(n_rows / tile)``)."""
        return int(self.tile_rpt.shape[0] - 1)

    @property
    def tile_cols(self) -> int:
        """Grid width in tiles (``ceil(n_cols / tile)``)."""
        return -(-self.shape[1] // self.tile)

    def tile_nnz(self) -> np.ndarray:
        """Entries per nonempty tile (``diff(tile_off)``)."""
        return np.diff(self.tile_off)

    def tiles_per_row(self) -> np.ndarray:
        """Nonempty tiles per tile row (``diff(tile_rpt)``)."""
        return np.diff(self.tile_rpt)

    def density(self) -> np.ndarray:
        """Per-tile fill fraction in ``(0, 1]``."""
        return self.tile_nnz() / float(self.tile * self.tile)

    # -- device accounting ---------------------------------------------------

    def device_bytes(self, precision: Precision | str | None = None) -> int:
        """Bytes of the tiled form on the simulated device.

        Tile index (4 B per pointer/column), per-tile offsets (4 B),
        two 8-byte occupancy masks per tile, then one byte per local
        coordinate pair component plus the value payload -- the format's
        entry footprint is ``2 + value_bytes`` against CSR's
        ``4 + value_bytes``.
        """
        if precision is None:
            p = (Precision.SINGLE if self.val.dtype == np.float32
                 else Precision.DOUBLE)
        else:
            p = Precision.parse(precision)
        return (4 * (self.tile_rows + 1)            # tile_rpt
                + 4 * self.n_tiles                  # tile_col
                + 4 * (self.n_tiles + 1)            # tile_off
                + 16 * self.n_tiles                 # row_mask + col_mask
                + (2 + p.value_bytes) * self.nnz)   # ent_row/ent_col/val

    # -- conversion ----------------------------------------------------------

    @classmethod
    def from_csr(cls, A: CSRMatrix, tile: int = DEFAULT_TILE) -> "TiledCSR":
        """Tile a CSR matrix (lossless; entries sorted row-major per tile).

        Band by band in the native kernel (:mod:`repro.sparse.native`)
        when it is built and the vectorized core is on; otherwise by one
        global ``lexsort`` (:meth:`_from_csr_numpy`, the oracle the
        kernel is tested against).  Both give equal arrays of equal
        dtypes.  A malformed structure (an unchecked ``A`` the kernel
        declines) raises :class:`~repro.errors.SparseFormatError`.
        """
        if not 2 <= tile <= MAX_TILE:
            raise SparseFormatError(
                f"tile size {tile} outside [2, {MAX_TILE}]")
        m, n = A.shape
        tile_rows = max(1, -(-m // tile))
        tile_cols = max(1, -(-n // tile))
        if not perf.scalar_core_enabled():
            arrays = native.tile_csr(A, tile, tile_rows, tile_cols)
            if arrays is not None:
                *index, order = arrays
                return cls((m, n), tile, *index, A.val[order])
        validate_csr(A)
        return cls._from_csr_numpy(A, tile)

    @classmethod
    def _from_csr_numpy(cls, A: CSRMatrix, tile: int) -> "TiledCSR":
        """:meth:`from_csr` by one stable ``lexsort`` of every entry."""
        m, n = A.shape
        tile_rows = max(1, -(-m // tile))
        tile_cols = max(1, -(-n // tile))
        rows = np.repeat(np.arange(m, dtype=np.int64), A.row_nnz())
        cols = A.col.astype(np.int64, copy=False)
        tr = rows // tile
        tc = cols // tile
        # order entries by (tile row, tile column, local row, local col);
        # CSR order is already (row, col), so sorting by (row, col) within
        # a tile id gives tile-local row-major order
        order = np.lexsort((cols, rows, tc, tr))
        tid = tr[order] * tile_cols + tc[order]
        if tid.size:
            starts = np.flatnonzero(np.r_[True, tid[1:] != tid[:-1]])
        else:
            starts = np.empty(0, dtype=np.int64)
        tile_off = np.concatenate(
            [starts, [tid.size]]).astype(np.int64)
        u_tid = tid[starts]
        tile_col = (u_tid % tile_cols).astype(INDEX_DTYPE)
        counts = np.bincount(u_tid // tile_cols, minlength=tile_rows)
        tile_rpt = np.zeros(tile_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=tile_rpt[1:])
        loc_r = (rows[order] - tr[order] * tile).astype(np.uint8)
        loc_c = (cols[order] - tc[order] * tile).astype(np.uint8)
        if starts.size:
            one = np.uint64(1)
            row_mask = np.bitwise_or.reduceat(
                one << loc_r.astype(np.uint64), starts)
            col_mask = np.bitwise_or.reduceat(
                one << loc_c.astype(np.uint64), starts)
        else:
            row_mask = np.empty(0, dtype=np.uint64)
            col_mask = np.empty(0, dtype=np.uint64)
        return cls((m, n), tile, tile_rpt, tile_col, tile_off,
                   row_mask, col_mask, loc_r, loc_c, A.val[order])

    def to_csr(self) -> CSRMatrix:
        """Reassemble the CSR matrix (bit-identical to the ``from_csr``
        input: the entry permutation is inverted exactly)."""
        m, n = self.shape
        per_tile = self.tile_nnz()
        rows = (np.repeat(self.tile_row.astype(np.int64), per_tile)
                * self.tile + self.ent_row)
        cols = (np.repeat(self.tile_col.astype(np.int64), per_tile)
                * self.tile + self.ent_col)
        order = np.lexsort((cols, rows))
        counts = np.bincount(rows, minlength=m)
        rpt = np.zeros(m + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=rpt[1:])
        return CSRMatrix(rpt, cols[order].astype(INDEX_DTYPE),
                         self.val[order], (m, n), check=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"TiledCSR(shape={self.shape}, tile={self.tile}, "
                f"tiles={self.n_tiles}/{self.tile_rows}x{self.tile_cols}, "
                f"nnz={self.nnz})")
