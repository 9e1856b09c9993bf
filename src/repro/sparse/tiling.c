/* CSR -> TiledCSR conversion (repro.tile.format.TiledCSR.from_csr).
 *
 * The native half of the conversion, loaded by repro.sparse.native
 * through ctypes.  A tile row is a band of `tile` consecutive rows, and
 * its entries occupy the same range of the entry arrays before and after
 * tiling, so each band is converted on its own, in two passes:
 *
 *   tile_count  marks each band's distinct tile columns in a dense
 *               scratch array and writes the tile row pointers;
 *   tile_fill   orders those columns, scatters the band's entries to
 *               their tiles row by row, and stable-insertion-sorts each
 *               (tile, row) run by column as it grows, then writes the
 *               tile columns and offsets, the local coordinates, the
 *               row/column occupancy masks and the entry permutation.
 *
 * The permutation is the order of numpy's stable
 * lexsort((col, row, tile_col, tile_row)) even for unsorted or duplicate
 * columns: band and tile column come first by construction, rows follow
 * in scan order, and the insertion sort keeps equal columns in input
 * order.
 *
 * tile_count checks the operand (rpt monotone from 0 to nnz, every column
 * in [0, n_cols)) and returns -2 on a malformed one, for the caller to
 * take its numpy path; tile_fill assumes a checked operand.  Both return
 * 0, or -1 when scratch memory cannot be allocated.  They touch no Python
 * object, so ctypes runs them with the interpreter lock released.
 */

#include <stdint.h>
#include <stdlib.h>

#include "sort_keys.h"

static idx_t *new_scratch(idx_t n, idx_t fill)
{
    idx_t *a = malloc((size_t)(n > 0 ? n : 1) * sizeof *a);
    if (a)
        for (idx_t i = 0; i < n; i++)
            a[i] = fill;
    return a;
}

int tile_count(idx_t n_rows, idx_t n_cols, idx_t nnz, idx_t tile,
               idx_t tile_rows, idx_t tile_cols, const idx_t *rpt,
               const idx_t *col, idx_t *tile_rpt)
{
    if (rpt[0] != 0 || rpt[n_rows] != nnz)
        return -2;
    for (idx_t r = 0; r < n_rows; r++)
        if (rpt[r + 1] < rpt[r])
            return -2;
    for (idx_t j = 0; j < nnz; j++)
        if (col[j] < 0 || col[j] >= n_cols)
            return -2;
    idx_t *mark = new_scratch(tile_cols, -1);
    if (!mark)
        return -1;
    tile_rpt[0] = 0;
    for (idx_t band = 0; band < tile_rows; band++) {
        idx_t r0 = band * tile, r1 = r0 + tile < n_rows ? r0 + tile : n_rows;
        idx_t distinct = 0;
        for (idx_t j = rpt[r0]; j < rpt[r1]; j++) {
            idx_t tc = col[j] / tile;
            if (mark[tc] != band) {
                mark[tc] = band;
                distinct++;
            }
        }
        tile_rpt[band + 1] = tile_rpt[band] + distinct;
    }
    free(mark);
    return 0;
}

int tile_fill(idx_t n_rows, idx_t nnz, idx_t tile, idx_t tile_rows,
              idx_t tile_cols, const idx_t *rpt, const idx_t *col,
              const idx_t *tile_rpt, idx_t *tile_col, idx_t *tile_off,
              uint64_t *row_mask, uint64_t *col_mask, uint8_t *ent_row,
              uint8_t *ent_col, idx_t *order)
{
    idx_t *mark = new_scratch(tile_cols, -1);
    /* per marked tile column: its entry count, then its write cursor */
    idx_t *cursor = new_scratch(tile_cols, 0);
    /* per tile column: the row of its open run and where the run starts */
    idx_t *run_row = new_scratch(tile_cols, -1);
    idx_t *run_start = new_scratch(tile_cols, 0);
    int rc = -1;
    if (!mark || !cursor || !run_row || !run_start)
        goto out;
    for (idx_t band = 0; band < tile_rows; band++) {
        idx_t r0 = band * tile, r1 = r0 + tile < n_rows ? r0 + tile : n_rows;
        if (r1 <= r0)
            continue;
        idx_t *cols = tile_col + tile_rpt[band];
        idx_t k = 0, lo = tile_cols, hi = -1;
        for (idx_t j = rpt[r0]; j < rpt[r1]; j++) {
            idx_t tc = col[j] / tile;
            if (mark[tc] != band) {
                mark[tc] = band;
                cursor[tc] = 0;
                cols[k++] = tc;
                if (tc < lo)
                    lo = tc;
                if (tc > hi)
                    hi = tc;
            }
            cursor[tc]++;
        }
        sort_marked(cols, k, lo, hi, mark, band);
        idx_t *offs = tile_off + tile_rpt[band];
        idx_t pos = rpt[r0];
        for (idx_t t = 0; t < k; t++) {
            idx_t tc = cols[t], n = cursor[tc];
            offs[t] = pos;
            cursor[tc] = pos;
            pos += n;
        }
        for (idx_t r = r0; r < r1; r++) {
            for (idx_t j = rpt[r]; j < rpt[r + 1]; j++) {
                idx_t c = col[j], tc = c / tile, q = cursor[tc]++;
                ent_row[q] = (uint8_t)(r - r0);
                if (run_row[tc] != r) {
                    run_row[tc] = r;
                    run_start[tc] = q;
                }
                while (q > run_start[tc] && col[order[q - 1]] > c) {
                    order[q] = order[q - 1];
                    q--;
                }
                order[q] = j;
            }
        }
        for (idx_t t = 0; t < k; t++) {
            idx_t base = cols[t] * tile;
            idx_t end = t + 1 < k ? offs[t + 1] : rpt[r1];
            uint64_t rows = 0, cs = 0;
            for (idx_t q = offs[t]; q < end; q++) {
                idx_t lc = col[order[q]] - base;
                ent_col[q] = (uint8_t)lc;
                rows |= (uint64_t)1 << ent_row[q];
                cs |= (uint64_t)1 << lc;
            }
            row_mask[tile_rpt[band] + t] = rows;
            col_mask[tile_rpt[band] + t] = cs;
        }
    }
    tile_off[tile_rpt[tile_rows]] = nnz;
    rc = 0;
out:
    free(mark);
    free(cursor);
    free(run_row);
    free(run_start);
    return rc;
}
