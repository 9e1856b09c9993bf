/* Per-output-row sort recipe of C = A @ B over CSR operands.
 *
 * The native half of repro.sparse.expansion.build_sort_recipe, loaded by
 * repro.sparse.native through ctypes.  Each output row is handled on its
 * own, as the paper's per-row hash tables are: its distinct columns are
 * marked in a dense n_cols scratch array, only those columns are sorted,
 * and every intermediate product is then placed at its column's running
 * offset in expansion order -- the exact permutation a stable (row, col)
 * sort of the whole expansion gives, without sorting the expansion.
 *
 * Two passes, so every output array is allocated at its exact size:
 *   recipe_count  per-row product counts and the output row pointers;
 *   recipe_fill   a_idx / b_idx / starts / col into caller buffers.
 *
 * The caller validates the operands first (rpt monotone from 0 to nnz,
 * every column index in range, A.n_cols == B.n_rows): no index is
 * bounds-checked here.  Both functions return 0, or -1 when scratch
 * memory cannot be allocated.  They touch no Python object, so ctypes
 * runs them with the interpreter lock released.
 */

#include <stdlib.h>

#include "sort_keys.h"

static idx_t *new_marks(idx_t n_cols)
{
    idx_t *mark = malloc((size_t)(n_cols > 0 ? n_cols : 1) * sizeof *mark);
    if (mark)
        for (idx_t c = 0; c < n_cols; c++)
            mark[c] = -1;
    return mark;
}

int recipe_count(idx_t n_rows, idx_t n_cols,
                 const idx_t *a_rpt, const idx_t *a_col,
                 const idx_t *b_rpt, const idx_t *b_col,
                 idx_t *row_counts, idx_t *rpt)
{
    idx_t *mark = new_marks(n_cols);
    if (!mark)
        return -1;
    rpt[0] = 0;
    for (idx_t i = 0; i < n_rows; i++) {
        idx_t products = 0, distinct = 0;
        for (idx_t j = a_rpt[i]; j < a_rpt[i + 1]; j++) {
            idx_t k = a_col[j];
            products += b_rpt[k + 1] - b_rpt[k];
            for (idx_t p = b_rpt[k]; p < b_rpt[k + 1]; p++) {
                idx_t c = b_col[p];
                if (mark[c] != i) {
                    mark[c] = i;
                    distinct++;
                }
            }
        }
        row_counts[i] = products;
        rpt[i + 1] = rpt[i] + distinct;
    }
    free(mark);
    return 0;
}

int recipe_fill(idx_t n_rows, idx_t n_cols,
                const idx_t *a_rpt, const idx_t *a_col,
                const idx_t *b_rpt, const idx_t *b_col,
                const idx_t *rpt, idx_t *a_idx, idx_t *b_idx,
                idx_t *starts, idx_t *col)
{
    idx_t *mark = new_marks(n_cols);
    /* per marked column: its product count, then its running offset */
    idx_t *off = malloc((size_t)(n_cols > 0 ? n_cols : 1) * sizeof *off);
    if (!mark || !off) {
        free(mark);
        free(off);
        return -1;
    }
    idx_t pos = 0;
    for (idx_t i = 0; i < n_rows; i++) {
        idx_t *cols = col + rpt[i];
        idx_t k = 0, lo = n_cols, hi = -1;
        for (idx_t j = a_rpt[i]; j < a_rpt[i + 1]; j++) {
            idx_t b = a_col[j];
            for (idx_t p = b_rpt[b]; p < b_rpt[b + 1]; p++) {
                idx_t c = b_col[p];
                if (mark[c] != i) {
                    mark[c] = i;
                    off[c] = 0;
                    cols[k++] = c;
                    if (c < lo)
                        lo = c;
                    if (c > hi)
                        hi = c;
                }
                off[c]++;
            }
        }
        sort_marked(cols, k, lo, hi, mark, i);
        idx_t *row_starts = starts + rpt[i];
        for (idx_t t = 0; t < k; t++) {
            idx_t c = cols[t], n = off[c];
            row_starts[t] = pos;
            off[c] = pos;
            pos += n;
        }
        for (idx_t j = a_rpt[i]; j < a_rpt[i + 1]; j++) {
            idx_t b = a_col[j];
            for (idx_t p = b_rpt[b]; p < b_rpt[b + 1]; p++) {
                idx_t q = off[b_col[p]]++;
                a_idx[q] = j;
                b_idx[q] = p;
            }
        }
    }
    free(mark);
    free(off);
    return 0;
}
