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

#include <stdint.h>
#include <stdlib.h>

typedef int64_t idx_t;

#define INSERTION_MAX 16

static void insertion_sort(idx_t *a, idx_t n)
{
    for (idx_t i = 1; i < n; i++) {
        idx_t v = a[i], j = i;
        while (j > 0 && a[j - 1] > v) {
            a[j] = a[j - 1];
            j--;
        }
        a[j] = v;
    }
}

static void sift_down(idx_t *a, idx_t root, idx_t n)
{
    idx_t v = a[root];
    for (;;) {
        idx_t child = 2 * root + 1;
        if (child >= n)
            break;
        if (child + 1 < n && a[child + 1] > a[child])
            child++;
        if (a[child] <= v)
            break;
        a[root] = a[child];
        root = child;
    }
    a[root] = v;
}

static void heap_sort(idx_t *a, idx_t n)
{
    for (idx_t i = n / 2; i-- > 0;)
        sift_down(a, i, n);
    for (idx_t end = n - 1; end > 0; end--) {
        idx_t t = a[0];
        a[0] = a[end];
        a[end] = t;
        sift_down(a, 0, end);
    }
}

/* Introsort of distinct keys: median-of-three quicksort, heap sort past
 * the depth limit, insertion sort on short ranges. */
static void sort_keys(idx_t *a, idx_t n, int depth)
{
    while (n > INSERTION_MAX) {
        if (depth-- == 0) {
            heap_sort(a, n);
            return;
        }
        idx_t x = a[0], y = a[n / 2], z = a[n - 1];
        idx_t pivot = x < y ? (y < z ? y : (x < z ? z : x))
                            : (x < z ? x : (y < z ? z : y));
        idx_t i = 0, j = n - 1;
        for (;;) {
            while (a[i] < pivot)
                i++;
            while (a[j] > pivot)
                j--;
            if (i >= j)
                break;
            idx_t t = a[i];
            a[i] = a[j];
            a[j] = t;
            i++;
            j--;
        }
        /* [0, j] <= pivot <= [j + 1, n): recurse on the shorter side */
        idx_t left = j + 1;
        if (left < n - left) {
            sort_keys(a, left, depth);
            a += left;
            n -= left;
        } else {
            sort_keys(a + left, n - left, depth);
            n = left;
        }
    }
    insertion_sort(a, n);
}

static int log2_depth(idx_t n)
{
    int d = 0;
    while (n > 1) {
        n >>= 1;
        d++;
    }
    return 2 * d;
}

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
        if (k > 1) {
            /* read the columns off the marks in order when the row's
             * column span is shorter than a sort would take, else sort */
            int depth = log2_depth(k);
            if (hi - lo < 2 * k * depth) {
                idx_t t = 0;
                for (idx_t c = lo; t < k; c++) {
                    cols[t] = c;
                    t += mark[c] == i;
                }
            } else {
                sort_keys(cols, k, depth);
            }
        }
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
