/* Sorting helpers shared by the native kernels (see repro.sparse.native).
 *
 * Every kernel source includes this header; each gets its own static copy,
 * so the library exports nothing from here.
 */

#ifndef REPRO_SORT_KEYS_H
#define REPRO_SORT_KEYS_H

#include <stdint.h>

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

/* Order the k distinct keys in keys[0, k), all in [lo, hi] and marked
 * mark[key] == stamp: read them off the marks in order when the span is
 * shorter than a sort would take, else sort them. */
static void sort_marked(idx_t *keys, idx_t k, idx_t lo, idx_t hi,
                        const idx_t *mark, idx_t stamp)
{
    if (k < 2)
        return;
    int depth = log2_depth(k);
    if (hi - lo < 2 * k * depth) {
        idx_t t = 0;
        for (idx_t c = lo; t < k; c++) {
            keys[t] = c;
            t += mark[c] == stamp;
        }
    } else {
        sort_keys(keys, k, depth);
    }
}

#endif
