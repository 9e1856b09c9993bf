/* Discrete-event dispatch of one phase's thread blocks onto SMs.
 *
 * The native half of repro.gpu.scheduler.simulate_phase, loaded by
 * repro.sparse.native through ctypes.  It runs the same event loop as the
 * Python reference (repro.gpu.scheduler._event_loop), step for step:
 *
 *   - events are popped in (time, seq) order, seq counting pushes, so the
 *     pop order -- and with it every timestamp -- equals the heapq loop's;
 *   - a "ready" event files its kernel into the issue-ordered ready list,
 *     a block completion returns the block's resources to its SM and, on
 *     a kernel's last block, wakes its stream successor;
 *   - events at the same time coalesce before a dispatch, which scans every
 *     SM when a kernel became ready and otherwise only the freed SMs, in
 *     ascending order, placing as many blocks per SM as threads, shared
 *     memory and block slots allow.
 *
 * All arithmetic on times is the reference's: one double addition per
 * block (start + duration) and comparisons, so the timestamps are equal
 * bit for bit.  The caller passes the per-kernel block durations
 * concatenated (kernel k's blocks are durations[block_off[k] ..
 * block_off[k + 1])), each block's thread and shared-memory footprint,
 * the stream predecessor (-1 for none) and the issue time of every
 * kernel, and receives each kernel's first dispatch, ready and finish
 * time.
 *
 * Returns 0; -1 when scratch memory cannot be allocated; -2 when more than
 * max_events events were popped; -3 when the event queue drained with a
 * kernel unfinished (finish left NaN).  The function touches no Python
 * object, so ctypes runs it with the interpreter lock released.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int64_t idx_t;

typedef struct {
    double t;
    idx_t seq;
    idx_t k;    /* kernel index */
    idx_t sm;   /* SM a block completes on; -1: the kernel becomes ready */
} event_t;

typedef struct {
    event_t *a;
    idx_t n, cap;
} heap_t;

static int before(const event_t *x, const event_t *y)
{
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

static int heap_push(heap_t *h, double t, idx_t seq, idx_t k, idx_t sm)
{
    if (h->n == h->cap) {
        idx_t cap = h->cap ? 2 * h->cap : 256;
        event_t *a = realloc(h->a, (size_t)cap * sizeof *a);
        if (!a)
            return -1;
        h->a = a;
        h->cap = cap;
    }
    event_t e = {t, seq, k, sm};
    idx_t i = h->n++;
    while (i > 0) {
        idx_t parent = (i - 1) / 2;
        if (!before(&e, &h->a[parent]))
            break;
        h->a[i] = h->a[parent];
        i = parent;
    }
    h->a[i] = e;
    return 0;
}

static event_t heap_pop(heap_t *h)
{
    event_t top = h->a[0], last = h->a[--h->n];
    idx_t i = 0;
    for (;;) {
        idx_t child = 2 * i + 1;
        if (child >= h->n)
            break;
        if (child + 1 < h->n && before(&h->a[child + 1], &h->a[child]))
            child++;
        if (!before(&h->a[child], &last))
            break;
        h->a[i] = h->a[child];
        i = child;
    }
    if (h->n)
        h->a[i] = last;
    return top;
}

static void *alloc(idx_t n, size_t size)
{
    return malloc((size_t)(n > 0 ? n : 1) * size);
}

int schedule_phase(idx_t n_kernels, const idx_t *block_off,
                   const double *durations, const idx_t *threads,
                   const idx_t *shared, const idx_t *predecessor,
                   const double *issue, idx_t sm_count, idx_t sm_threads,
                   idx_t sm_shared, idx_t sm_blocks, idx_t max_events,
                   double *first_start, double *ready_at, double *finish)
{
    idx_t *next_block = alloc(n_kernels, sizeof *next_block);
    idx_t *done = alloc(n_kernels, sizeof *done);
    idx_t *ready = alloc(n_kernels, sizeof *ready);
    idx_t *threads_free = alloc(sm_count, sizeof *threads_free);
    idx_t *shared_free = alloc(sm_count, sizeof *shared_free);
    idx_t *blocks_free = alloc(sm_count, sizeof *blocks_free);
    idx_t *freed = alloc(sm_count, sizeof *freed);
    char *is_freed = alloc(sm_count, sizeof *is_freed);
    heap_t heap = {NULL, 0, 0};
    int rc = -1;
    if (!next_block || !done || !ready || !threads_free || !shared_free
        || !blocks_free || !freed || !is_freed)
        goto out;

    for (idx_t k = 0; k < n_kernels; k++) {
        next_block[k] = done[k] = 0;
        first_start[k] = ready_at[k] = finish[k] = NAN;
    }
    for (idx_t s = 0; s < sm_count; s++) {
        threads_free[s] = sm_threads;
        shared_free[s] = sm_shared;
        blocks_free[s] = sm_blocks;
        is_freed[s] = 0;
    }
    idx_t seq = 0;
    for (idx_t k = 0; k < n_kernels; k++)
        if (predecessor[k] < 0 && heap_push(&heap, issue[k], seq++, k, -1))
            goto out;

    idx_t n_events = 0, finished = 0, n_ready = 0, n_freed = 0;
    int new_ready = 0;
    while (heap.n) {
        if (++n_events > max_events) {
            rc = -2;
            goto out;
        }
        event_t e = heap_pop(&heap);
        double now = e.t;
        idx_t k = e.k;
        if (e.sm < 0) {
            /* insort into the issue-ordered ready list */
            ready_at[k] = now;
            idx_t j = n_ready++;
            while (j > 0 && ready[j - 1] > k) {
                ready[j] = ready[j - 1];
                j--;
            }
            ready[j] = k;
            new_ready = 1;
        } else {
            idx_t sm = e.sm;
            threads_free[sm] += threads[k];
            shared_free[sm] += shared[k];
            blocks_free[sm] += 1;
            if (!is_freed[sm]) {
                is_freed[sm] = 1;
                freed[n_freed++] = sm;
            }
            if (++done[k] == block_off[k + 1] - block_off[k]) {
                finish[k] = now;
                finished++;
                for (idx_t s = 0; s < n_kernels; s++) {
                    if (predecessor[s] != k)
                        continue;
                    double t = issue[s] > now ? issue[s] : now;
                    if (heap_push(&heap, t, seq++, s, -1))
                        goto out;
                }
            }
        }
        /* coalesce simultaneous events before dispatching */
        if (heap.n && heap.a[0].t == now)
            continue;
        if (n_ready && (new_ready || n_freed)) {
            idx_t n_scan = new_ready ? sm_count : n_freed;
            if (!new_ready) {
                /* the freed SMs, ascending */
                for (idx_t i = 1; i < n_freed; i++) {
                    idx_t v = freed[i], j = i;
                    while (j > 0 && freed[j - 1] > v) {
                        freed[j] = freed[j - 1];
                        j--;
                    }
                    freed[j] = v;
                }
            }
            idx_t kept = 0;
            for (idx_t r = 0; r < n_ready; r++) {
                idx_t q = ready[r];
                idx_t n_blocks = block_off[q + 1] - block_off[q];
                idx_t thr = threads[q], shm = shared[q];
                for (idx_t i = 0; i < n_scan && next_block[q] < n_blocks;
                     i++) {
                    idx_t sm = new_ready ? i : freed[i];
                    idx_t n_fit = threads_free[sm] / thr;
                    if (blocks_free[sm] < n_fit)
                        n_fit = blocks_free[sm];
                    if (shm > 0 && shared_free[sm] / shm < n_fit)
                        n_fit = shared_free[sm] / shm;
                    if (n_blocks - next_block[q] < n_fit)
                        n_fit = n_blocks - next_block[q];
                    if (n_fit <= 0)
                        continue;
                    threads_free[sm] -= n_fit * thr;
                    shared_free[sm] -= n_fit * shm;
                    blocks_free[sm] -= n_fit;
                    if (next_block[q] == 0)
                        first_start[q] = now;
                    const double *dur = durations + block_off[q];
                    for (idx_t b = next_block[q]; b < next_block[q] + n_fit;
                         b++)
                        if (heap_push(&heap, now + dur[b], seq++, q, sm))
                            goto out;
                    next_block[q] += n_fit;
                }
                if (next_block[q] < n_blocks)
                    ready[kept++] = q;
            }
            n_ready = kept;
        }
        for (idx_t i = 0; i < n_freed; i++)
            is_freed[freed[i]] = 0;
        n_freed = 0;
        new_ready = 0;
    }
    rc = finished == n_kernels ? 0 : -3;
out:
    free(next_block);
    free(done);
    free(ready);
    free(threads_free);
    free(shared_free);
    free(blocks_free);
    free(freed);
    free(is_freed);
    free(heap.a);
    return rc;
}
