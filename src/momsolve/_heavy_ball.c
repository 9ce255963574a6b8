/* The heavy-ball loop of momsolve.solvers (basic, mbasic, ashbm, mrabk) on
 * dense or CSR blocks, one chunk of drawn keys per call: a partition's key is
 * the index of its block, a uniform:<p> key its p sorted row ids.
 *
 * A step is the NumPy loop's: the sketch t = B·xa of the drawn block B (its
 * rows of the scaled [A | -b], read in place: dense rows through a list of
 * row pointers, CSR rows through a list of row ids), the zero test, the
 * pullback g = [B^T t; 0],
 * the (alpha, beta) rule, and [x'; err'; d'] = [x; err; 0] + (beta d -
 * alpha g) into the other buffer. Every dot product sums LANES interleaved
 * partial sums and adds them in one fixed order, and no other reduction
 * exists, so the bits depend neither on the vector width the compiler picks
 * nor on a BLAS kernel; build with -ffp-contract=off and never -ffast-math.
 * Python owns every threshold and constant and passes them in.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

#define LANES 8
/* LANES doubles at any address, added and multiplied lane by lane like
 * scalars; V(p) is the vector at p */
typedef double v8 __attribute__((vector_size(LANES * sizeof(double)), aligned(8), may_alias));
#define V(p) (*(v8 *)(p))

/* A CSR matrix: row i holds the entries ptr[i] .. ptr[i+1]-1, entry k being
 * val[k] in column idx[k]; a CSC matrix is the CSR of its transpose */
typedef struct {
    const int64_t *ptr, *idx;
    const double *val;
} Csr;

enum { NEED_KEYS, STOP_RSE, STOP_MAX_ITERS, STOP_CAP, STOP_DIVERGED, STOP_WINDOW,
       STOP_ZERO_DIVISION };
enum { RESAMPLE, SKIP, PLAIN };        /* what a zero sketch does */
enum { POLYAK, ASHBM, FIXED };         /* the (alpha, beta) rule */

/* Every field is 8 bytes, in the order of momsolve._native.Run. */
typedef struct {
    /* the run: set once */
    const double *P;         /* the scaled rows, n1 each: a partition's in block order;
                                0 for a CSR run, which reads them from S */
    const int64_t *offsets;  /* partition block b is rows offsets[b] .. offsets[b+1]-1;
                                0 for uniform:<p>, whose key lists its rows */
    const double **B;        /* the rows of the current draw, one pointer each */
    const double *R;         /* residual factor (q x n1) for per-step norms, or 0 */
    double *W[2];            /* the two buffers [xa; err; d; g], 4 x n1 each */
    double *t;               /* the sketch of the current draw */
    /* per-call outputs, one row per step */
    double *rse, *alpha, *beta, *resnorm, *iterates;
    int64_t *wall;
    int8_t *moved;
    /* the dense window's log (or log_key = 0), one entry per step since the
     * last flush, filled to log_fill[0] steps and log_fill[1] sketch
     * entries; a step's key is width int64s */
    int64_t *log_key;
    double *log_t, *log_c, *log_e, *log_w;
    int64_t *log_fill;
    /* a CSR run's scaled rows (or S = 0), and the rows of the current draw */
    const Csr *S;
    int64_t *J;
    /* the carried r = A x - b of a tracked CSR run (or At = 0): A by columns,
     * r, A d and the buffer u = A g, m each */
    const Csr *At;
    double *res, *Ad, *u;
    int64_t n1, width, q, m, mode, rule, cap, max_iters, timing, window, keep;
    double threshold_sq, relax, fixed_alpha, fixed_beta, degeneracy, diverged, tol, err0_sq;
    /* run state, and what the last call did */
    int64_t k, cur, started, tries, t0, draws, fallbacks, records, used;
    double last_rse;
} Run;

int64_t momsolve_run_size(void) { return (int64_t)sizeof(Run); }

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* the sum of the lanes of *s, after the tail a[i]·b[i] for i in tail..n-1
 * went into lane i % LANES */
static double lanes_sum(const v8 *s, const double *a, const double *b, int64_t tail, int64_t n)
{
    double l[LANES];
    memcpy(l, s, sizeof l);
    for (int64_t i = tail; i < n; i++) l[i % LANES] += a[i] * b[i];
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

static double dot(const double *a, const double *b, int64_t n)
{
    v8 s = {0};
    int64_t i = 0;
    for (; i + LANES <= n; i += LANES) s += V(a + i) * V(b + i);
    return lanes_sum(&s, a, b, i, n);
}

/* t = B·xa for the dense rows B[0..rows), four rows at a time, each row
 * summed as in dot; returns ||t||^2 */
static double dense_sketch(const Run *r, int64_t rows, const double *xa, double *t)
{
    const double **B = r->B;
    const int64_t n1 = r->n1;
    int64_t j = 0;
    for (; j + 4 <= rows; j += 4) {
        const double *b0 = B[j], *b1 = B[j + 1], *b2 = B[j + 2], *b3 = B[j + 3];
        v8 s0 = {0}, s1 = {0}, s2 = {0}, s3 = {0};
        int64_t i = 0;
        for (; i + LANES <= n1; i += LANES) {
            v8 x = V(xa + i);
            s0 += V(b0 + i) * x;
            s1 += V(b1 + i) * x;
            s2 += V(b2 + i) * x;
            s3 += V(b3 + i) * x;
        }
        t[j] = lanes_sum(&s0, b0, xa, i, n1);
        t[j + 1] = lanes_sum(&s1, b1, xa, i, n1);
        t[j + 2] = lanes_sum(&s2, b2, xa, i, n1);
        t[j + 3] = lanes_sum(&s3, b3, xa, i, n1);
    }
    for (; j < rows; j++) t[j] = dot(B[j], xa, n1);
    double tn2 = 0.0;
    for (j = 0; j < rows; j++) tn2 += t[j] * t[j];
    return tn2;
}

/* g = [B^T t; 0] for the dense rows B[0..rows), summed over the rows in
 * order, two rows a pass */
static void dense_pullback(const Run *r, int64_t rows, const double *t, double *g)
{
    const double **B = r->B;
    int64_t n = r->n1 - 1, i, j = 1;
    for (i = 0; i < n; i++) g[i] = B[0][i] * t[0];
    for (; j + 2 <= rows; j += 2) {
        const double *b0 = B[j], *b1 = B[j + 1];
        double t0 = t[j], t1 = t[j + 1];
        for (i = 0; i + LANES <= n; i += LANES)
            V(g + i) = (V(g + i) + V(b0 + i) * t0) + V(b1 + i) * t1;
        for (; i < n; i++) g[i] = (g[i] + b0[i] * t0) + b1[i] * t1;
    }
    if (j < rows) {
        const double *b0 = B[j];
        for (i = 0; i < n; i++) g[i] += b0[i] * t[j];
    }
    g[n] = 0.0;
}

/* ||g||^2 and, for ashbm, ||d||^2 and d.g in gram[0..2] */
static void grams(const double *g, const double *d, int64_t n1, int with_d, double *gram)
{
    int64_t i;
    v8 gg = {0}, dd = {0}, dg = {0};
    for (i = 0; i + LANES <= n1; i += LANES) {
        v8 gi = V(g + i), di = V(d + i);
        gg += gi * gi;
        if (with_d) {
            dd += di * di;
            dg += di * gi;
        }
    }
    gram[0] = lanes_sum(&gg, g, g, i, n1);
    gram[1] = lanes_sum(&dd, d, d, i, n1);
    gram[2] = lanes_sum(&dg, d, g, i, n1);
}

/* t = B·xa for the CSR rows J[0..rows) of S, each row's entries summed in
 * order, as scipy's csr_matvec sums them; returns ||t||^2, summed as in
 * dense_sketch */
static double csr_sketch(const Run *r, int64_t rows, const double *xa, double *t)
{
    const int64_t *ptr = r->S->ptr, *idx = r->S->idx;
    const double *val = r->S->val;
    int64_t j;
    double tn2 = 0.0;
    for (j = 0; j < rows; j++) {
        double s = 0.0;
        for (int64_t k = ptr[r->J[j]]; k < ptr[r->J[j] + 1]; k++) s += val[k] * xa[idx[k]];
        t[j] = s;
    }
    for (j = 0; j < rows; j++) tn2 += t[j] * t[j];
    return tn2;
}

/* g = [B^T t; 0] for the CSR rows J[0..rows) of S: each entry added into
 * g in row order, as scipy's csc_matvec of B^T adds them */
static void csr_pullback(const Run *r, int64_t rows, const double *t, double *g)
{
    const int64_t *ptr = r->S->ptr, *idx = r->S->idx;
    const double *val = r->S->val;
    memset(g, 0, (size_t)r->n1 * sizeof(double));
    for (int64_t j = 0; j < rows; j++) {
        double tj = t[j];
        for (int64_t k = ptr[r->J[j]]; k < ptr[r->J[j] + 1]; k++) g[idx[k]] += val[k] * tj;
    }
    g[r->n1 - 1] = 0.0;
}

/* The carried residual of a CSR run after a step d' = beta d - alpha g:
 * u = A g over the columns of A at which g is nonzero, A d' = beta A d -
 * alpha u and r' = r + A d'; returns ||r'|| */
static double csr_carry(const Run *r, const double *g, double alpha, double beta)
{
    const int64_t *ptr = r->At->ptr, *idx = r->At->idx, n = r->n1 - 1, m = r->m;
    const double *val = r->At->val;
    double *u = r->u, *Ad = r->Ad, *res = r->res, minus_alpha = -alpha;
    memset(u, 0, (size_t)m * sizeof(double));
    for (int64_t c = 0; c < n; c++) {
        double gc = g[c];
        if (gc != 0.0)
            for (int64_t k = ptr[c]; k < ptr[c + 1]; k++) u[idx[k]] += val[k] * gc;
    }
    v8 s = {0};
    int64_t i = 0, tail;
    for (; i + LANES <= m; i += LANES) {
        v8 ad = beta * V(Ad + i) + minus_alpha * V(u + i), ri = V(res + i) + ad;
        V(Ad + i) = ad;
        V(res + i) = ri;
        s += ri * ri;
    }
    for (tail = i; i < m; i++) {
        Ad[i] = beta * Ad[i] + minus_alpha * u[i];
        res[i] += Ad[i];
    }
    return sqrt(lanes_sum(&s, res, res, tail, m));
}

/* [x'; err'; d'] = [xa; err; 0] + s with s = beta d - alpha g, into the
 * other buffer; returns ||err'||^2 */
static double update(const double *W, double *out, int64_t n1, double alpha, double beta)
{
    const double *xa = W, *err = W + n1, *d = W + 2 * n1, *g = W + 3 * n1;
    double *xv = out, *ev = out + n1, *dv = out + 2 * n1, minus_alpha = -alpha;
    v8 s = {0};
    int64_t i = 0, tail;
    for (; i + LANES <= n1; i += LANES) {
        v8 step = beta * V(d + i) + minus_alpha * V(g + i), e = V(err + i) + step;
        V(xv + i) = V(xa + i) + step;
        V(ev + i) = e;
        V(dv + i) = step;
        s += e * e;
    }
    for (tail = i; i < n1; i++) {
        double step = beta * d[i] + minus_alpha * g[i];
        xv[i] = xa[i] + step;
        ev[i] = err[i] + step;
        dv[i] = step;
    }
    return lanes_sum(&s, ev, ev, tail, n1);
}

/* The rows of the block that key names into r->B, or their ids into r->J
 * for a CSR run; returns their number. */
static int64_t block_rows(const Run *r, const int64_t *key)
{
    int64_t j, rows = r->width;
    if (r->S && r->offsets) {
        rows = r->offsets[*key + 1] - r->offsets[*key];
        for (j = 0; j < rows; j++) r->J[j] = r->offsets[*key] + j;
    } else if (r->S) {
        memcpy(r->J, key, (size_t)rows * sizeof(int64_t));
    } else if (r->offsets) {
        const double *first = r->P + r->offsets[*key] * r->n1;
        rows = r->offsets[*key + 1] - r->offsets[*key];
        for (j = 0; j < rows; j++) r->B[j] = first + j * r->n1;
    } else {
        for (j = 0; j < rows; j++) r->B[j] = r->P + key[j] * r->n1;
    }
    return rows;
}

/* Runs steps on the keys keys[0..nkeys·width) until the keys run out
 * (mid-step, if a rejection loop is under way), the run ends, or a window of
 * the carried residual is full: the dense window's log, or the CSR carry,
 * which Python then replaces with exact products. Returns the status;
 * r->records rows were written to the outputs and r->used keys were read. */
int64_t momsolve_heavy_ball(Run *r, const int64_t *keys, int64_t nkeys)
{
    const int64_t n1 = r->n1, n = n1 - 1, width = r->width;
    int64_t pos = 0, out = 0, status;
    /* a dense block is read through the row pointers B, a CSR block through
     * its row ids J */
    double (*sketch_rows)(const Run *, int64_t, const double *, double *) =
        r->S ? csr_sketch : dense_sketch;
    void (*pull_rows)(const Run *, int64_t, const double *, double *) =
        r->S ? csr_pullback : dense_pullback;
    for (;;) {
        double *W = r->W[r->cur], *xa = W, *err = W + n1, *d = W + 2 * n1, *g = W + 3 * n1;
        if (!r->started) {
            if (r->k >= r->max_iters) { status = STOP_MAX_ITERS; break; }
            r->started = 1;
            r->tries = 0;
            r->t0 = r->timing ? now_ns() : 0;
        }
        const int64_t *key;
        int64_t rows;
        double tn2;
        for (;;) {  /* draw until the sketch passes the zero test */
            if (pos == nkeys) { status = NEED_KEYS; goto done; }
            key = keys + pos++ * width;
            r->draws++;
            rows = block_rows(r, key);
            tn2 = sketch_rows(r, rows, xa, r->t);
            if (tn2 > r->threshold_sq || r->mode != RESAMPLE) break;
            if (++r->tries == r->cap) { status = STOP_CAP; goto done; }
        }
        r->started = 0;
        int64_t k = ++r->k;
        double alpha = 0.0, beta = 0.0, e2;
        int moved = !(r->mode == SKIP && tn2 <= r->threshold_sq);
        if (moved) {
            double gram[3];
            pull_rows(r, rows, r->t, g);
            grams(g, d, n1, r->rule == ASHBM && k > 1, gram);
            double gn2 = gram[0];
            if (r->rule == FIXED) {
                alpha = r->fixed_alpha;
                beta = r->fixed_beta;
            } else if (r->rule == POLYAK || k == 1) {
                if (gn2 == 0.0) { status = STOP_ZERO_DIVISION; goto done; }
                alpha = (r->rule == POLYAK ? r->relax * tn2 : tn2) / gn2;
            } else {
                double dn2 = gram[1], gd = gram[2], det = gn2 * dn2 - gd * gd;
                if (det <= r->degeneracy * gn2 * dn2) {
                    /* the alpha-only minimizer, one zeta = 1 basic step */
                    r->fallbacks++;
                    if (gn2 == 0.0) { status = STOP_ZERO_DIVISION; goto done; }
                    alpha = tn2 / gn2;
                } else {
                    alpha = dn2 * tn2 / det;
                    beta = gd * tn2 / det;
                }
            }
            r->cur ^= 1;
            e2 = update(W, r->W[r->cur], n1, alpha, beta);
            xa = r->W[r->cur];
        } else {
            e2 = dot(err, err, n1);
        }
        if (r->timing) r->wall[out] = now_ns() - r->t0;
        double rse = e2 / r->err0_sq;
        r->last_rse = rse;
        if (!(rse <= r->diverged)) { status = STOP_DIVERGED; goto done; }
        r->rse[out] = rse;
        r->alpha[out] = alpha;
        r->beta[out] = beta;
        r->moved[out] = (int8_t)moved;
        if (r->keep) memcpy(r->iterates + out * n, xa, (size_t)n * sizeof(double));
        if (r->R) {
            double s = 0.0;
            for (int64_t i = 0; i < r->q; i++) {
                double ri = dot(r->R + i * n1, xa, n1);
                s += ri * ri;
            }
            r->resnorm[out] = sqrt(s);
        } else if (r->At) {  /* an unmoved step leaves r where it is */
            r->resnorm[out] = moved ? csr_carry(r, g, alpha, beta)
                                    : sqrt(dot(r->res, r->res, r->m));
        }
        out++;
        if (r->log_key) {  /* the step [[1, w c, w e], [0, c, e]] of _Window */
            int64_t i = r->log_fill[0]++;
            memcpy(r->log_key + i * width, key, (size_t)width * sizeof(int64_t));
            memcpy(r->log_t + r->log_fill[1], r->t, (size_t)rows * sizeof(double));
            r->log_fill[1] += rows;
            r->log_c[i] = moved ? beta : 1.0;
            r->log_e[i] = moved ? -alpha : 0.0;
            r->log_w[i] = moved ? 1.0 : 0.0;
        }
        if (rse <= r->tol) { status = STOP_RSE; break; }
        if (r->window && k % r->window == 0) { status = STOP_WINDOW; break; }
    }
done:
    r->records = out;
    r->used = pos;
    return status;
}
