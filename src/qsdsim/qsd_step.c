/* Compiled stepping loop of the state-diffusion integrator.
 *
 * qsd_segment advances a (B, N) batch of trajectories through n steps
 * of the Euler-Maruyama update documented in qsd.py.  Each step of a
 * row draws the row's four normals from its own numpy generator, and
 * is followed by its norm, the norm-drift high-water mark, the
 * truncation-tail guard and the renormalization.  Every stride-th step
 * the rows are copied into a caller's buffer of samples, so one call
 * covers many samples.
 *
 * Rows are stepped in lane groups of four, one row per lane of a GCC
 * vector, so the vector width runs across rows, never within one.  Each
 * lane does exactly the IEEE operations of a row stepped alone, in the
 * same order: every sum over levels is one sequential chain per row.
 * So a row's result does not depend on the batch it sits in, nor on the
 * lane group.  The file is built with -ffp-contract=off: no FMA
 * contraction, so the rounding does not depend on the target's
 * instruction set either, and the AVX clone of qsd_segment picked at
 * load on x86-64 gives the same bits as the default one.
 *
 * The normals come from numpy's own sampler, random_standard_normal of
 * numpy/random/lib/libnpyrandom.a, called on each generator's bitgen_t
 * in the order Generator.standard_normal uses, so a row's noise stream
 * is the one qsd.draw_noise_block draws from the same generator.
 *
 * In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1) raises
 * by one level, with real c and d, and the drift -iH/hbar - sum L^dag
 * L / 2 is the complex diagonal g.  Complex numbers are stored as
 * interleaved (re, im) doubles.  Inside a lane group they are split
 * into real and imaginary arrays of lane vectors, padded by one zero
 * level at each end, so no loop below needs a boundary case.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which needs Python.h. */
extern double random_standard_normal(bitgen_t *bitgen_state);

/* Rows per lane group; step_group writes its increment vectors out for
 * four lanes. */
#define LANES 4
typedef double lanes_t __attribute__((vector_size(LANES * sizeof(double))));

/* One step of one lane group: reads (re, im), writes (nre, nim); both
 * padded so that index 0 and N + 1 are zero levels.  cl[k] = c_k with
 * cl[N - 1] = 0 couples level k to k + 1; dl[k] = d_{k-1} with
 * dl[0] = 0 couples level k to k - 1; dgr[k] + i dgi[k] = dt g_k.
 * Lane l reads its increments (Re xi1, Im xi1, Re xi2, Im xi2) at
 * xi[l][0..3].  Stores ||psi'||^2 per lane in *out_sq and the tail part
 * of it in *tail_sq. */
static inline __attribute__((always_inline)) void
step_group(long n, const double *cl, const double *dl, const double *dgr,
           const double *dgi, long tail_start, double dt,
           const double (*xi)[4], const lanes_t *re, const lanes_t *im,
           lanes_t *nre, lanes_t *nim, lanes_t *out_sq, lanes_t *tail_sq)
{
    const lanes_t *r = re + 1, *i = im + 1;
    lanes_t ns = {0}, l1r = {0}, l1i = {0}, l2r = {0}, l2i = {0};
    for (long k = 0; k < n; k++) {
        ns += r[k] * r[k] + i[k] * i[k];
        /* <L1> = sum conj(psi_k) c_k psi_{k+1} */
        l1r += cl[k] * (r[k] * r[k + 1] + i[k] * i[k + 1]);
        l1i += cl[k] * (r[k] * i[k + 1] - i[k] * r[k + 1]);
        /* <L2> = sum conj(psi_k) d_{k-1} psi_{k-1} */
        l2r += dl[k] * (r[k] * r[k - 1] + i[k] * i[k - 1]);
        l2i += dl[k] * (r[k] * i[k - 1] - i[k] * r[k - 1]);
    }
    l1r /= ns;
    l1i /= ns;
    l2r /= ns;
    l2i /= ns;
    const lanes_t x1r = {xi[0][0], xi[1][0], xi[2][0], xi[3][0]},
                  x1i = {xi[0][1], xi[1][1], xi[2][1], xi[3][1]},
                  x2r = {xi[0][2], xi[1][2], xi[2][2], xi[3][2]},
                  x2i = {xi[0][3], xi[1][3], xi[2][3], xi[3][3]};
    /* psi' = (1 + dt g - dt (|<L1>|^2 + |<L2>|^2) / 2
     *         - <L1> xi1 - <L2> xi2) psi
     *        + (conj<L1> dt + xi1) L1 psi + (conj<L2> dt + xi2) L2 psi */
    const lanes_t c0r = 1.0 - 0.5 * dt * (l1r * l1r + l1i * l1i
                                          + l2r * l2r + l2i * l2i)
                        - (l1r * x1r - l1i * x1i + l2r * x2r - l2i * x2i);
    const lanes_t c0i = -(l1r * x1i + l1i * x1r + l2r * x2i + l2i * x2r);
    const lanes_t k1r = l1r * dt + x1r, k1i = x1i - l1i * dt;
    const lanes_t k2r = l2r * dt + x2r, k2i = x2i - l2i * dt;
    lanes_t *outr = nre + 1, *outi = nim + 1;
    lanes_t head = {0}, tail = {0};
    for (long k = 0; k < n; k++) {
        const lanes_t ar = dgr[k] + c0r, ai = dgi[k] + c0i;
        const lanes_t ur = cl[k] * r[k + 1], ui = cl[k] * i[k + 1];
        const lanes_t vr = dl[k] * r[k - 1], vi = dl[k] * i[k - 1];
        const lanes_t or = (ar * r[k] - ai * i[k]) + (k1r * ur - k1i * ui)
                           + (k2r * vr - k2i * vi);
        const lanes_t oi = (ar * i[k] + ai * r[k]) + (k1r * ui + k1i * ur)
                           + (k2r * vi + k2i * vr);
        outr[k] = or;
        outi[k] = oi;
        if (k < tail_start)
            head += or * or + oi * oi;
        else
            tail += or * or + oi * oi;
    }
    *tail_sq = tail;
    *out_sq = head + tail;
}

/* Advances every row of psis (B rows of N interleaved complex levels)
 * by n steps.  Row b draws each step's increments (Re xi1, Im xi1,
 * Re xi2, Im xi2) as four normals from rngs[b], each times scale.  c
 * and d hold N - 1 real band coefficients, g holds N interleaved
 * complex ones.  drift[j] is raised to the largest | ||psi'|| - 1 | of
 * step j over the batch.
 *
 * Samples: the call starts on a sample boundary, so sample s falls
 * after step (s + 1) stride.  Sample s of row b is copied to
 * rec + 2 N (s B + b); the caller sizes rec for the samples that land
 * within n steps.
 *
 * The last lane group is padded with copies of row B - 1, whose
 * results, drift and failures are ignored; they draw no noise and step
 * with zero increments.
 *
 * A row fails at the first step whose relative tail mass (the share of
 * ||psi'||^2 in levels tail_start..N-1) is above tail_tol or nan, as
 * a non-finite state makes it.  Among the rows that fail at the
 * earliest step, the first with a nan tail wins, else the first with
 * the largest tail.  Returns that row, with its 1-based step in
 * *fail_step and its tail in *fail_tail, or -1 if no row fails; on
 * failure psis, rec, drift and the generators are left partly
 * advanced, and only the samples before the failing step are whole.
 * Returns -2 if memory runs out. */
/* On x86-64 the library holds an AVX and a baseline clone, picked
 * when it loads; step_group is always inlined, so each clone carries
 * the body built for its own instruction set. */
#ifdef __x86_64__
__attribute__((target_clones("avx", "default")))
#endif
long qsd_segment(long B, long N, long n, const double *c, const double *d,
                 const double *g, long tail_start, double dt,
                 double tail_tol, double *psis, bitgen_t *const *rngs,
                 double scale, long stride, double *rec, double *drift,
                 long *fail_step, double *fail_tail)
{
    /* re[0], im[0], re[1], im[1]: w lane vectors each; then cl, dl, dgr,
     * dgi: w doubles each, so w lane vectors between them */
    const long w = N + 2;
    const size_t size = (size_t)(5 * w) * sizeof(lanes_t);
    lanes_t *buf;
    if (posix_memalign((void **)&buf, sizeof(lanes_t), size))
        return -2;
    memset(buf, 0, size);
    double *cl = (double *)(buf + 4 * w), *dl = cl + w, *dgr = cl + 2 * w,
           *dgi = cl + 3 * w;
    lanes_t *re[2] = {buf, buf + 2 * w};
    lanes_t *im[2] = {buf + w, buf + 3 * w};
    for (long k = 0; k < N - 1; k++) {
        cl[k] = c[k];
        dl[k + 1] = d[k];
    }
    for (long k = 0; k < N; k++) {
        dgr[k] = dt * g[2 * k];
        dgi[k] = dt * g[2 * k + 1];
    }
    long worst = -1, worst_step = n + 1;
    double worst_tail = 0.0;
    for (long b0 = 0; b0 < B; b0 += LANES) {
        const int used = B - b0 < LANES ? (int)(B - b0) : LANES;
        double *row[LANES];
        for (int l = 0; l < LANES; l++)
            row[l] = psis + 2 * N * (l < used ? b0 + l : B - 1);
        double xi[LANES][4] = {{0.0}};
        int cur = 0;
        for (long k = 0; k < N; k++)
            for (int l = 0; l < LANES; l++) {
                re[0][k + 1][l] = row[l][2 * k];
                im[0][k + 1][l] = row[l][2 * k + 1];
            }
        /* a row failing after the earliest failure so far cannot win */
        const long steps = worst < 0 ? n : worst_step;
        double *sample = rec + 2 * N * b0;
        long left = stride;   /* steps to the next sample */
        int failed = 0;
        for (long j = 0; j < steps; j++) {
            const lanes_t *r = re[cur], *i = im[cur];
            lanes_t *nr = re[1 - cur], *ni = im[1 - cur];
            lanes_t out_sq, tail_sq, norm = {0};
            for (int l = 0; l < used; l++)
                for (int q = 0; q < 4; q++)
                    xi[l][q] = random_standard_normal(rngs[b0 + l]) * scale;
            step_group(N, cl, dl, dgr, dgi, tail_start, dt, xi, r, i, nr, ni,
                       &out_sq, &tail_sq);
            const lanes_t tail = tail_sq / out_sq;
            for (int l = 0; l < used; l++) {
                if (tail[l] <= tail_tol)
                    continue;
                /* the group stops after this step, so its lanes are
                 * merged here in row order under the batch's rule */
                failed = 1;
                if (j + 1 < worst_step
                    || (j + 1 == worst_step && !isnan(worst_tail)
                        && (isnan(tail[l]) || tail[l] > worst_tail))) {
                    worst = b0 + l;
                    worst_step = j + 1;
                    worst_tail = tail[l];
                }
            }
            if (failed)
                break;
            for (int l = 0; l < LANES; l++)
                norm[l] = sqrt(out_sq[l]);
            for (int l = 0; l < used; l++) {
                const double dev = fabs(norm[l] - 1.0);
                if (dev > drift[j])
                    drift[j] = dev;
            }
            const lanes_t inv = 1.0 / norm;
            for (long k = 1; k <= N; k++) {
                nr[k] *= inv;
                ni[k] *= inv;
            }
            cur = 1 - cur;
            if (--left == 0) {
                for (long k = 0; k < N; k++)
                    for (int l = 0; l < used; l++) {
                        sample[2 * N * l + 2 * k] = nr[k + 1][l];
                        sample[2 * N * l + 2 * k + 1] = ni[k + 1][l];
                    }
                sample += 2 * N * B;
                left = stride;
            }
        }
        if (!failed)
            for (long k = 0; k < N; k++)
                for (int l = 0; l < used; l++) {
                    row[l][2 * k] = re[cur][k + 1][l];
                    row[l][2 * k + 1] = im[cur][k + 1][l];
                }
    }
    free(buf);
    if (worst >= 0) {
        *fail_step = worst_step;
        *fail_tail = worst_tail;
    }
    return worst;
}
