/* Compiled stepping loop of the state-diffusion integrator.
 *
 * qsd_segment advances a (B, N) batch of trajectories through n steps
 * of the Euler-Maruyama update documented in qsd.py.  Each step of a
 * row is followed by its norm, the norm-drift high-water mark, the
 * truncation-tail guard and the renormalization.  Rows are stepped one
 * at a time, so a row's result does not depend on the batch it sits in.
 *
 * In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1) raises
 * by one level, with real c and d, and the drift -iH/hbar - sum L^dag
 * L / 2 is the complex diagonal g.  Complex numbers are stored as
 * interleaved (re, im) doubles.  Inside a row they are split into real
 * and imaginary arrays padded by one zero level at each end, so no
 * loop below needs a boundary case and the update loop vectorizes.
 * The file is built with -ffp-contract=off: no FMA contraction, so the
 * rounding does not depend on the target's instruction set.
 */

#include <math.h>
#include <stdlib.h>

/* One step of one row: reads (re, im), writes (nre, nim); both padded
 * so that index 0 and N + 1 are zero levels.  cl[k] = c_k with
 * cl[N - 1] = 0 couples level k to k + 1; dl[k] = d_{k-1} with
 * dl[0] = 0 couples level k to k - 1.  Returns ||psi'||^2 and stores
 * the tail part of it in *tail_sq. */
static double step_row(long n, const double *cl, const double *dl,
                       const double *gr, const double *gi, long tail_start,
                       double dt, const double *xi, const double *re,
                       const double *im, double *nre, double *nim,
                       double *tail_sq)
{
    const double *r = re + 1, *i = im + 1;
    double ns = 0.0, l1r = 0.0, l1i = 0.0, l2r = 0.0, l2i = 0.0;
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
    const double x1r = xi[0], x1i = xi[1], x2r = xi[2], x2i = xi[3];
    /* psi' = (1 + dt g - dt (|<L1>|^2 + |<L2>|^2) / 2
     *         - <L1> xi1 - <L2> xi2) psi
     *        + (conj<L1> dt + xi1) L1 psi + (conj<L2> dt + xi2) L2 psi */
    const double c0r = 1.0 - 0.5 * dt * (l1r * l1r + l1i * l1i
                                         + l2r * l2r + l2i * l2i)
                       - (l1r * x1r - l1i * x1i + l2r * x2r - l2i * x2i);
    const double c0i = -(l1r * x1i + l1i * x1r + l2r * x2i + l2i * x2r);
    const double k1r = l1r * dt + x1r, k1i = x1i - l1i * dt;
    const double k2r = l2r * dt + x2r, k2i = x2i - l2i * dt;
    double *outr = nre + 1, *outi = nim + 1;
    for (long k = 0; k < n; k++) {
        const double ar = dt * gr[k] + c0r, ai = dt * gi[k] + c0i;
        const double ur = cl[k] * r[k + 1], ui = cl[k] * i[k + 1];
        const double vr = dl[k] * r[k - 1], vi = dl[k] * i[k - 1];
        outr[k] = (ar * r[k] - ai * i[k]) + (k1r * ur - k1i * ui)
                  + (k2r * vr - k2i * vi);
        outi[k] = (ar * i[k] + ai * r[k]) + (k1r * ui + k1i * ur)
                  + (k2r * vi + k2i * vr);
    }
    double head = 0.0, tail = 0.0;
    for (long k = 0; k < tail_start; k++)
        head += outr[k] * outr[k] + outi[k] * outi[k];
    for (long k = tail_start; k < n; k++)
        tail += outr[k] * outr[k] + outi[k] * outi[k];
    *tail_sq = tail;
    return head + tail;
}

/* Advances every row of psis (B rows of N interleaved complex levels)
 * by n steps.  Row b reads step j's increments (Re xi1, Im xi1, Re xi2,
 * Im xi2) at noise[b * noise_stride + 4 * j].  c and d hold N - 1 real
 * band coefficients, g holds N interleaved complex ones.  drift[j] is
 * raised to the largest | ||psi'|| - 1 | of step j over the batch.
 *
 * A row fails at the first step whose relative tail mass (the share of
 * ||psi'||^2 in levels tail_start..N-1) is above tail_tol or nan, as
 * a non-finite noise increment makes it.  Among the rows that fail at
 * the earliest step, the first with a nan tail wins, else the first
 * with the largest tail.  Returns that row, with its 1-based step in
 * *fail_step and its tail in *fail_tail, or -1 if no row fails; on
 * failure psis and drift are left partly advanced.  Returns -2 if
 * memory runs out. */
long qsd_segment(long B, long N, long n, const double *c, const double *d,
                 const double *g, long tail_start, double dt,
                 double tail_tol, double *psis, const double *noise,
                 long noise_stride, double *drift, long *fail_step,
                 double *fail_tail)
{
    const long w = N + 2;
    double *buf = calloc((size_t)(8 * w), sizeof(double));
    if (!buf)
        return -2;
    double *cl = buf, *dl = buf + w, *gr = buf + 2 * w, *gi = buf + 3 * w;
    double *re[2] = {buf + 4 * w, buf + 6 * w};
    double *im[2] = {buf + 5 * w, buf + 7 * w};
    for (long k = 0; k < N - 1; k++) {
        cl[k] = c[k];
        dl[k + 1] = d[k];
    }
    for (long k = 0; k < N; k++) {
        gr[k] = g[2 * k];
        gi[k] = g[2 * k + 1];
    }
    long worst = -1, worst_step = n + 1;
    double worst_tail = 0.0;
    for (long b = 0; b < B; b++) {
        double *row = psis + 2 * N * b;
        const double *xi = noise + noise_stride * b;
        int cur = 0;
        for (long k = 0; k < N; k++) {
            re[0][k + 1] = row[2 * k];
            im[0][k + 1] = row[2 * k + 1];
        }
        /* a row failing after the earliest failure so far cannot win */
        const long steps = worst < 0 ? n : worst_step;
        long j;
        for (j = 0; j < steps; j++) {
            const double *r = re[cur], *i = im[cur];
            double *nr = re[1 - cur], *ni = im[1 - cur];
            double tail_sq;
            const double out_sq = step_row(N, cl, dl, gr, gi, tail_start,
                                           dt, xi + 4 * j, r, i, nr, ni,
                                           &tail_sq);
            const double tail = tail_sq / out_sq;
            if (!(tail <= tail_tol)) {
                const long s = j + 1;
                if (s < worst_step
                    || (s == worst_step && !isnan(worst_tail)
                        && (isnan(tail) || tail > worst_tail))) {
                    worst = b;
                    worst_step = s;
                    worst_tail = tail;
                }
                break;
            }
            const double norm = sqrt(out_sq);
            const double dev = fabs(norm - 1.0);
            if (dev > drift[j])
                drift[j] = dev;
            const double inv = 1.0 / norm;
            for (long k = 1; k <= N; k++) {
                nr[k] *= inv;
                ni[k] *= inv;
            }
            cur = 1 - cur;
        }
        if (j == steps)
            for (long k = 0; k < N; k++) {
                row[2 * k] = re[cur][k + 1];
                row[2 * k + 1] = im[cur][k + 1];
            }
    }
    free(buf);
    if (worst >= 0) {
        *fail_step = worst_step;
        *fail_tail = worst_tail;
    }
    return worst;
}
