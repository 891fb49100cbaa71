/* One lane group of qsd_step.c's stepping loop, for LANES rows.
 *
 * qsd_step.c includes this body once per lane width, with LANES defined.
 * It defines lanes<LANES>_t, a GCC vector of LANES doubles, and
 * run_group<LANES>, which steps one group of rows through a whole call
 * of qsd_segment.  Lane l of a vector holds row b0 + l, so the vector
 * width runs across rows, never within one.
 */

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
#define lanes_t CAT(lanes, LANES)
#define step_group CAT(step_group, LANES)
#define run_group CAT(run_group, LANES)

typedef double lanes_t __attribute__((vector_size(LANES * sizeof(double))));

/* One step of one lane group: reads (re, im), writes (nre, nim); both
 * padded so that index 0 and N + 1 are zero levels.  cl[k] = c_k with
 * cl[N - 1] = 0 couples level k to k + 1; dl[k] = d_{k-1} with
 * dl[0] = 0 couples level k to k - 1; dgr[k] + i dgi[k] = dt g_k.
 * Lane l reads its increments Re xi1, Im xi1, Re xi2, Im xi2 in lane l
 * of xi[0..3].  Stores ||psi'||^2 per lane in *out_sq and the tail part
 * of it in *tail_sq. */
static inline __attribute__((always_inline)) void
step_group(long n, const double *cl, const double *dl, const double *dgr,
           const double *dgi, long tail_start, double dt,
           const lanes_t *xi, const lanes_t *re, const lanes_t *im,
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
    const lanes_t x1r = xi[0], x1i = xi[1], x2r = xi[2], x2i = xi[3];
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

/* Steps rows b0 .. b0 + LANES - 1 of the call s through s->n steps, or
 * through the step of the earliest failure so far, and merges the
 * group's failures into s in row order.  Lanes past s->B - 1 hold
 * copies of row B - 1, draw no noise and are ignored. */
static void run_group(struct segment *s, long b0)
{
    const long N = s->N, B = s->B, w = N + 2, tail_start = s->tail_start;
    const double dt = s->dt, tail_tol = s->tail_tol, scale = s->scale;
    const double *cl = s->coef, *dl = cl + N, *dgr = dl + N, *dgi = dgr + N;
    double *drift = s->drift;
    uint64_t *const streams = s->streams + 4 * b0;
    lanes_t *buf = s->lanes;
    lanes_t *re[2] = {buf, buf + 2 * w};
    lanes_t *im[2] = {buf + w, buf + 3 * w};
    const int used = B - b0 < LANES ? (int)(B - b0) : LANES;
    double *row[LANES];
    for (int l = 0; l < LANES; l++)
        row[l] = s->psis + 2 * N * (l < used ? b0 + l : B - 1);
    struct pcg64 g[LANES];
    for (int l = 0; l < used; l++)
        g[l] = pcg64_load(streams + 4 * l);
    for (int c = 0; c < 2; c++)
        re[c][0] = re[c][N + 1] = im[c][0] = im[c][N + 1] = (lanes_t){0};
    for (long k = 0; k < N; k++)
        for (int l = 0; l < LANES; l++) {
            re[0][k + 1][l] = row[l][2 * k];
            im[0][k + 1][l] = row[l][2 * k + 1];
        }
    lanes_t xi[4] = {{0}};
    int cur = 0;
    /* a row failing after the earliest failure so far cannot win */
    const long steps = s->worst < 0 ? s->n : s->worst_step;
    double *sample = s->rec + 2 * N * b0;
    long left = s->stride;   /* steps to the next sample */
    int failed = 0;
    for (long j = 0; j < steps; j++) {
        const lanes_t *r = re[cur], *i = im[cur];
        lanes_t *nr = re[1 - cur], *ni = im[1 - cur];
        lanes_t out_sq, tail_sq;
        for (int l = 0; l < used; l++)
            for (int q = 0; q < 4; q++)
                xi[q][l] = standard_normal(&g[l]) * scale;
        step_group(N, cl, dl, dgr, dgi, tail_start, dt, xi, r, i, nr, ni,
                   &out_sq, &tail_sq);
        const lanes_t tail = tail_sq / out_sq;
        for (int l = 0; l < used; l++) {
            if (tail[l] <= tail_tol)
                continue;
            /* the group stops after this step, so its lanes are
             * merged here in row order under the batch's rule */
            failed = 1;
            if (j + 1 < s->worst_step
                || (j + 1 == s->worst_step && !isnan(s->worst_tail)
                    && (isnan(tail[l]) || tail[l] > s->worst_tail))) {
                s->worst = b0 + l;
                s->worst_step = j + 1;
                s->worst_tail = tail[l];
            }
        }
        if (failed)
            break;
        lanes_t norm = out_sq;
        for (int l = 0; l < LANES; l++)
            norm[l] = sqrt(norm[l]);
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
            left = s->stride;
        }
    }
    for (int l = 0; l < used; l++)
        pcg64_store(streams + 4 * l, g[l]);
    if (!failed)
        for (long k = 0; k < N; k++)
            for (int l = 0; l < used; l++) {
                row[l][2 * k] = re[cur][k + 1][l];
                row[l][2 * k + 1] = im[cur][k + 1][l];
            }
}

#undef run_group
#undef step_group
#undef lanes_t
#undef CAT
#undef CAT_
#undef LANES
