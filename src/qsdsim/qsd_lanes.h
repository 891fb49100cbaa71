/* One lane group of qsd_step.c's stepping loop, for LANES rows.
 *
 * qsd_step.c includes this body once per width, with LANES defined as
 * 8, 4 or 1.  It defines lanes<LANES>_t and run_group<LANES>, which
 * steps one group of rows through a whole call of qsd_segment: the
 * scaffold of row load, samples with their moments, noise draw, tail
 * guard, failure merge, drift, renormalization and store-back is
 * written once, here.  Only the step's arithmetic depends on the width.
 * At LANES 8 and 4, lanes_t is a GCC vector of LANES doubles whose lane
 * l holds row b0 + l, so the vector width runs across rows.  At LANES 1
 * it is a plain double, and the step of the lone row runs its vectors
 * across the row's levels instead: it forms the products in loops with
 * no dependence from level to level, which the compiler vectorizes, and
 * then adds them up level by level, as a lane does.
 */

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
#define lanes_t CAT(lanes, LANES)
#define step_group CAT(step_group, LANES)
#define moments_group CAT(moments_group, LANES)
#define run_group CAT(run_group, LANES)

#if LANES == 1
typedef double lanes_t;
#define LANE(v, l) (v)

/* The terms of one step of a lone row that need no sum over levels:
 * per level k, |psi_k|^2 into pn and the k-th terms of ||psi||^2 <L1>
 * and ||psi||^2 <L2> into (p1r, p1i) and (p2r, p2i), as the lanes of
 * step_group below form them.  r and i are the padded row past its
 * leading zero level.  No level's result feeds another's, and the
 * pointers do not alias, so the compiler vectorizes the loop across
 * levels; gcc honours restrict on parameters only, so these are
 * functions. */
static void row_products(long n, const double *restrict cl,
                         const double *restrict dl, const double *restrict r,
                         const double *restrict i, double *restrict pn,
                         double *restrict p1r, double *restrict p1i,
                         double *restrict p2r, double *restrict p2i)
{
    for (long k = 0; k < n; k++) {
        pn[k] = r[k] * r[k] + i[k] * i[k];
        p1r[k] = cl[k] * (r[k] * r[k + 1] + i[k] * i[k + 1]);
        p1i[k] = cl[k] * (r[k] * i[k + 1] - i[k] * r[k + 1]);
        p2r[k] = dl[k] * (r[k] * r[k - 1] + i[k] * i[k - 1]);
        p2i[k] = dl[k] * (r[k] * i[k - 1] - i[k] * r[k - 1]);
    }
}

/* The new levels (outr, outi) of a lone row and their squares |psi'_k|^2
 * into sq, from the step's coefficients c0, k1 and k2 of step_group:
 * the same expressions, level by level, vectorized across levels. */
static void row_levels(long n, const double *restrict cl,
                       const double *restrict dl, const double *restrict dgr,
                       const double *restrict dgi, double c0r, double c0i,
                       double k1r, double k1i, double k2r, double k2i,
                       const double *restrict r, const double *restrict i,
                       double *restrict outr, double *restrict outi,
                       double *restrict sq)
{
    for (long k = 0; k < n; k++) {
        const double ar = dgr[k] + c0r, ai = dgi[k] + c0i;
        const double ur = cl[k] * r[k + 1], ui = cl[k] * i[k + 1];
        const double vr = dl[k] * r[k - 1], vi = dl[k] * i[k - 1];
        const double or = (ar * r[k] - ai * i[k]) + (k1r * ur - k1i * ui)
                          + (k2r * vr - k2i * vi);
        const double oi = (ar * i[k] + ai * r[k]) + (k1r * ui + k1i * ur)
                          + (k2r * vi + k2i * vr);
        outr[k] = or;
        outi[k] = oi;
        sq[k] = or * or + oi * oi;
    }
}
#else
typedef double lanes_t __attribute__((vector_size(LANES * sizeof(double))));
#define LANE(v, l) (v)[l]
#endif

/* One step of one lane group: reads (re, im), writes (nre, nim); both
 * padded so that index 0 and N + 1 are zero levels.  cl[k] = c_k with
 * cl[N - 1] = 0 couples level k to k + 1; dl[k] = d_{k-1} with
 * dl[0] = 0 couples level k to k - 1; dgr[k] + i dgi[k] = dt g_k.
 * Lane l reads its increments Re xi1, Im xi1, Re xi2, Im xi2 in lane l
 * of xi[0..3].  Stores ||psi'||^2 per lane in *out_sq and the tail part
 * of it in *tail_sq.  work holds the lone row's 6 n products. */
static inline __attribute__((always_inline)) void
step_group(long n, const double *cl, const double *dl, const double *dgr,
           const double *dgi, long tail_start, double dt,
           const lanes_t *xi, const lanes_t *re, const lanes_t *im,
           lanes_t *nre, lanes_t *nim, lanes_t *out_sq, lanes_t *tail_sq,
           double *work)
{
    const lanes_t *r = re + 1, *i = im + 1;
    lanes_t ns = {0}, l1r = {0}, l1i = {0}, l2r = {0}, l2i = {0};
#if LANES == 1
    double *pn = work, *p1r = pn + n, *p1i = p1r + n, *p2r = p1i + n;
    double *p2i = p2r + n, *sq = p2i + n;
    row_products(n, cl, dl, r, i, pn, p1r, p1i, p2r, p2i);
    for (long k = 0; k < n; k++) {
        ns += pn[k];
        l1r += p1r[k];
        l1i += p1i[k];
        l2r += p2r[k];
        l2i += p2i[k];
    }
#else
    (void)work;
    for (long k = 0; k < n; k++) {
        ns += r[k] * r[k] + i[k] * i[k];
        /* <L1> = sum conj(psi_k) c_k psi_{k+1} */
        l1r += cl[k] * (r[k] * r[k + 1] + i[k] * i[k + 1]);
        l1i += cl[k] * (r[k] * i[k + 1] - i[k] * r[k + 1]);
        /* <L2> = sum conj(psi_k) d_{k-1} psi_{k-1} */
        l2r += dl[k] * (r[k] * r[k - 1] + i[k] * i[k - 1]);
        l2i += dl[k] * (r[k] * i[k - 1] - i[k] * r[k - 1]);
    }
#endif
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
#if LANES == 1
    row_levels(n, cl, dl, dgr, dgi, c0r, c0i, k1r, k1i, k2r, k2i, r, i,
               outr, outi, sq);
    for (long k = 0; k < tail_start; k++)
        head += sq[k];
    for (long k = tail_start; k < n; k++)
        tail += sq[k];
#else
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
#endif
    *tail_sq = tail;
    *out_sq = head + tail;
}

/* The six moments of each row of the padded lanes (re, im), written
 * for lanes 0 .. used - 1 to out + 6 l: ||psi||^2; Re and Im of
 * sum conj(psi_k) ra_k psi_{k+1}, which is ||psi||^2 <a>; Re and Im of
 * sum conj(psi_k) ra2_k psi_{k+2}, which is ||psi||^2 <a^2>; and
 * sum k |psi_k|^2, which is ||psi||^2 <n>; ra_k = sqrt(k + 1) and
 * ra2_k = sqrt((k + 1) (k + 2)).  Each moment is one
 * sequential chain over levels per lane, as the step's sums are, and a
 * lone row runs the same loop on plain doubles.  The <a^2> chain stops
 * two levels short of the top, where psi_{k+2} lies past the padding. */
static inline __attribute__((always_inline)) void
moments_group(long n, const double *ra, const double *ra2,
              const lanes_t *re, const lanes_t *im, int used, double *out)
{
    const lanes_t *r = re + 1, *i = im + 1;
    lanes_t ns = {0}, ar = {0}, ai = {0}, br = {0}, bi = {0}, nn = {0};
    for (long k = 0; k < n; k++) {
        const lanes_t sq = r[k] * r[k] + i[k] * i[k];
        ns += sq;
        ar += ra[k] * (r[k] * r[k + 1] + i[k] * i[k + 1]);
        ai += ra[k] * (r[k] * i[k + 1] - i[k] * r[k + 1]);
        if (k < n - 2) {
            br += ra2[k] * (r[k] * r[k + 2] + i[k] * i[k + 2]);
            bi += ra2[k] * (r[k] * i[k + 2] - i[k] * r[k + 2]);
        }
        nn += (double)k * sq;
    }
    for (int l = 0; l < used; l++) {
        double *m = out + 6 * l;
        m[0] = LANE(ns, l);
        m[1] = LANE(ar, l);
        m[2] = LANE(ai, l);
        m[3] = LANE(br, l);
        m[4] = LANE(bi, l);
        m[5] = LANE(nn, l);
    }
}

/* Steps rows b0 .. b0 + LANES - 1 of the call s through s->n steps, or
 * through the step of the earliest failure so far, samples them, raises
 * s->max_drift and merges the group's failures into s in row order.
 * Lanes past s->B - 1 hold copies of row B - 1, draw no noise and are
 * ignored.  The padded (re, im) arrays, two of each, take 4 (N + 2)
 * vectors of the scratch, and the lone row's products 6 N doubles after
 * them. */
static void run_group(struct segment *s, long b0)
{
    const long N = s->N, B = s->B, w = N + 2, tail_start = s->tail_start;
    const double dt = s->dt, tail_tol = s->tail_tol, scale = s->scale;
    const double *cl = s->coef, *dl = cl + N, *dgr = dl + N, *dgi = dgr + N;
    const double *ra = dgi + N, *ra2 = ra + N;
    uint64_t *const streams = s->streams + 4 * b0;
    lanes_t *buf = s->lanes;
    lanes_t *re[2] = {buf, buf + 2 * w};
    lanes_t *im[2] = {buf + w, buf + 3 * w};
    double *work = (double *)(buf + 4 * w);
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
            LANE(re[0][k + 1], l) = row[l][2 * k];
            LANE(im[0][k + 1], l) = row[l][2 * k + 1];
        }
    lanes_t xi[4];
    for (int q = 0; q < 4; q++)
        xi[q] = (lanes_t){0};
    int cur = 0;
    /* a row failing after the earliest failure so far cannot win */
    const long steps = s->worst < 0 ? s->n : s->worst_step;
    double *sample = s->rec + 2 * N * b0, *moments = s->mom + 6 * b0;
    long left = s->left;   /* steps to the next sample */
    double max_drift = s->max_drift;
    int failed = 0;
    for (long j = 0;; j++, left--) {
        const lanes_t *r = re[cur], *i = im[cur];
        if (left == 0) {
            for (long k = 0; k < N; k++)
                for (int l = 0; l < used; l++) {
                    sample[2 * N * l + 2 * k] = LANE(r[k + 1], l);
                    sample[2 * N * l + 2 * k + 1] = LANE(i[k + 1], l);
                }
            moments_group(N, ra, ra2, r, i, used, moments);
            sample += 2 * N * B;
            moments += 6 * B;
            left = s->stride;
        }
        if (j == steps)
            break;
        lanes_t *nr = re[1 - cur], *ni = im[1 - cur];
        lanes_t out_sq, tail_sq;
        for (int l = 0; l < used; l++)
            for (int q = 0; q < 4; q++)
                LANE(xi[q], l) = standard_normal(&g[l]) * scale;
        step_group(N, cl, dl, dgr, dgi, tail_start, dt, xi, r, i, nr, ni,
                   &out_sq, &tail_sq, work);
        const lanes_t tail = tail_sq / out_sq;
        for (int l = 0; l < used; l++) {
            if (LANE(tail, l) <= tail_tol)
                continue;
            /* the group stops after this step, so its lanes are
             * merged here in row order */
            failed = 1;
            merge_failure(s, b0 + l, j + 1, LANE(tail, l));
        }
        if (failed)
            break;
        lanes_t norm = out_sq;
        for (int l = 0; l < LANES; l++)
            LANE(norm, l) = sqrt(LANE(norm, l));
        for (int l = 0; l < used; l++) {
            const double dev = fabs(LANE(norm, l) - 1.0);
            if (dev > max_drift)
                max_drift = dev;
        }
        const lanes_t inv = 1.0 / norm;
        for (long k = 1; k <= N; k++) {
            nr[k] *= inv;
            ni[k] *= inv;
        }
        cur = 1 - cur;
    }
    s->max_drift = max_drift;
    for (int l = 0; l < used; l++)
        pcg64_store(streams + 4 * l, g[l]);
    if (!failed)
        for (long k = 0; k < N; k++)
            for (int l = 0; l < used; l++) {
                row[l][2 * k] = LANE(re[cur][k + 1], l);
                row[l][2 * k + 1] = LANE(im[cur][k + 1], l);
            }
}

#undef LANE
#undef run_group
#undef moments_group
#undef step_group
#undef lanes_t
#undef CAT
#undef CAT_
#undef LANES
