/* Compiled stepping loop of the state-diffusion integrator.
 *
 * qsd_segment advances a (B, N) batch of trajectories through n steps
 * of the Euler-Maruyama update documented in qsd.py.  Each step of a
 * row draws the row's four normals from its own noise stream, and
 * is followed by its norm, the norm-drift high-water mark, the
 * truncation-tail guard and the renormalization.  Every stride-th step
 * the rows are copied into a caller's buffer of samples, so one call
 * covers many samples.
 *
 * Rows are stepped in lane groups, one row per lane of a GCC vector, so
 * there the vector width runs across rows.  The library is built for the
 * CPU that runs it (-march=native on x86-64, see qsd.py), and the
 * compiler's target picks the widths: where it has AVX-512F a group
 * holds eight rows while more than four are left and four after that;
 * on every other target a group holds four.  The group body,
 * qsd_lanes.h, is written once and included for each width.  A group of
 * exactly one row, a batch of one or the last row of a batch, is
 * stepped instead by run_row below, whose vectors run across the row's
 * levels: it forms each step's products in loops with no dependence
 * from level to level, which the compiler vectorizes, and then adds
 * them up level by level.  Each lane and the lone row do exactly the
 * IEEE operations of a row stepped alone, in the same order: every sum
 * over levels is one sequential chain per row.  So a row's result does
 * not depend on the batch it sits in, nor on its lane group, the
 * group's width or the body that steps it.  The file is built with
 * -ffp-contract=off: no FMA contraction, so the rounding does not
 * depend on the target's instruction set either, and builds for any
 * target give the same bits.
 *
 * The normals are numpy's: each row's noise stream is the one
 * np.random.default_rng(seed).standard_normal draws, bit for bit.  The
 * loop owns the streams.  qsd_seed seeds numpy's PCG64 (O'Neill 2014,
 * XSL-RR output) as numpy's SeedSequence does, and standard_normal
 * below is numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8),
 * 2000) inlined, reading numpy's own tables from
 * numpy/random/lib/libnpyrandom.a and drawing the raw words and doubles
 * from an inline PCG64 step in numpy's order.  qsd.py checks every new
 * build against Generator.standard_normal through qsd_seed and
 * qsd_normals before using it, and builds with -DQSD_NUMPY_SAMPLER,
 * which calls numpy's random_standard_normal on the same streams
 * instead, when the tables cannot be found or the check fails.
 *
 * In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1) raises
 * by one level, with real c and d, and the drift -iH/hbar - sum L^dag
 * L / 2 is the complex diagonal g.  Complex states are stored as
 * interleaved (re, im) doubles.  Inside a lane group they are split
 * into real and imaginary arrays of lane vectors, and a lone row into
 * real and imaginary arrays of doubles, padded by one zero level at
 * each end, so no loop below needs a boundary case.
 */

#include <math.h>
#include <stdint.h>

/* numpy's PCG64: a 128-bit LCG, state * PCG64_MULT + inc, whose output
 * is the XSL-RR permutation of the new state.  A stream is kept as four
 * uint64 words, (state, inc) with the low word of each first, so a
 * (B, 4) uint64 array holds a batch's streams. */
typedef unsigned __int128 u128;
struct pcg64 {
    u128 state, inc;
};
#define PCG64_MULT ((u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL)

static inline struct pcg64 pcg64_load(const uint64_t *w)
{
    return (struct pcg64){(u128)w[1] << 64 | w[0], (u128)w[3] << 64 | w[2]};
}

static inline void pcg64_store(uint64_t *w, struct pcg64 g)
{
    w[0] = (uint64_t)g.state;
    w[1] = (uint64_t)(g.state >> 64);
    w[2] = (uint64_t)g.inc;
    w[3] = (uint64_t)(g.inc >> 64);
}

static inline void pcg64_step(struct pcg64 *g)
{
    g->state = g->state * PCG64_MULT + g->inc;
}

static inline uint64_t next_uint64(struct pcg64 *g)
{
    pcg64_step(g);
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* numpy's next_double: the top 53 bits of a word, times 2^-53 */
static inline double next_double(struct pcg64 *g)
{
    return (next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's SeedSequence hash of one word into its pool (hashmix) and the
 * mix of two pool words (mix), with 32-bit wrap-around. */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* Writes into streams[4 b .. 4 b + 3] the PCG64 stream that
 * np.random.PCG64(seeds[b]) starts: SeedSequence(seed) with its pool of
 * four words, generate_state(4, uint64) words w0..w3, then
 * pcg_setseq_128_srandom_r with state w0:w1 and sequence w2:w3.  A
 * seed's entropy is its 32-bit words, low first, one word below 2^32
 * and two above; the pool hashes a missing word as 0, so both cases
 * are the same two words. */
void qsd_seed(long B, const uint64_t *seeds, uint64_t *streams)
{
    for (long b = 0; b < B; b++) {
        const uint32_t entropy[4] = {(uint32_t)seeds[b],
                                     (uint32_t)(seeds[b] >> 32), 0, 0};
        uint32_t pool[4], hash_const = 0x43b0d7e5u;
        for (int i = 0; i < 4; i++)
            pool[i] = hashmix(entropy[i], &hash_const);
        for (int src = 0; src < 4; src++)
            for (int dst = 0; dst < 4; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst],
                                    hashmix(pool[src], &hash_const));
        uint64_t w[4] = {0};
        uint32_t out_const = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t value = pool[i % 4] ^ out_const;
            out_const *= 0x58f38dedu;
            value *= out_const;
            w[i / 2] |= (uint64_t)(value ^ value >> 16) << (32 * (i % 2));
        }
        struct pcg64 g = {0, ((u128)w[2] << 64 | w[3]) << 1 | 1};
        pcg64_step(&g);
        g.state += (u128)w[0] << 64 | w[1];
        pcg64_step(&g);
        pcg64_store(streams + 4 * b, g);
    }
}

#ifdef QSD_NUMPY_SAMPLER
#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which needs Python.h. */
extern double random_standard_normal(bitgen_t *bitgen_state);
#define SAMPLER "numpy"

static uint64_t bitgen_next_uint64(void *g)
{
    return next_uint64(g);
}

static double bitgen_next_double(void *g)
{
    return next_double(g);
}

/* numpy's sampler, on the stream g wrapped as a numpy bit generator */
static inline double standard_normal(struct pcg64 *g)
{
    bitgen_t bg = {.state = g, .next_uint64 = bitgen_next_uint64,
                   .next_double = bitgen_next_double,
                   .next_raw = bitgen_next_uint64};
    return random_standard_normal(&bg);
}
#else
/* numpy's ziggurat tables, 256 layers: local symbols of its
 * distributions object, made global when qsd.py links that object. */
extern const uint64_t ki_double[256];
extern const double wi_double[256], fi_double[256];
/* The tail starts at r; numpy uses r and 1 / r rounded to doubles. */
static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;
#define SAMPLER "ziggurat"

/* x with its sign bit XORed with bit 0 of sign: exact, -0.0 included,
 * and free of a branch on a random bit. */
static inline double flip(double x, uint64_t sign)
{
    union { double d; uint64_t u; } v = {.d = x};
    v.u ^= sign << 63;
    return v.d;
}

/* numpy's random_standard_normal, bit for bit.  Each try takes one
 * word: bits 0-7 pick the layer, bit 8 the sign and bits 9-60 the
 * abscissa.  About 98.5% of tries return at once; the others test the
 * wedge with one double, or in layer 0 draw the tail two doubles at a
 * time. */
static inline __attribute__((always_inline)) double
standard_normal(struct pcg64 *g)
{
    for (;;) {
        const uint64_t r = next_uint64(g);
        const int idx = r & 0xff;
        const uint64_t rabs = (r >> 9) & 0x000fffffffffffff;
        const double x = flip(rabs * wi_double[idx], r >> 8 & 1);
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                const double xx = -ziggurat_nor_inv_r
                                  * log1p(-next_double(g));
                const double yy = -log1p(-next_double(g));
                if (yy + yy > xx * xx)
                    return flip(ziggurat_nor_r + xx, rabs >> 8 & 1);
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * next_double(g)
            + fi_double[idx] < exp(-0.5 * x * x))
            return x;
    }
}
#endif

/* n normals from the stream into out, as the loop draws them, and the
 * stream advanced past them: the self-check that qsd.py runs on each
 * new build. */
void qsd_normals(uint64_t *stream, long n, double *out)
{
    struct pcg64 g = pcg64_load(stream);
    for (long i = 0; i < n; i++)
        out[i] = standard_normal(&g);
    pcg64_store(stream, g);
}

/* n raw words from the stream into out, as PCG64.random_raw gives them */
void qsd_raw(uint64_t *stream, long n, uint64_t *out)
{
    struct pcg64 g = pcg64_load(stream);
    for (long i = 0; i < n; i++)
        out[i] = next_uint64(&g);
    pcg64_store(stream, g);
}

/* One call of qsd_segment.  The caller fills it and owns every buffer
 * it points to, so the loop allocates nothing; streams holds B streams
 * of qsd_seed, which the call advances; qsd.py declares it again,
 * field for field, as _Segment.  coef holds the rows cl, dl, dgr and dgi
 * of qsd_lanes.h, N doubles each.  lanes is the scratch of one lane
 * group or lone row: 4 (N + 2) vectors of eight doubles, aligned to 64
 * bytes.  The call sets worst, worst_step and worst_tail. */
struct segment {
    long B, N, n, tail_start, stride;
    double dt, tail_tol, scale;
    const double *coef;
    double *psis, *rec, *drift;
    uint64_t *streams;
    void *lanes;
    long worst, worst_step;
    double worst_tail;
};

/* Its size, which qsd.py compares with _Segment's before any call. */
const long qsd_segment_size = sizeof(struct segment);

/* Merges into s the failure of row b at the 1-based step with the
 * relative tail mass tail, under the batch's rule: the earliest step
 * wins, then the first row with a nan tail, then the first with the
 * largest tail.  Rows are merged in row order. */
static void merge_failure(struct segment *s, long b, long step, double tail)
{
    if (step < s->worst_step
        || (step == s->worst_step && !isnan(s->worst_tail)
            && (isnan(tail) || tail > s->worst_tail))) {
        s->worst = b;
        s->worst_step = step;
        s->worst_tail = tail;
    }
}

#define LANES 4
#include "qsd_lanes.h"

#ifdef __AVX512F__
/* Eight lanes: the 32 registers of eight doubles of AVX-512 hold a
 * group's working set, which spills from the 16 registers of AVX (an
 * eight-lane group built for AVX2 ran slower than two four-lane
 * groups). */
#define LANES 8
#include "qsd_lanes.h"
#endif

/* The terms of one step of a lone row that need no sum over levels:
 * per level k, |psi_k|^2 into pn and the k-th terms of ||psi||^2 <L1>
 * and ||psi||^2 <L2> into (p1r, p1i) and (p2r, p2i), as step_group of
 * qsd_lanes.h forms them in one lane.  r and i are the padded row past
 * its leading zero level.  No level's result feeds another's, and the
 * pointers do not alias, so the compiler vectorizes the loop across
 * levels. */
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

/* Steps row b of the call s alone, as run_group steps a lane: through
 * s->n steps, or through the step of the earliest failure so far, and
 * merges its failure into s.  The row's padded (re, im) arrays, two of
 * each, and the six product arrays of row_products and row_levels, N
 * doubles each, take 4 (N + 2) + 6 N of the scratch's 32 (N + 2)
 * doubles.  Every sum over levels adds the products in level order, so
 * the row rounds exactly as a lane does. */
static void run_row(struct segment *s, long b)
{
    const long N = s->N, B = s->B, w = N + 2, tail_start = s->tail_start;
    const double dt = s->dt, tail_tol = s->tail_tol, scale = s->scale;
    const double *cl = s->coef, *dl = cl + N, *dgr = dl + N, *dgi = dgr + N;
    double *drift = s->drift, *row = s->psis + 2 * N * b;
    double *buf = s->lanes;
    double *re[2] = {buf, buf + 2 * w};
    double *im[2] = {buf + w, buf + 3 * w};
    double *pn = buf + 4 * w, *p1r = pn + N, *p1i = p1r + N;
    double *p2r = p1i + N, *p2i = p2r + N, *sq = p2i + N;
    struct pcg64 g = pcg64_load(s->streams + 4 * b);
    for (int c = 0; c < 2; c++)
        re[c][0] = re[c][N + 1] = im[c][0] = im[c][N + 1] = 0.0;
    for (long k = 0; k < N; k++) {
        re[0][k + 1] = row[2 * k];
        im[0][k + 1] = row[2 * k + 1];
    }
    int cur = 0;
    /* a row failing after the earliest failure so far cannot win */
    const long steps = s->worst < 0 ? s->n : s->worst_step;
    double *sample = s->rec + 2 * N * b;
    long left = s->stride;   /* steps to the next sample */
    int failed = 0;
    for (long j = 0; j < steps; j++) {
        const double *r = re[cur] + 1, *i = im[cur] + 1;
        double *nr = re[1 - cur], *ni = im[1 - cur];
        double xi[4];
        for (int q = 0; q < 4; q++)
            xi[q] = standard_normal(&g) * scale;
        row_products(N, cl, dl, r, i, pn, p1r, p1i, p2r, p2i);
        double ns = 0.0, l1r = 0.0, l1i = 0.0, l2r = 0.0, l2i = 0.0;
        for (long k = 0; k < N; k++) {
            ns += pn[k];
            l1r += p1r[k];
            l1i += p1i[k];
            l2r += p2r[k];
            l2i += p2i[k];
        }
        l1r /= ns;
        l1i /= ns;
        l2r /= ns;
        l2i /= ns;
        const double x1r = xi[0], x1i = xi[1], x2r = xi[2], x2i = xi[3];
        const double c0r = 1.0 - 0.5 * dt * (l1r * l1r + l1i * l1i
                                             + l2r * l2r + l2i * l2i)
                           - (l1r * x1r - l1i * x1i + l2r * x2r - l2i * x2i);
        const double c0i = -(l1r * x1i + l1i * x1r + l2r * x2i + l2i * x2r);
        row_levels(N, cl, dl, dgr, dgi, c0r, c0i, l1r * dt + x1r,
                   x1i - l1i * dt, l2r * dt + x2r, x2i - l2i * dt, r, i,
                   nr + 1, ni + 1, sq);
        double head = 0.0, tail_sq = 0.0;
        for (long k = 0; k < tail_start; k++)
            head += sq[k];
        for (long k = tail_start; k < N; k++)
            tail_sq += sq[k];
        const double out_sq = head + tail_sq, tail = tail_sq / out_sq;
        if (!(tail <= tail_tol)) {
            merge_failure(s, b, j + 1, tail);
            failed = 1;
            break;
        }
        const double norm = sqrt(out_sq), dev = fabs(norm - 1.0);
        if (dev > drift[j])
            drift[j] = dev;
        const double inv = 1.0 / norm;
        for (long k = 1; k <= N; k++) {
            nr[k] *= inv;
            ni[k] *= inv;
        }
        cur = 1 - cur;
        if (--left == 0) {
            for (long k = 0; k < N; k++) {
                sample[2 * k] = nr[k + 1];
                sample[2 * k + 1] = ni[k + 1];
            }
            sample += 2 * N * B;
            left = s->stride;
        }
    }
    pcg64_store(s->streams + 4 * b, g);
    if (!failed)
        for (long k = 0; k < N; k++) {
            row[2 * k] = re[cur][k + 1];
            row[2 * k + 1] = im[cur][k + 1];
        }
}

/* Advances every row of s->psis (B rows of N interleaved complex
 * levels) by n steps.  Row b draws each step's increments (Re xi1,
 * Im xi1, Re xi2, Im xi2) as four normals from stream b, each times
 * scale.  drift[j] is raised to the largest | ||psi'|| - 1 | of step j
 * over the batch.
 *
 * Samples: the call starts on a sample boundary, so sample s falls
 * after step (s + 1) stride.  Sample s of row b is copied to
 * rec + 2 N (s B + b); the caller sizes rec for the samples that land
 * within n steps.
 *
 * A lone last row is stepped by run_row; any other last lane group is
 * padded with copies of row B - 1, whose results, drift and failures are
 * ignored; they draw no noise and step with zero increments.
 *
 * A row fails at the first step whose relative tail mass (the share of
 * ||psi'||^2 in levels tail_start..N-1) is above tail_tol or nan, as
 * a non-finite state makes it.  Among the rows that fail at the
 * earliest step, the first with a nan tail wins, else the first with
 * the largest tail.  Returns that row, also left in s->worst, with its
 * 1-based step in s->worst_step and its tail in s->worst_tail, or -1
 * if no row fails; on failure psis, rec, drift and the streams are
 * left partly advanced, and only the samples before the failing step
 * are whole. */
long qsd_segment(struct segment *s)
{
    s->worst = -1;
    s->worst_step = s->n + 1;
    s->worst_tail = 0.0;
    for (long b0 = 0; b0 < s->B;) {
#ifdef __AVX512F__
        /* eight-lane groups while more than four rows are left: a group
         * of at most four rows steps faster at four lanes */
        if (s->B - b0 > 4) {
            run_group8(s, b0);
            b0 += 8;
            continue;
        }
#endif
        /* one row steps faster alone than in a group of idle lanes */
        if (s->B - b0 == 1) {
            run_row(s, b0);
            break;
        }
        run_group4(s, b0);
        b0 += 4;
    }
    return s->worst;
}

/* The stepping body this library was built with: *isa names the
 * instruction set of its widest lane group, *sampler the normal
 * sampler, and the group widths go into lanes, widest first, with the
 * lone row of run_row last as a width of one.  Returns their count. */
int qsd_stepping_loop(const char **isa, const char **sampler, long *lanes)
{
    *sampler = SAMPLER;
#ifdef __AVX512F__
    *isa = "avx512f";
    lanes[0] = 8;
    lanes[1] = 4;
    lanes[2] = 1;
    return 3;
#else
#ifdef __AVX__
    *isa = "avx";
#else
    *isa = "default";
#endif
    lanes[0] = 4;
    lanes[1] = 1;
    return 2;
#endif
}
