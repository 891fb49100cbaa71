/* Compiled stepping loop of the state-diffusion integrator.
 *
 * qsd_segment advances a (B, N) batch of trajectories through n steps
 * of the Euler-Maruyama update documented in qsd.py.  Each step of a
 * row draws the row's four normals from its own noise stream, and
 * is followed by its norm, the norm-drift high-water mark, the
 * truncation-tail guard and the renormalization.  Every stride-th
 * state, the entry state included, is copied into a caller's buffer of
 * samples with six moments of each row, so one call covers many samples.
 *
 * Rows are stepped in lane groups by one body, qsd_lanes.h, written
 * once and included for each width.  The library is built for the CPU
 * that runs it (-march=native on x86-64, see qsd.py), and the
 * compiler's target picks the widths: where it has AVX-512F a group
 * holds eight rows while more than four are left and four after that;
 * on every other target a group holds four; and on every target a
 * group of exactly one row, a batch of one or the last row of a batch,
 * is the one-lane group, whose vectors run across the row's levels.
 * Each lane does exactly the IEEE operations of a row stepped alone, in
 * the same order: every sum over levels is one sequential chain per
 * row.  So a row's result does not depend on the batch it sits in, nor
 * on its lane group or the group's width.  The file is built with
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
 * qsd_normals before using it, and refuses a build whose tables cannot
 * be found or that fails the check.
 *
 * In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1) raises
 * by one level, with real c and d, and the drift -iH/hbar - sum L^dag
 * L / 2 is the complex diagonal g.  Complex states are stored as
 * interleaved (re, im) doubles.  Inside a lane group they are split
 * into real and imaginary arrays of lanes, padded by one zero level at
 * each end, so no loop of a step needs a boundary case.
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

/* numpy's ziggurat tables, 256 layers: local symbols of its
 * distributions object, made global when qsd.py links that object. */
extern const uint64_t ki_double[256];
extern const double wi_double[256], fi_double[256];
/* The tail starts at r; numpy uses r and 1 / r rounded to doubles. */
static const double ziggurat_nor_r = 3.6541528853610087963519472518;
static const double ziggurat_nor_inv_r = 0.27366123732975827203338247596;

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

/* One call of qsd_segment.  The caller fills it and owns every buffer
 * it points to, so the loop allocates nothing; streams holds B streams
 * of qsd_seed, which the call advances; qsd.py declares it again,
 * field for field, as _Segment.  coef holds the rows cl, dl, dgr, dgi,
 * ra and ra2 of qsd_lanes.h, N doubles each.  lanes is the scratch of
 * one lane group of any width: 4 (N + 2) vectors of eight doubles,
 * aligned to 64 bytes.  left places the samples (see qsd_segment).  The
 * call sets worst, worst_step and worst_tail and raises max_drift. */
struct segment {
    long B, N, n, tail_start, stride, left;
    double dt, tail_tol, scale;
    const double *coef;
    double *psis, *rec, *mom;
    uint64_t *streams;
    void *lanes;
    long worst, worst_step;
    double worst_tail, max_drift;
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

#define LANES 1
#include "qsd_lanes.h"

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

/* Advances every row of s->psis (B rows of N interleaved complex
 * levels) by n steps.  Row b draws each step's increments (Re xi1,
 * Im xi1, Re xi2, Im xi2) as four normals from stream b, each times
 * scale.  max_drift is raised to the largest pre-renormalization
 * | ||psi'|| - 1 | over the batch's rows and steps.
 *
 * Samples: sample s is the state after step left + s stride of the
 * call, step 0 being its entry state, up to step n.  Sample s of row b
 * is copied to rec + 2 N (s B + b), and its six moments (moments_group
 * in qsd_lanes.h) are written to mom + 6 (s B + b); the caller sizes
 * rec and mom for them.
 *
 * A lone last row is stepped as a one-lane group; any other last lane
 * group is padded with copies of row B - 1, whose results, drift and
 * failures are ignored; they draw no noise and step with zero
 * increments.
 *
 * A row fails at the first step whose relative tail mass (the share of
 * ||psi'||^2 in levels tail_start..N-1) is above tail_tol or nan, as
 * a non-finite state makes it.  Among the rows that fail at the
 * earliest step, the first with a nan tail wins, else the first with
 * the largest tail.  Returns that row, also left in s->worst, with its
 * 1-based step in s->worst_step and its tail in s->worst_tail, or -1
 * if no row fails; on failure psis, rec, max_drift and the streams are
 * left partly advanced, and only the samples before the failing step
 * are whole, in rec and in mom. */
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
            run_group1(s, b0);
            break;
        }
        run_group4(s, b0);
        b0 += 4;
    }
    return s->worst;
}

/* The stepping body this library was built with: *isa names the
 * instruction set of its widest lane group, and the group widths go
 * into lanes, widest first, the lone row's one lane last.  Returns
 * their count. */
int qsd_stepping_loop(const char **isa, long *lanes)
{
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
