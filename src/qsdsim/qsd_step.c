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
 * Rows are stepped in lane groups, one row per lane of a GCC vector, so
 * the vector width runs across rows, never within one.  The library is
 * built for the CPU that runs it (-march=native on x86-64, see qsd.py),
 * and the compiler's target picks the widths: where it has AVX-512F a
 * group holds eight rows while more than four are left and four after
 * that; on every other target a group holds four.  The group body,
 * qsd_lanes.h, is written once and included for each width.  Each lane
 * does exactly the IEEE operations of a row stepped alone, in the same
 * order: every sum over levels is one sequential chain per row.  So a
 * row's result does not depend on the batch it sits in, nor on its lane
 * group or the group's width.  The file is built with -ffp-contract=off:
 * no FMA contraction, so the rounding does not depend on the target's
 * instruction set either, and builds for any target give the same bits.
 *
 * The normals are numpy's: standard_normal below is numpy's ziggurat
 * (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) inlined, reading
 * numpy's own tables from numpy/random/lib/libnpyrandom.a and drawing
 * the raw words and doubles from each generator's bitgen_t in numpy's
 * order, so a row's noise stream is the one Generator.standard_normal
 * draws from the same generator.  qsd.py checks every new build against
 * Generator.standard_normal through qsd_normals before using it, and
 * builds with -DQSD_NUMPY_SAMPLER, which calls numpy's
 * random_standard_normal instead, when the tables cannot be found or
 * the check fails.
 *
 * In the Fock basis L1 = diag(c, 1) lowers and L2 = diag(d, -1) raises
 * by one level, with real c and d, and the drift -iH/hbar - sum L^dag
 * L / 2 is the complex diagonal g.  Complex states are stored as
 * interleaved (re, im) doubles.  Inside a lane group they are split
 * into real and imaginary arrays of lane vectors, padded by one zero
 * level at each end, so no loop below needs a boundary case.
 */

#include <math.h>

#include "numpy/random/bitgen.h"

#ifdef QSD_NUMPY_SAMPLER
/* From numpy/random/distributions.h, which needs Python.h. */
extern double random_standard_normal(bitgen_t *bitgen_state);
#define standard_normal random_standard_normal
#define SAMPLER "numpy"
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
standard_normal(bitgen_t *bg)
{
    for (;;) {
        const uint64_t r = bg->next_uint64(bg->state);
        const int idx = r & 0xff;
        const uint64_t rabs = (r >> 9) & 0x000fffffffffffff;
        const double x = flip(rabs * wi_double[idx], r >> 8 & 1);
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                const double xx = -ziggurat_nor_inv_r
                                  * log1p(-bg->next_double(bg->state));
                const double yy = -log1p(-bg->next_double(bg->state));
                if (yy + yy > xx * xx)
                    return flip(ziggurat_nor_r + xx, rabs >> 8 & 1);
            }
        }
        if ((fi_double[idx - 1] - fi_double[idx]) * bg->next_double(bg->state)
            + fi_double[idx] < exp(-0.5 * x * x))
            return x;
    }
}
#endif

/* n normals from bg into out, as the loop draws them: the self-check
 * that qsd.py runs on each new build. */
void qsd_normals(bitgen_t *bg, long n, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = standard_normal(bg);
}

/* One call of qsd_segment.  The caller fills it and owns every buffer
 * it points to, so the loop allocates nothing; qsd.py declares it again,
 * field for field, as _Segment.  coef holds the rows cl, dl, dgr and dgi
 * of qsd_lanes.h, N doubles each.  lanes is one lane group's scratch:
 * 4 (N + 2) vectors of eight doubles, aligned to 64 bytes.  The call
 * sets worst, worst_step and worst_tail. */
struct segment {
    long B, N, n, tail_start, stride;
    double dt, tail_tol, scale;
    const double *coef;
    double *psis, *rec, *drift;
    bitgen_t *const *rngs;
    void *lanes;
    long worst, worst_step;
    double worst_tail;
};

/* Its size, which qsd.py compares with _Segment's before any call. */
const long qsd_segment_size = sizeof(struct segment);

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
 * Im xi1, Re xi2, Im xi2) as four normals from rngs[b], each times
 * scale.  drift[j] is raised to the largest | ||psi'|| - 1 | of step j
 * over the batch.
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
 * the largest tail.  Returns that row, also left in s->worst, with its
 * 1-based step in s->worst_step and its tail in s->worst_tail, or -1
 * if no row fails; on failure psis, rec, drift and the generators are
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
        run_group4(s, b0);
        b0 += 4;
    }
    return s->worst;
}

/* The stepping body this library was built with: *isa names the
 * instruction set of its widest lane group, *sampler the normal
 * sampler, and the group widths go into lanes, widest first.  Returns
 * their count. */
int qsd_stepping_loop(const char **isa, const char **sampler, long *lanes)
{
    *sampler = SAMPLER;
#ifdef __AVX512F__
    *isa = "avx512f";
    lanes[0] = 8;
    lanes[1] = 4;
    return 2;
#else
#ifdef __AVX__
    *isa = "avx";
#else
    *isa = "default";
#endif
    lanes[0] = 4;
    return 1;
#endif
}
