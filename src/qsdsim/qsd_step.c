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
 * The normals come from numpy's own sampler, random_standard_normal of
 * numpy/random/lib/libnpyrandom.a, called on each generator's bitgen_t
 * in the order Generator.standard_normal uses, so a row's noise stream
 * is the one qsd.draw_noise_block draws from the same generator.
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

/* From numpy/random/distributions.h, which needs Python.h. */
extern double random_standard_normal(bitgen_t *bitgen_state);

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
 * instruction set of its widest lane group, and the group widths go
 * into lanes, widest first.  Returns their count. */
int qsd_stepping_loop(const char **isa, long *lanes)
{
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
