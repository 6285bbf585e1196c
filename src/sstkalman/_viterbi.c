/* Add-compare-select of the main Viterbi decoder with survivor registers,
   and the passes around it (after the kernel): simulate's draw from numpy's
   Philox streams (draw_block), the receiver's stream pass (sst_stream) and
   the scatter of the Sigma_r sample (sigma_r_scatter).

   Every GF(2) filter here is bit-sliced (filter_word): the draw's encoder
   and the stream pass's pre-decoder and re-encoder run on uint64 words of
   64 steps, bit j for step j, so a tap costs one shift and one XOR per 64
   branches.  The stream pass forms z, the hard decisions and the signs of r
   in GCC vectors of NATIVE doubles (below), NATIVE / 2 branches at a time,
   in every 64-step window alike: one that reaches past the block's ends is
   first copied into zeroed stack buffers (window).  Its counts of the
   strided v rows leave the caller no pass over them.  The Sigma_r scatter
   reads v and w as contiguous (n, 2) rows and adds up in row order.

   State bit j holds the input from j+1 steps ago.  State s is entered on
   input s & 1 from s >> 1 (branch register s) and from (s >> 1) + 2^(nu-1)
   (register s + 2^nu); output l of a branch is the parity of g_l AND its
   register.  A path metric is (m + r0 sign0) + r1 sign1, rounded after
   each operation (build with -ffp-contract=off) as numpy evaluates it.
   Ties keep the branch from s >> 1 and the lowest-index best state.

   The ACS runs over butterflies: lane j reads the metrics of states j and
   j + 2^(nu-1) and writes states 2j and 2j + 1.  It works in GCC vectors
   of W doubles, W = min(native, max(2, 2^(nu-1))) (viterbi_width), where
   the native width comes from the predefined macros: 8 with AVX-512F, 4
   with AVX, 2 otherwise.  A narrow code in a wide vector would fill few
   of its lanes and pay the full cross-lane reduction each step, so this
   file holds the kernel once for each width up to the native one (it
   includes itself with W set) and `viterbi` picks one per call.  gcc does
   not vectorise a plain butterfly loop, and a vector wider than the
   target, lowered to SSE2, runs slower than scalar code, so the kernel is
   built with -march=native (and cached under the host CPU's name).  There
   are lanes = max(2^(nu-1), 2) lanes (viterbi_lanes).  At nu = 1 the one
   lane past 2^(nu-1) carries NaN signs: its metrics are NaN, which never
   wins a compare, so every nu runs the same loop.  The best state is the
   lowest one with the top metric.  The caller keeps sum |r| below 2^1020,
   and a metric is 0 or -1e30 plus a sum of +-r values, so every metric
   stays finite (the roundings of fewer than 2^40 steps grow that bound by
   less than 2^-12) and every step has a top metric above -inf.

   work is the caller's buffer of 8 * (12 + 4 * words) * lanes bytes (words
   below) and 64 more: the kernel starts its planes on the buffer's first
   64-byte boundary, since numpy aligns to 16 bytes only and a vector load
   across two cache lines is slow (at nu = 10, 1.3-1.5x the time a step).
   From there it holds 12 * lanes doubles, the metrics and the next metrics
   (2 * lanes each, in state order; entries from 2^nu on are NaN) and the
   signs, eight vectors per W lanes, and then reg, the survivor registers.

   Survivors are kept by register exchange (Feygin and Gulak, IEEE Trans.
   Commun. 41(3), 1993), not traced back: every state holds its survivor's
   inputs, bit i of its register being the input i steps back.  With
   T = truncation a register takes words = T / 64 + 1 uint64 words, so bit
   T is always held.  reg holds two planes of words * 2 * lanes words, the
   registers and the next ones, swapped each step like the metrics; in a
   plane, word w of state s is entry w * 2 * lanes + s, so one vector
   loads word w of W states.  The ACS picks each state's predecessor words
   with the masks that pick its metric, shifts in the input bit (word w
   takes the top bit of word w - 1) and interleaves them into state order
   with the shuffles of the metrics.  Bit t of out is bit T of the best
   state's register T = truncation steps later; the last T bits come from
   the final best state's register.

   The SST main decoder's input is mostly 00, so its survivors merge well
   inside T: where every register holds the same bit T, that bit is the
   output whichever state is best.  So each step ORs and ANDs the new
   registers' last word, the one with bit T, over the vectors, reduces
   them across the lanes once (differ) and looks for the best state only
   where the survivors disagree, by a pass over the new metrics
   (best_state).  From there to the next 64-step boundary the ACS keeps
   each lane's best state as it goes and every step reduces them
   (reduce_best), so dense input pays no branch miss per step.  The same
   pass gives the final best state.  A step that skips the search keeps a
   stale best state, which only such steps read. */

#ifndef W

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX512F__)
#define NATIVE 8
#elif defined(__AVX__)
#define NATIVE 4
#else
#define NATIVE 2
#endif

#define JOIN_(a, b) a##b
#define JOIN(a, b) JOIN_(a, b)
/* the types and helpers of the kernel at width W take the suffix W */
#define vd JOIN(vd, W)
#define vi JOIN(vi, W)
#define vu JOIN(vu, W)
#define load JOIN(load, W)
#define store JOIN(store, W)
#define load_u JOIN(load_u, W)
#define store_u JOIN(store_u, W)
#define pick_i JOIN(pick_i, W)
#define pick JOIN(pick, W)
#define pick_u JOIN(pick_u, W)
#define keep JOIN(keep, W)
#define reduce_best JOIN(reduce_best, W)
#define best_state JOIN(best_state, W)
#define differ JOIN(differ, W)

typedef double vnd __attribute__((vector_size(8 * NATIVE)));
typedef int64_t vni __attribute__((vector_size(8 * NATIVE)));
typedef uint64_t vnu __attribute__((vector_size(8 * NATIVE)));

static double sign_of(uint64_t g, uint64_t reg)
{
    return __builtin_parityll(g & reg) ? -1.0 : 1.0;
}

#define W 2
#include "_viterbi.c"
#undef W
#if NATIVE >= 4
#define W 4
#include "_viterbi.c"
#undef W
#endif
#if NATIVE >= 8
#define W 8
#include "_viterbi.c"
#undef W
#endif

/* the vector width for memory nu: 2^(nu-1) doubles, at least 2, at most native */
int viterbi_width(int nu)
{
    const int64_t half = (int64_t)1 << (nu - 1);
    return half < 2 ? 2 : half < NATIVE ? (int)half : NATIVE;
}

/* the lanes of a plane for memory nu: 2^(nu-1), at least one vector of 2 */
int64_t viterbi_lanes(int nu)
{
    const int64_t half = (int64_t)1 << (nu - 1);
    return half < 2 ? 2 : half;
}

void viterbi(const double *r, int64_t n, int nu, uint64_t g0, uint64_t g1,
             int64_t truncation, void *work, uint8_t *out)
{
    /* entry i is the kernel of width 2^(i+1) */
    static __typeof__(viterbi2) *const run[] = {
        viterbi2,
#if NATIVE >= 4
        viterbi4,
#endif
#if NATIVE >= 8
        viterbi8,
#endif
    };

    double *const plane = (double *)(((uintptr_t)work + 63) & ~(uintptr_t)63);

    run[__builtin_ctz((unsigned)viterbi_width(nu)) - 1](
        r, n, nu, g0, g1, truncation, plane, (uint64_t *)(plane + 12 * viterbi_lanes(nu)), out);
}

/* The GF(2) filter with taps (lo, hi) on 64 steps at once, bit-sliced
   (Biham, FSE 1997): lo is the coefficient of D^0 and bit j of hi that of
   D^(j+1), so a tap mask of degree up to 64 fits.  Bit j of a word is step
   j of its 64, now holds the stream's bits of these steps and prev those of
   the 64 before.  Tap d in 1..63 reads now << d | prev >> (64 - d), and tap
   64 reads prev. */
static inline uint64_t filter_word(uint64_t lo, uint64_t hi, uint64_t now, uint64_t prev)
{
    uint64_t out = (0 - lo) & now;

    for (; hi; hi &= hi - 1) {
        const int d = __builtin_ctzll(hi) + 1;
        out ^= d == 64 ? prev : now << d | prev >> (64 - d);
    }
    return out;
}

/* The stream pass's vectors: NATIVE doubles, so BRANCHES = NATIVE / 2
   branches of two columns, lane j holding column j & 1 of branch j / 2,
   whose bit in a word of BRANCHES branches is LANE_BITS[j]. */
#define BRANCHES (NATIVE / 2)
#if NATIVE == 8
#define LANE_BITS {1, 1, 2, 2, 4, 4, 8, 8}
#elif NATIVE == 4
#define LANE_BITS {1, 1, 2, 2}
#else
#define LANE_BITS {1, 1}
#endif

/* The 64 steps from step s on of a (n rows of 2, or NULL): a + 2 s where
   they lie inside [0, n), else a copy in buf whose steps outside [0, n)
   are 0. */
static inline const double *window(const double *a, int64_t n, int64_t s, double buf[128])
{
    const int64_t lo = s < 0 ? -s : 0, hi = n - s < 64 ? n - s : 64;

    if (!a)
        return NULL;
    if (lo == 0 && hi == 64)
        return a + 2 * s;
    memset(buf, 0, 128 * sizeof *buf);
    if (lo < hi)
        memcpy(buf + 2 * lo, a + 2 * (s + lo), (size_t)(2 * (hi - lo)) * sizeof *buf);
    return buf;
}

/* Values i .. i + NATIVE - 1 of the received block, BRANCHES branches: x
   itself where noise is NULL, else c x + noise, rounded after each
   operation as numpy evaluates it. */
static inline vnd received_v(const double *x, const double *noise, double c, int64_t i)
{
    vnd a, b;

    memcpy(&a, x + i, sizeof a);
    if (!noise)
        return a;
    memcpy(&b, noise + i, sizeof b);
    return c * a + b;
}

/* The hard decisions z < 0 (so -0.0 reads 0) of the 64 steps from step s
   on, one word per column, bit j for step s + j.  A step outside [0, n)
   reads x = 0 and noise = 0 (window), so z = 0 and its decision is 0. */
static inline void hard_words(const double *x, const double *noise, double c, int64_t n,
                              int64_t s, uint64_t h[2])
{
    const vnu lane_bits = LANE_BITS;
    const vnd zero = {0};
    double bx[128], bn[128];
    vnu acc = {0};
    int64_t j;

    x = window(x, n, s, bx);
    noise = window(noise, n, s, bn);
    for (j = 0; j < 64; j += BRANCHES)
        acc |= ((vnu)(received_v(x, noise, c, 2 * j) < zero) & lane_bits) << j;
    h[0] = h[1] = 0;
    for (j = 0; j < NATIVE; j++)
        h[j & 1] |= acc[j];
}

/* Bytes 0 .. count - 1 of out get bits 0 .. count - 1 of b, one 0/1 byte each. */
static inline void spread_bits(uint64_t b, int64_t count, uint8_t *out)
{
    int64_t k;

    for (k = 0; k + 8 <= count; k += 8) {
        /* eight copies of the eight bits, byte j keeping bit j, then 1 in
           every byte that is not 0 */
        const uint64_t bytes = ((b >> k & 0xFF) * 0x0101010101010101u) & 0x8040201008040201u;
        const uint64_t ones = (bytes + 0x7F7F7F7F7F7F7F7Fu) >> 7 & 0x0101010101010101u;
        memcpy(out + k, &ones, sizeof ones);
    }
    for (; k < count; k++)
        out[k] = (uint8_t)(b >> k & 1);
}

/* The SST receiver from the received block z (n rows of 2) to the main
   decoder's input, in one pass.  z is x itself where noise is NULL (a block
   to decode), else c x + noise with x = 1 - 2y the BPSK symbols of a
   codeword y (simulate's points).  The hard decision of z is 1 where
   z < 0.  The pre-decoder stream ihat filters the two hard streams with
   the taps (t[0], t[1]) and (t[2], t[3]); the re-encoder filters ihat with
   g_l, (t[4 + 2l], t[5 + 2l]); every register starts at zero.  Row
   k < n - delay of the outputs lines up with step k + delay of those
   streams: pre[k] = ihat, and r[k, l] = +-|z[k, l]|, negative where
   y_l xor the hard decision of z[k, l] is 1 (the sign bit alone changes, so
   signed zeros and subnormals pass through exactly).  Where v is not NULL
   (with noise), v gets the main-encoded stream y_l xor y[k, l] on the rows
   k = stride, 2 stride, ... below n - delay, and ones[0], ones[1] and
   ones[2] the numbers of those rows whose column 0, column 1 and both
   columns are 1; else v and ones are not read.

   The pass runs 64 rows at a time on words of 64 steps: window a holds
   steps delay + 64 a on, the steps of rows 64 a on, so every filter is one
   shift and XOR per tap on the words of window a and a - 1.  z and the
   signs of r are formed in vectors of NATIVE doubles, and z twice: once
   for the window's hard words, once for its rows' r.  A window that
   reaches past the block's ends reads a zero-padded copy (window), and a
   last window of fewer than 64 rows writes its r into tail, whose first
   rows are then copied out. */
void sst_stream(const double *x, const double *noise, double c, int64_t n, int64_t delay,
                const uint64_t *t, int64_t stride, uint8_t *pre, double *r, uint8_t *v,
                int64_t *ones)
{
    const int64_t m = n - delay;
    const vnu lane_bits = LANE_BITS, none = {0}, sign = none + ((uint64_t)1 << 63);
    const vnd zero = {0};
    uint64_t h[2], past[2], i, pasti, y[2];
    int64_t row, k, next = stride;

    /* the windows before window 0, whose steps below 0 read 0 */
    hard_words(x, noise, c, n, delay - 128, past);
    hard_words(x, noise, c, n, delay - 64, h);
    pasti = filter_word(t[0], t[1], h[0], past[0]) ^ filter_word(t[2], t[3], h[1], past[1]);
    if (v)
        ones[0] = ones[1] = ones[2] = 0;
    for (row = 0; row < m; row += 64) {
        const int64_t rows = m - row < 64 ? m - row : 64;
        double bx[128], bn[128], tail[128];
        const double *const wx = window(x, n, row, bx), *const wn = window(noise, n, row, bn);
        double *const out = rows == 64 ? r + 2 * row : tail;
        vnu ys = none;
        past[0] = h[0];
        past[1] = h[1];
        hard_words(x, noise, c, n, delay + row, h);
        i = filter_word(t[0], t[1], h[0], past[0]) ^ filter_word(t[2], t[3], h[1], past[1]);
        y[0] = filter_word(t[4], t[5], i, pasti);
        y[1] = filter_word(t[6], t[7], i, pasti);
        pasti = i;
        for (k = 0; k < NATIVE; k++)
            ys[k] = y[k & 1];
        for (k = 0; k < 64; k += BRANCHES) {
            const vnd z = received_v(wx, wn, c, 2 * k);
            const vni neg = ((ys >> k & lane_bits) != none) ^ (z < zero);
            vnu bits;
            memcpy(&bits, &z, sizeof bits);
            bits = (bits & ~sign) | ((vnu)neg & sign);
            memcpy(out + 2 * k, &bits, sizeof bits);
        }
        if (rows < 64)
            memcpy(r + 2 * row, tail, (size_t)(2 * rows) * sizeof *r);
        spread_bits(i, rows, pre + row);
        if (v)
            for (; next < row + rows; next += stride) {
                const uint64_t v0 = (y[0] >> (next - row) & 1) ^ (x[2 * next] < 0.0),
                               v1 = (y[1] >> (next - row) & 1) ^ (x[2 * next + 1] < 0.0);
                v[0] = (uint8_t)v0;
                v[1] = (uint8_t)v1;
                v += 2;
                ones[0] += (int64_t)v0;
                ones[1] += (int64_t)v1;
                ones[2] += (int64_t)(v0 & v1);
            }
    }
}

/* Block b of the stream Philox4x64-10 (Salmon et al., "Parallel random
   numbers: as easy as 1, 2, 3", SC 2011) under the key (k0, k1), as numpy's
   Philox(key=(k0, k1)) makes it: the cipher of the counter (b + 1, 0, 0, 0),
   since numpy steps its counter from zero before each block of four words.
   No stream here passes 2^64 blocks, so the counter's upper words stay
   zero. */
static inline void philox_block(uint64_t k0, uint64_t k1, uint64_t b, uint64_t out[4])
{
    uint64_t v0 = b + 1, v1 = 0, v2 = 0, v3 = 0;
    int i;

    for (i = 0; i < 10; i++) {
        const unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * v0,
                                p2 = (unsigned __int128)0xCA5A826395121157u * v2;
        v0 = (uint64_t)(p2 >> 64) ^ v1 ^ k0;
        v2 = (uint64_t)(p0 >> 64) ^ v3 ^ k1;
        v1 = (uint64_t)p2;
        v3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    out[0] = v0;
    out[1] = v1;
    out[2] = v2;
    out[3] = v3;
}

/* The mid-interval uniform ((k >> 11) + 0.5) / 2^53 of the word k, as
   (Generator.integers(0, 2^53) + 0.5) / 2^53 forms it (for that range
   numpy's bounded draw takes one word a value and keeps its top 53 bits),
   at most 1 - 2^-53: the + 0.5 of k >> 11 = 2^53 - 1 rounds up to 2^53,
   whose 1.0 the inverse normal CDF would map to +inf. */
static inline double mid_uniform(uint64_t k)
{
    const double u = ((double)(int64_t)(k >> 11) + 0.5) / 9007199254740992.0;

    return u < 1.0 ? u : 1.0 - 0x1p-53;
}

/* The mid-interval uniforms of the first n words of the stream (k0, k1). */
static void mid_uniforms(uint64_t k0, uint64_t k1, int64_t n, double *u)
{
    uint64_t w[4];
    int64_t k, j;

    for (k = 0; k < n; k += 4) {
        philox_block(k0, k1, (uint64_t)k / 4, w);
        for (j = 0; j < 4 && k + j < n; j++)
            u[k + j] = mid_uniform(w[j]);
    }
}

/* simulate's block from its seed, in one pass over the three Philox streams.
   The information bits come from the key (seed, 1): info[k] = 1 where word k's
   top bit is clear, as Generator.random() < 0.5 reads it.  They are gathered
   into words of 64 steps, which filter_word encodes through g_l,
   (g[2l], g[2l + 1]) as t[4..7] of sst_stream, into the codeword y and
   x = 1 - 2y (n rows of 2).  u (n rows of 2) takes the mid-interval uniforms
   of the key (seed, 0) and uw (nw rows of 2) those of (seed, 2), for the
   caller's inverse normal CDF. */
void draw_block(uint64_t seed, int64_t n, int64_t nw, const uint64_t *g, uint8_t *info,
                double *x, double *u, double *uw)
{
    uint64_t w[4], now, prev = 0, y[2];
    int64_t s, k;

    for (s = 0; s < n; s += 64, prev = now) {
        const int64_t steps = n - s < 64 ? n - s : 64;
        /* the bits past step n stay 0: no filter output reads a later step */
        for (now = 0, k = 0; k < steps; k++) {
            if (k % 4 == 0)
                philox_block(seed, 1, (uint64_t)(s + k) / 4, w);
            now |= (~w[k % 4] >> 63) << k;
        }
        y[0] = filter_word(g[0], g[1], now, prev);
        y[1] = filter_word(g[2], g[3], now, prev);
        spread_bits(now, steps, info + s);
        for (k = 0; k < 2 * steps; k++)
            x[2 * s + k] = 1.0 - 2.0 * (double)(y[k & 1] >> (k >> 1) & 1);
    }
    mid_uniforms(seed, 0, 2 * n, u);
    mid_uniforms(seed, 2, 2 * nw, uw);
}

/* The scatter of the centred Sigma_r sample c (1 - 2v) + w: v is n
   contiguous rows of 2 bytes, and w is n contiguous rows of 2 doubles.  The
   mean of xt = 1 - 2v is the exact count (n - 2k) / n, and that of w its
   sum in row order divided by n.  s gets the sums of d0 d0, d0 d1 and d1 d1
   over the centred rows d = (v ? c (-1 - m) : c (1 - m)) + (w - mean of w),
   each added in row order, which -ffp-contract=off keeps at every -march. */
void sigma_r_scatter(const uint8_t *v, int64_t n, const double *w, double c, double *s)
{
    int64_t ones[2] = {0, 0}, i, l;
    double sum[2] = {0.0, 0.0}, mean[2], one[2], zero[2], s00 = 0.0, s01 = 0.0, s11 = 0.0;

    for (i = 0; i < n; i++)
        for (l = 0; l < 2; l++) {
            ones[l] += v[2 * i + l] != 0;
            sum[l] += w[2 * i + l];
        }
    for (l = 0; l < 2; l++) {
        const double m = (double)(n - 2 * ones[l]) / (double)n;
        one[l] = c * (-1.0 - m);
        zero[l] = c * (1.0 - m);
        mean[l] = sum[l] / (double)n;
    }
    for (i = 0; i < n; i++) {
        const double d0 = (v[2 * i] ? one[0] : zero[0]) + (w[2 * i] - mean[0]),
                     d1 = (v[2 * i + 1] ? one[1] : zero[1]) + (w[2 * i + 1] - mean[1]);
        s00 += d0 * d0, s01 += d0 * d1, s11 += d1 * d1;
    }
    s[0] = s00, s[1] = s01, s[2] = s11;
}

#else /* the kernel at width W */

#if W == 2
#define LANE {0, 1}
#elif W == 4
#define LANE {0, 1, 2, 3}
#else
#define LANE {0, 1, 2, 3, 4, 5, 6, 7}
#endif

typedef double vd __attribute__((vector_size(8 * W)));
typedef int64_t vi __attribute__((vector_size(8 * W)));
typedef uint64_t vu __attribute__((vector_size(8 * W)));

static inline vd load(const double *p)
{
    vd v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, vd v)
{
    memcpy(p, &v, sizeof v);
}

static inline vu load_u(const uint64_t *p)
{
    vu v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store_u(uint64_t *p, vu v)
{
    memcpy(p, &v, sizeof v);
}

/* a where mask is set, else b */
static inline vi pick_i(vi mask, vi a, vi b)
{
    return (a & mask) | (b & ~mask);
}

static inline vd pick(vi mask, vd a, vd b)
{
    return (vd)pick_i(mask, (vi)a, (vi)b);
}

static inline vu pick_u(vi mask, vu a, vu b)
{
    return (vu)pick_i(mask, (vi)a, (vi)b);
}

/* Each lane of top and at keeps the first best of the states it has met:
   v, if above top, becomes the lane's best metric and state its best state. */
static inline void keep(vd v, vi state, vd *top, vi *at)
{
    const vi gt = v > *top;
    *top = pick(gt, v, *top);
    *at = pick_i(gt, state, *at);
}

/* The lowest state with the top metric over the lanes of top and at */
static inline int64_t reduce_best(vd top, vi at)
{
    const vi lane = LANE;
    vd u = top;
    int64_t s;

    /* the best metric in every lane, then the lowest state that has it */
#pragma GCC unroll 3
    for (s = 1; s < W; s *= 2) {
        const vd v = __builtin_shuffle(u, lane ^ s);
        u = pick(v > u, v, u);
    }
    at = pick_i(top == u, at, (vi){0} + INT64_MAX);
#pragma GCC unroll 3
    for (s = 1; s < W; s *= 2) {
        const vi v = __builtin_shuffle(at, lane ^ s);
        at = pick_i(v < at, v, at);
    }
    return at[0];
}

/* reduce_best over the metrics plane m, row metrics in state order */
static inline int64_t best_state(const double *m, int64_t row)
{
    const vi lane = LANE;
    vd top = (vd){0} - INFINITY;
    vi at = lane;
    int64_t j;

    for (j = 0; j < row; j += W)
        keep(load(m + j), lane + j, &top, &at);
    return reduce_best(top, at);
}

/* Whether bit `bit` differs between the words of the states: any (OR) and
   all (AND) hold, per lane, the bits that some and that every one of the
   lane's states has set.  A lane differs from itself where they disagree,
   and from lane 0 where its any does. */
static inline int differ(vu any, vu all, int bit)
{
    const vi lane = LANE;
    vu d = (any ^ all) | (any ^ any[0]);
    int64_t s;

#pragma GCC unroll 3
    for (s = 1; s < W; s *= 2)
        d |= __builtin_shuffle(d, lane ^ s);
    return (int)(d[0] >> bit & 1);
}

static void JOIN(viterbi, W)(const double *r, int64_t n, int nu, uint64_t g0, uint64_t g1,
                             int64_t truncation, double *work, uint64_t *reg, uint8_t *out)
{
    const int64_t ns = (int64_t)1 << nu, half = ns >> 1, lanes = half > W ? half : W,
                  row = 2 * lanes, words = truncation / 64 + 1, at = (words - 1) * row;
    const int shift = (int)(truncation % 64);
    const vi lane = LANE;
    /* lane i of the even then the odd next metrics goes to state 2i, 2i + 1 */
    const vi lo = (lane >> 1) + (lane & 1) * W, hi = lo + W / 2;
    double *m = work, *next = work + row, *tmp;
    uint64_t *nreg = reg + words * row, *rtmp;
    /* block j / W holds the vectors 4p + q: state parity p; q = g0, g1 on the
       branch from lane j, then on the branch from j + 2^(nu-1) */
    double *const sign = work + 2 * row;
    int64_t s, j, k, t, w, best = 0;
    int p, q, track = 0;

    for (j = 0; j < lanes; j++)
        for (p = 0; p < 2; p++) {
            const uint64_t s0 = (uint64_t)(2 * j + p), br[2] = {s0, s0 | (uint64_t)1 << nu};
            for (q = 0; q < 4; q++)
                sign[8 * (j - j % W) + (4 * p + q) * W + j % W] =
                    j < half ? sign_of(q & 1 ? g1 : g0, br[q >> 1]) : NAN;
        }
    for (s = 0; s < row; s++)
        m[s] = s == 0 ? 0.0 : s < ns ? -1e30 : NAN;
    /* the bits before the first input are never read */
    memset(reg, 0, (size_t)(words * row) * sizeof *reg);
    for (k = 0; k < n; k++) {
        const double r0 = r[2 * k], r1 = r[2 * k + 1];
        /* tracking, per lane, the first best state among those it wrote;
           else the bits of the new registers' last word (the one with bit
           T) that some of them set and that all of them set */
        vd topv = (vd){0} - INFINITY;
        vi topi = lane;
        vu any = {0}, all = ~any;
        if (k % 64 == 0)
            track = 0;
        for (j = 0; j < lanes; j += W) {
            const double *sg = sign + 8 * j;
            const vd a = load(m + j), b = load(m + j + half);
            const vd e0 = (a + r0 * load(sg)) + r1 * load(sg + W);
            const vd e1 = (b + r0 * load(sg + 2 * W)) + r1 * load(sg + 3 * W);
            const vd o0 = (a + r0 * load(sg + 4 * W)) + r1 * load(sg + 5 * W);
            const vd o1 = (b + r0 * load(sg + 6 * W)) + r1 * load(sg + 7 * W);
            const vi te = e1 > e0, to = o1 > o0;
            const vd ev = pick(te, e1, e0), od = pick(to, o1, o0);
            /* the survivors' words, word 0 taking the input bit (0 into an
               even state, 1 into an odd one), word w the top bit of w - 1 */
            vu se = pick_u(te, load_u(reg + j + half), load_u(reg + j)),
               so = pick_u(to, load_u(reg + j + half), load_u(reg + j)),
               ne = se << 1, no = so << 1 | 1;
            store_u(nreg + 2 * j, __builtin_shuffle(ne, no, lo));
            store_u(nreg + 2 * j + W, __builtin_shuffle(ne, no, hi));
            for (w = 1; w < words; w++) {
                const uint64_t *ra = reg + w * row + j;
                const vu we = pick_u(te, load_u(ra + half), load_u(ra)),
                         wo = pick_u(to, load_u(ra + half), load_u(ra));
                ne = we << 1 | se >> 63;
                no = wo << 1 | so >> 63;
                store_u(nreg + w * row + 2 * j, __builtin_shuffle(ne, no, lo));
                store_u(nreg + w * row + 2 * j + W, __builtin_shuffle(ne, no, hi));
                se = we;
                so = wo;
            }
            if (track) {
                keep(ev, 2 * (lane + j), &topv, &topi);
                keep(od, 2 * (lane + j) + 1, &topv, &topi);
            } else {
                any |= ne | no;
                all &= ne & no;
            }
            store(next + 2 * j, __builtin_shuffle(ev, od, lo));
            store(next + 2 * j + W, __builtin_shuffle(ev, od, hi));
        }
        tmp = m, m = next, next = tmp;
        rtmp = reg, reg = nreg, nreg = rtmp;
        /* where every survivor holds the same input T steps back, that is
           the output whichever state is best; from a step where they differ
           to the next 64-step boundary, every step tracks its best state */
        if (track)
            best = reduce_best(topv, topi);
        else if (differ(any, all, shift)) {
            best = best_state(m, row);
            track = 1;
        }
        if (k >= truncation)
            out[k - truncation] = reg[at + best] >> shift & 1;
    }
    best = best_state(m, row);
    for (t = n - 1; t >= 0 && t >= n - truncation; t--)
        out[t] = reg[(n - 1 - t) / 64 * row + best] >> (n - 1 - t) % 64 & 1;
}

#undef LANE

#endif
