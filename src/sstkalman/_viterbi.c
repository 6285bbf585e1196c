/* Add-compare-select and truncated traceback of the main Viterbi decoder.

   State bit j holds the input from j+1 steps ago.  State s is entered on
   input s & 1 from s >> 1 (branch register s) and from (s >> 1) + 2^(nu-1)
   (register s + 2^nu); output l of a branch is the parity of g_l AND its
   register.  A path metric is (m + r0 sign0) + r1 sign1, rounded after
   each operation (build with -ffp-contract=off) as numpy evaluates it.
   Ties keep the branch from s >> 1 and the lowest-index best state.

   work holds 6 * 2^nu doubles.  choices is a ring of `rows` rows of 2^nu
   bytes (rows a power of two, at least min(truncation, n)).  Bit t of out
   is read T = truncation steps later from the best state's survivor; the
   last T bits come from the final best state.

   path is a ring of `plen` states (plen a power of two above
   min(truncation, n)) holding the survivor traced at the previous step,
   state at time t in entry t.  Each traceback stops at the first time
   where it meets that survivor: a walk back from (state, t) reads only
   choices rows at or before t, and those rows do not change while they
   are in the ring, so from there on both survivors are the same. */

#include <math.h>
#include <stdint.h>

void viterbi(const double *r, int64_t n, int nu, uint64_t g0, uint64_t g1,
             int64_t truncation, double *work, uint8_t *choices, int64_t rows,
             int64_t *path, int64_t plen, uint8_t *out)
{
    const int64_t ns = (int64_t)1 << nu, half = ns >> 1, ring = rows - 1,
                  pmask = plen - 1;
    const int top = nu - 1;
    double *m = work, *next = work + ns, *sign = work + 2 * ns, *tmp;
    int64_t s, k, t, best = 0, state;

    for (s = 0; s < ns; s++) {
        uint64_t reg1 = (uint64_t)s | ((uint64_t)1 << nu);
        sign[4 * s] = __builtin_parityll(g0 & (uint64_t)s) ? -1.0 : 1.0;
        sign[4 * s + 1] = __builtin_parityll(g1 & (uint64_t)s) ? -1.0 : 1.0;
        sign[4 * s + 2] = __builtin_parityll(g0 & reg1) ? -1.0 : 1.0;
        sign[4 * s + 3] = __builtin_parityll(g1 & reg1) ? -1.0 : 1.0;
        m[s] = s ? -1e30 : 0.0;
    }
    /* no state is -1, so the first traceback runs its full length */
    for (t = 0; t < plen; t++)
        path[t] = -1;
    for (k = 0; k < n; k++) {
        const double r0 = r[2 * k], r1 = r[2 * k + 1];
        uint8_t *take = choices + (k & ring) * ns;
        double top_metric = -INFINITY;
        for (s = 0; s < ns; s++) {
            const double *sg = sign + 4 * s;
            double c0 = (m[s >> 1] + r0 * sg[0]) + r1 * sg[1];
            double c1 = (m[(s >> 1) + half] + r0 * sg[2]) + r1 * sg[3];
            take[s] = c1 > c0;
            next[s] = take[s] ? c1 : c0;
            if (next[s] > top_metric) {
                top_metric = next[s];
                best = s;
            }
        }
        tmp = m, m = next, next = tmp;
        if (k >= truncation) {
            path[k & pmask] = best;
            for (state = best, t = k; t > k - truncation; t--) {
                state = (state >> 1) | ((int64_t)choices[(t & ring) * ns + state] << top);
                if (path[(t - 1) & pmask] == state)
                    break;
                path[(t - 1) & pmask] = state;
            }
            out[k - truncation] = path[(k - truncation) & pmask] & 1;
        }
    }
    for (state = best, t = n - 1; t >= 0 && t >= n - truncation; t--) {
        out[t] = state & 1;
        state = (state >> 1) | ((int64_t)choices[(t & ring) * ns + state] << top);
    }
}
