/* Compiled LSHM and CLT loops, bit for bit the loops in chaotic_maps.py,
 * and the extraction-key sort and IBT gather of key_schedule.py and ibt.py.
 *
 * Every double operation below is the one the Python loop performs, in the
 * same order: built with -ffp-contract=off nothing is fused, and cos/pow/
 * fabs are the libm functions CPython's math module calls.  mod1() is
 * CPython's float % 1.0 (fmod, then the sign fix) followed by _mod1's
 * ">= 1.0" fix and its "+ 0.0".  Each function writes `count` states,
 * transient included, into the caller's buffers.
 */
#include <math.h>
#include <stdint.h>

static double mod1(double v)
{
    double r = fmod(v, 1.0);
    if (r != 0.0) {
        if (r < 0.0)
            r += 1.0;
    } else {
        r = 0.0;
    }
    if (r >= 1.0)
        r = 0.0;
    return r + 0.0;
}

void xcross_lshm(double *xs, double *ys, long count, double x, double y,
                 double k1, double k2, double alpha, double beta, double pi)
{
    for (long i = 0; i < count; i++) {
        double c = cos(pi * x);
        double t = pow(fabs(c), beta);
        if (c < 0.0)
            t = -t;
        y = k2 * (cos(y) * (1.0 - x));
        x = mod1(k1 * (1.0 + alpha * t));
        xs[i] = x;
        ys[i] = y;
    }
}

void xcross_clt(double *zs, long count, double z, double lam, double alpha_c)
{
    for (long i = 0; i < count; i++) {
        if (z < 0.5)
            z = lam * z * (1.0 - z) + alpha_c * z / 2.0;
        else
            z = lam * z * (1.0 - z) + alpha_c * (1.0 - z) / 2.0;
        z = mod1(z);
        zs[i] = z;
    }
}

/* np.argsort(rea, kind="stable") into key and its inverse permutation into
 * inv, by one counting sort: equal bytes keep their order.  n <= 2**31. */
void xcross_sort_keys(const uint8_t *rea, long n, int32_t *key, int32_t *inv)
{
    long offs[256] = {0};
    for (long s = 0; s < n; s++)
        offs[rea[s]]++;
    for (long b = 0, start = 0; b < 256; b++) {
        long count = offs[b];
        offs[b] = start;
        start += count;
    }
    for (long s = 0; s < n; s++) {
        long j = offs[rea[s]]++;
        key[j] = (int32_t)s;
        inv[s] = (int32_t)j;
    }
}

/* Bit j of out = bit key[j] of in, bits numbered MSB first through the
 * nbytes bytes; key holds 8 * nbytes entries.  Returns 1 at the first
 * entry outside [0, 8 * nbytes), leaving out partly written, else 0. */
int xcross_ibt(const uint8_t *in, uint8_t *out, const int32_t *key, long nbytes)
{
    unsigned long nbits = 8 * (unsigned long)nbytes;
    for (long i = 0; i < nbytes; i++, key += 8) {
        unsigned acc = 0;
        /* eight independent bits, one compare each: a negative entry
         * converts to an unsigned value far above nbits */
#pragma GCC unroll 8
        for (int b = 0; b < 8; b++) {
            unsigned long k = (unsigned long)(long)key[b];
            if (k >= nbits)
                return 1;
            acc |= (in[k >> 3] >> (7 - (k & 7)) & 1u) << (7 - b);
        }
        out[i] = (uint8_t)acc;
    }
    return 0;
}
