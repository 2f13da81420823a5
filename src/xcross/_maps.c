/* Compiled LSHM and CLT loops, bit for bit the loops in chaotic_maps.py.
 *
 * Every double operation below is the one the Python loop performs, in the
 * same order: built with -ffp-contract=off nothing is fused, and cos/pow/
 * fabs are the libm functions CPython's math module calls.  mod1() is
 * CPython's float % 1.0 (fmod, then the sign fix) followed by _mod1's
 * ">= 1.0" fix and its "+ 0.0".  Each function writes `count` states,
 * transient included, into the caller's buffers.
 */
#include <math.h>

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
