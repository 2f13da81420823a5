/* The compiled routines behind chaotic_maps.py, each byte for byte its
 * Python or NumPy definition there or in key_schedule.py, substitution.py,
 * ibt.py and analysis.py; README, "Determinism and portability", is the
 * full account.
 *
 * Every double operation of the two map loops is the one the Python loop
 * performs, in the same order: built with -ffp-contract=off nothing is
 * fused, and cos/pow/fabs are the libm functions CPython's math module
 * calls.  mod1() is CPython's float % 1.0 followed by the ">= 1.0" fix of
 * _lshm_loop and _clt_loop, with v - trunc(v) in place of fmod(v, 1.0):
 * both are exact, so they agree, and a zero remainder comes out +0.0 as in
 * CPython.  Each loop writes `count` states, transient included, into the
 * caller's buffers.
 *
 * After the LSHM loop, derivation is three calls: xcross_quantize makes
 * the extraction arrays of its streams, xcross_context the rest of a
 * context from them, the four keys by counting sorts, the operation codes
 * and the three S-boxes from CLT streams it runs through a scratch buffer
 * in chunks, and xcross_tables the substitution suite's tables.
 * The quantizer converts a double to int64 only inside int64's range, so
 * NaN, +-inf and magnitudes of 2**63 and more give fixed bytes on every
 * CPU, those of x86-64's conversion.
 *
 * Four bodies are SIMD, each compiled for its target by a function
 * attribute, so the compile command stays the same.  No target is "fma",
 * and -ffp-contract=off keeps the fused multiply-adds of AVX-512F unused.
 * Each body is taken on x86-64 CPUs that report its instructions; other
 * CPUs, and builds without XCROSS_AVX2, run the scalar code.
 *  - The IBT gather, AVX2, per call, for blocks whose byte count is a
 *    multiple of 4; other blocks run the scalar loop.  It reads each bit
 *    through the aligned 4-byte word holding it, which lies inside the
 *    block because the block is a whole number of such words, and
 *    prefetches the key a fixed lead ahead of the gathers.
 *  - The leaves of the correlation sums of 8 or more pairs, AVX-512F where
 *    the CPU reports it, else AVX2, where one pass keeps all three sums'
 *    eight accumulators in vector lanes: one zmm register per sum, or two
 *    ymm registers.
 *  - The substitution, AVX-512 VBMI, per call of 64 or more pixels, for
 *    each whole run of 64: two vpermi2b lookups per code, blended on the
 *    pixel's bit 7.  The tail of fewer than 64 pixels runs the scalar loop.
 *
 * The statistics repeat NumPy's float64 sums bit for bit: each term is the
 * product or quotient NumPy forms, and pairwise_leaf and pairwise_tree add
 * the terms in the order of NumPy's pairwise summation.  np.add.reduce
 * adds that sum to its identity +0.0, which changes only the sign of a
 * zero, so each sum that has terms of both signs is written 0.0 + s (a
 * form the compiler keeps without -fno-signed-zeros; it may fold s - 0.0
 * to s).  The other sums have no negative term.  xcross_statistics gives
 * every sum of analysis.analyze: first the GLCM's, from pair counts whose
 * pass also counts the histogram, in one scalar pass over the 65536 cells
 * and a second for the correlation, with no 256 x 256 float64 array beyond
 * the counts, which _native passes in and which are made probabilities in
 * place: no routine allocates.  Then the three directions' moments, whose
 * six means come from the histogram's sum less a border row or column.
 *
 * The two pixel layers move bytes only: xcross_substitute is the flat
 * table lookup of substitution.py and xcross_xcross the X-Cross schedule
 * of permutation.py, each one pass over the pixels without NumPy's intp
 * index.
 *
 * Every buffer is C-contiguous: an image's rows lie `cols` bytes apart.
 * _native.py copies any other input before it calls a routine.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define XCROSS_AVX2 1
#endif

static double mod1(double v)
{
    /* exact, as fmod is; rounding to nearest, a zero v - v is +0.0 */
    double r = v - trunc(v);
    if (r < 0.0)
        r += 1.0;
    if (r >= 1.0)
        r = 0.0;
    return r;
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

/* key_schedule.round_half_away(s * scale): |s * scale| rounded half up,
 * then signed as s * scale is.  NaN, +-inf and magnitudes of 2**63 and more
 * give INT64_MIN, the value x86-64's conversion gives them, whose low byte
 * is 0 and whose floor mod 3 is 1; no double outside int64 is converted. */
static inline int64_t round_half_away(double s, double scale)
{
    double v = s * scale, f = fabs(v);
    if (!(f < 9223372036854775808.0))
        return INT64_MIN;
    int64_t t = (int64_t)f;
    if (f - (double)t >= 0.5)
        t++;
    return signbit(v) ? -t : t;
}

/* q floor mod 3, as NumPy's int64 % 3 gives it */
static inline uint8_t mod3(int64_t q)
{
    int64_t r = q % 3;
    return (uint8_t)(r < 0 ? r + 3 : r);
}

/* key_schedule._quantized: out[i] = round_half_away(s[i] * scale) mod
 * `modulus` for the n values at s, modulus 3 or 256; mod 256 is the low
 * byte, the cast of NumPy's int64 to uint8. */
void xcross_quantize(const double *s, long n, double scale, int modulus, uint8_t *out)
{
    if (modulus == 3)
        for (long i = 0; i < n; i++)
            out[i] = mod3(round_half_away(s[i], scale));
    else
        for (long i = 0; i < n; i++)
            out[i] = (uint8_t)round_half_away(s[i], scale);
}

/* np.argsort(rea, kind="stable") into key and its inverse permutation into
 * inv, by one counting sort: equal bytes keep their order.  n <= 2**31. */
static void sort_keys(const uint8_t *rea, long n, int32_t *key, int32_t *inv)
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

/* key_schedule.sbox_from_stream: the stable ascending argsort of the 256
 * values at v, into box.  A bottom-up merge sort of the indices, which
 * takes the right run's entry only when its value is below the left's, so
 * equal values keep their order. */
static void argsort256(const double *v, uint8_t *box)
{
    uint8_t a[256], b[256], *src = a, *dst = b, *tmp;
    for (int i = 0; i < 256; i++)
        a[i] = (uint8_t)i;
    for (int w = 1; w < 256; w *= 2, tmp = src, src = dst, dst = tmp) {
        for (int lo = 0; lo < 256; lo += 2 * w) {
            int l = lo, r = lo + w, k = lo;
            while (l < lo + w && r < lo + 2 * w)
                dst[k++] = v[src[r]] < v[src[l]] ? src[r++] : src[l++];
            while (l < lo + w)
                dst[k++] = src[l++];
            while (r < lo + 2 * w)
                dst[k++] = src[r++];
        }
    }
    memcpy(box, src, 256);
}

/* The CLT state `skip` steps after z, run through the `chunk` doubles at
 * scratch */
static double clt_skip(double *scratch, long chunk, long skip, double z, double lam,
                       double alpha_c)
{
    for (long len; skip > 0; skip -= len, z = scratch[len - 1]) {
        len = skip < chunk ? skip : chunk;
        xcross_clt(scratch, len, z, lam, alpha_c);
    }
    return z;
}

/* Every array of pipeline._build_context after the extraction arrays rea1
 * and rea2 of n <= 2**31 entries each: key1 and key3 the stable argsort of
 * rea1 and its inverse, key2 and key4 those of rea2; the operation codes of
 * `pixels` pixels, round(z * 10**3) mod 3 of the CLT stream from z0s[0]; and
 * the three S-boxes, one per 256-entry row of sboxes, the argsorts of the
 * CLT streams from z0s[1 .. 3].  Each stream starts `transient` steps
 * after its z0, and those steps and the codes' stream run through the
 * `chunk` >= 1 doubles at scratch, so no stream is held whole. */
void xcross_context(const uint8_t *rea1, const uint8_t *rea2, long n, double lam,
                    double alpha_c, const double *z0s, long transient, long pixels,
                    int32_t *key1, int32_t *key2, int32_t *key3, int32_t *key4, uint8_t *ops,
                    uint8_t *sboxes, double *scratch, long chunk)
{
    sort_keys(rea1, n, key1, key3);
    sort_keys(rea2, n, key2, key4);
    double z = clt_skip(scratch, chunk, transient, z0s[0], lam, alpha_c);
    for (long i = 0, len; i < pixels; i += len, z = scratch[len - 1]) {
        len = pixels - i < chunk ? pixels - i : chunk;
        xcross_clt(scratch, len, z, lam, alpha_c);
        for (long j = 0; j < len; j++)
            ops[i + j] = mod3(round_half_away(scratch[j], 1e3));
    }
    for (int b = 0; b < 3; b++) {
        double v[256];
        xcross_clt(v, 256, clt_skip(scratch, chunk, transient, z0s[1 + b], lam, alpha_c), lam,
                   alpha_c);
        argsort256(v, sboxes + 256 * b);
    }
}

/* substitution.SubstitutionSuite's tables of the S-boxes s0, s1 and s2:
 * fwd's rows are s0, ~s1 and s2 rotated left one bit, and bwd's rows their
 * inverses, each 256 bytes.  Returns 1, before writing bwd, when a box is
 * not a bijection on 0..255, else 0. */
int xcross_tables(const uint8_t *s0, const uint8_t *s1, const uint8_t *s2, uint8_t *fwd,
                  uint8_t *bwd)
{
    uint8_t seen[768] = {0};
    for (int i = 0; i < 256; i++) {
        fwd[i] = s0[i];
        fwd[256 + i] = (uint8_t)~s1[i];
        fwd[512 + i] = (uint8_t)(s2[i] << 1 | s2[i] >> 7);
    }
    for (int i = 0; i < 768; i++)
        seen[(i & ~255) | fwd[i]] = 1;
    for (int i = 0; i < 768; i++)
        if (!seen[i])
            return 1;
    for (int i = 0; i < 768; i++)
        bwd[(i & ~255) | fwd[i]] = (uint8_t)(i & 255);
    return 0;
}

#ifdef XCROSS_AVX2
/* How many output bytes ahead ibt_avx2 prefetches the key: 128 bytes are
 * 4 KB of key.  The gathers keep the hardware prefetcher from running
 * ahead of the key stream; a one-process sweep over 1-16 KB of key at
 * 1024^2, encrypt and decrypt alternated with the unprefetched loop per
 * op, found 2-16 KB within a few percent of each other and 4 KB the best
 * (CHANGES.md).  The scalar loop is slower per byte, and a prefetch there
 * cost about 2%. */
#define IBT_PREFETCH_LEAD 128

/* xcross_ibt for nbytes a multiple of 4 and at most 2**28, so 8 * nbytes - 1
 * fits an unsigned 32-bit lane and every negative entry compares above it.
 * One output byte per turn: eight entries checked and gathered at once. */
__attribute__((target("avx2")))
static int ibt_avx2(const uint8_t *in, uint8_t *out, const int32_t *key, long nbytes)
{
    const __m256i last = _mm256_set1_epi32((int)(8 * nbytes - 1));
    const __m256i three = _mm256_set1_epi32(3), seven = _mm256_set1_epi32(7);
    const __m256i top = _mm256_set1_epi32(24);
    const __m256i reversed = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    for (long i = 0; i < nbytes; i++, key += 8) {
        /* the entries of byte i + lead, or of the last byte near the end,
         * so the address never passes the key */
        long ahead = nbytes - 1 - i < IBT_PREFETCH_LEAD ? nbytes - 1 - i : IBT_PREFETCH_LEAD;
        __builtin_prefetch(key + 8 * ahead);
        __m256i k = _mm256_loadu_si256((const __m256i *)key);
        __m256i ok = _mm256_cmpeq_epi32(_mm256_max_epu32(k, last), last);
        if (_mm256_movemask_ps(_mm256_castsi256_ps(ok)) != 0xff)
            return 1;
        /* bit k is bit 7 - (k & 7) of byte k >> 3, which is byte (k >> 3) & 3
         * of the little-endian word k >> 5: shifting that word left by
         * 24 - 8 * ((k >> 3) & 3) + (k & 7) moves the bit to bit 31 */
        __m256i words = _mm256_i32gather_epi32((const int *)in, _mm256_srli_epi32(k, 5), 4);
        __m256i byte = _mm256_and_si256(_mm256_srli_epi32(k, 3), three);
        __m256i shift = _mm256_add_epi32(_mm256_sub_epi32(top, _mm256_slli_epi32(byte, 3)),
                                         _mm256_and_si256(k, seven));
        /* entry 0 gives the output byte's MSB, and movemask puts lane 0 in
         * bit 0: reverse the lanes first */
        __m256i bits = _mm256_permutevar8x32_epi32(_mm256_sllv_epi32(words, shift), reversed);
        out[i] = (uint8_t)_mm256_movemask_ps(_mm256_castsi256_ps(bits));
    }
    return 0;
}
#endif

/* Bit j of out = bit key[j] of in, bits numbered MSB first through the
 * nbytes bytes; key holds 8 * nbytes entries.  Returns 1 at the first
 * entry outside [0, 8 * nbytes), leaving out partly written, else 0. */
int xcross_ibt(const uint8_t *in, uint8_t *out, const int32_t *key, long nbytes)
{
#ifdef XCROSS_AVX2
    if (nbytes % 4 == 0 && nbytes <= 1L << 28 && __builtin_cpu_supports("avx2"))
        return ibt_avx2(in, out, key, nbytes);
#endif
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

/* A leaf of the three moment sums: pairwise_leaf's sums of (a-mx)^2,
 * (b-my)^2 and (a-mx)(b-my) over the n <= 128 pairs (qa[i], qb[i]) */
typedef void moments_leaf(const uint8_t *qa, const uint8_t *qb, long n, double mx, double my,
                          double *sums);

/* The adjacent pairs of one direction: a = the h x w view at `a` of an
 * image `cols` bytes wide, and b = the same view `off` bytes on.  Pair i
 * is the view's pixel i in row-major order. */
struct pairs {
    const uint8_t *a;
    long w, cols, off;
    double mx, my;
    moments_leaf *leaf; /* the body of the leaves of at least 8 pairs */
};

/* NumPy's pairwise sum of t[0 .. n-1], n <= 128: the leaf of
 * DOUBLE_pairwise_sum (numpy's loops_utils.h.src), term for term */
static double pairwise_leaf(const double *t, long n)
{
    if (n < 8) {
        double res = 0.;
        for (long i = 0; i < n; i++)
            res += t[i];
        return res;
    }
    /* unrolled, so the eight accumulators stay in registers */
    double r[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; j++)
        r[j] = t[j];
    long i;
    for (i = 8; i < n - (n % 8); i += 8)
#pragma GCC unroll 8
        for (int j = 0; j < 8; j++)
            r[j] += t[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        res += t[i];
    return res;
}

/* The definition of the leaf: each term formed, then pairwise_leaf */
static void moments_scalar(const uint8_t *qa, const uint8_t *qb, long n, double mx, double my,
                           double *sums)
{
    double t[3][128];
    for (long i = 0; i < n; i++) {
        double x = qa[i] - mx, y = qb[i] - my;
        t[0][i] = x * x;
        t[1][i] = y * y;
        t[2][i] = x * y;
    }
    for (int k = 0; k < 3; k++)
        sums[k] = pairwise_leaf(t[k], n);
}

#ifdef XCROSS_AVX2
/* ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)) of the accumulators r0-3 in lo
 * and r4-7 in hi, by way of (r0+r1, r4+r5, r2+r3, r6+r7) */
__attribute__((target("avx2")))
static inline double combine_avx2(__m256d lo, __m256d hi)
{
    __m256d pairs = _mm256_hadd_pd(lo, hi);
    __m128d q = _mm_add_pd(_mm256_castpd256_pd128(pairs), _mm256_extractf128_pd(pairs, 1));
    return _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q));
}

/* pairwise_leaf's tail: the terms of pairs i .. n-1 added to sums[0..2] */
static inline void moments_tail(const uint8_t *qa, const uint8_t *qb, long i, long n, double mx,
                                double my, double *sums)
{
    for (; i < n; i++) {
        double x = qa[i] - mx, y = qb[i] - my;
        sums[0] += x * x;
        sums[1] += y * y;
        sums[2] += x * y;
    }
}

/* The (a-mx)^2, (b-my)^2 and (a-mx)(b-my) of pairs 0 .. 7, lanes 0-3 of
 * each sum in t[k][0] and lanes 4-7 in t[k][1] */
__attribute__((target("avx2")))
static inline void products_avx2(const uint8_t *qa, const uint8_t *qb, __m256d mx, __m256d my,
                                 __m256d t[3][2])
{
    __m128i ba = _mm_loadl_epi64((const __m128i *)qa), bb = _mm_loadl_epi64((const __m128i *)qb);
#pragma GCC unroll 2
    for (int h = 0; h < 2; h++, ba = _mm_srli_si128(ba, 4), bb = _mm_srli_si128(bb, 4)) {
        __m256d x = _mm256_sub_pd(_mm256_cvtepi32_pd(_mm_cvtepu8_epi32(ba)), mx);
        __m256d y = _mm256_sub_pd(_mm256_cvtepi32_pd(_mm_cvtepu8_epi32(bb)), my);
        t[0][h] = _mm256_mul_pd(x, x);
        t[1][h] = _mm256_mul_pd(y, y);
        t[2][h] = _mm256_mul_pd(x, y);
    }
}

/* The moments_leaf of 8 <= n <= 128 pairs in one pass: lane j of each
 * sum's two vectors is accumulator r[j] of pairwise_leaf, and every
 * product, add and combine is the one pairwise_leaf rounds */
__attribute__((target("avx2")))
static void moments_avx2(const uint8_t *qa, const uint8_t *qb, long n, double mx, double my,
                         double *sums)
{
    const __m256d vmx = _mm256_set1_pd(mx), vmy = _mm256_set1_pd(my);
    __m256d r[3][2], t[3][2];
    products_avx2(qa, qb, vmx, vmy, r);
    long i;
    for (i = 8; i < n - (n % 8); i += 8) {
        products_avx2(qa + i, qb + i, vmx, vmy, t);
#pragma GCC unroll 3
        for (int k = 0; k < 3; k++)
#pragma GCC unroll 2
            for (int h = 0; h < 2; h++)
                r[k][h] = _mm256_add_pd(r[k][h], t[k][h]);
    }
#pragma GCC unroll 3
    for (int k = 0; k < 3; k++)
        sums[k] = combine_avx2(r[k][0], r[k][1]);
    moments_tail(qa, qb, i, n, mx, my, sums);
}

/* The (a-mx)^2, (b-my)^2 and (a-mx)(b-my) of pairs 0 .. 7, lane j of t[k]
 * holding pair j's term of sum k */
__attribute__((target("avx512f")))
static inline void products_avx512(const uint8_t *qa, const uint8_t *qb, __m512d mx, __m512d my,
                                   __m512d t[3])
{
    __m512d x = _mm512_sub_pd(
        _mm512_cvtepi32_pd(_mm256_cvtepu8_epi32(_mm_loadl_epi64((const __m128i *)qa))), mx);
    __m512d y = _mm512_sub_pd(
        _mm512_cvtepi32_pd(_mm256_cvtepu8_epi32(_mm_loadl_epi64((const __m128i *)qb))), my);
    t[0] = _mm512_mul_pd(x, x);
    t[1] = _mm512_mul_pd(y, y);
    t[2] = _mm512_mul_pd(x, y);
}

/* moments_avx2 with each sum's eight accumulators in one register */
__attribute__((target("avx512f")))
static void moments_avx512(const uint8_t *qa, const uint8_t *qb, long n, double mx, double my,
                           double *sums)
{
    const __m512d vmx = _mm512_set1_pd(mx), vmy = _mm512_set1_pd(my);
    __m512d r[3], t[3];
    products_avx512(qa, qb, vmx, vmy, r);
    long i;
    for (i = 8; i < n - (n % 8); i += 8) {
        products_avx512(qa + i, qb + i, vmx, vmy, t);
#pragma GCC unroll 3
        for (int k = 0; k < 3; k++)
            r[k] = _mm512_add_pd(r[k], t[k]);
    }
#pragma GCC unroll 3
    for (int k = 0; k < 3; k++)
        sums[k] = combine_avx2(_mm512_castpd512_pd256(r[k]), _mm512_extractf64x4_pd(r[k], 1));
    moments_tail(qa, qb, i, n, mx, my, sums);
}
#endif

/* sums[0..2] = the pairwise sums of (a-mx)^2, (b-my)^2 and (a-mx)(b-my)
 * over pairs lo .. lo+n-1, split as NumPy splits them */
static void pairwise_moments(const struct pairs *p, long lo, long n, double *sums)
{
    if (n > 128) {
        long n2 = n / 2;
        n2 -= n2 % 8;
        double high[3];
        pairwise_moments(p, lo, n2, sums);
        pairwise_moments(p, lo + n2, n - n2, high);
        for (int k = 0; k < 3; k++)
            sums[k] += high[k];
        return;
    }
    /* the leaf's bytes: read in place when it lies in one row, else copied */
    uint8_t ca[128], cb[128];
    const uint8_t *qa = ca, *qb = cb;
    long r = lo / p->w, c = lo % p->w;
    if (c + n <= p->w) {
        qa = p->a + r * p->cols + c;
        qb = qa + p->off;
    } else {
        for (long i = 0; i < n; r++, c = 0) {
            const uint8_t *ra = p->a + r * p->cols + c;
            long run = p->w - c < n - i ? p->w - c : n - i;
            memcpy(ca + i, ra, run);
            memcpy(cb + i, ra + p->off, run);
            i += run;
        }
    }
    (n >= 8 ? p->leaf : moments_scalar)(qa, qb, n, p->mx, p->my, sums);
}

/* The centred second moments of the pairs (a, b) of the rows x cols image
 * at img that lie dr >= 0 rows and dc >= 0 columns apart: a =
 * img[:rows-dr, :cols-dc] and b = img[dr:, dc:], each h x w, and b starts
 * off = dr * cols + dc bytes after a; rows >= 2 and cols >= 2, so there is
 * a pair.  sa and sb are the exact integer sums of a's and b's pixels,
 * which xcross_statistics takes from the histogram and the border sums;
 * over the count they are the means x.mean() of the float64 pixels gives.
 * The three sums are those np.add.reduce adds over the flattened centred
 * products. */
static void xcross_moments(const uint8_t *img, long rows, long cols, long dr, long dc,
                           uint64_t sa, uint64_t sb, double *sums)
{
    long h = rows - dr, w = cols - dc, off = dr * cols + dc;
    double n = (double)(h * w);
    struct pairs p = {img, w, cols, off, (double)sa / n, (double)sb / n, moments_scalar};
#ifdef XCROSS_AVX2
    if (__builtin_cpu_supports("avx512f"))
        p.leaf = moments_avx512;
    else if (__builtin_cpu_supports("avx2"))
        p.leaf = moments_avx2;
#endif
    pairwise_moments(&p, 0, h * w, sums);
    sums[2] = 0.0 + sums[2];
}

/* NumPy's pairwise sum of the n runs of 128 terms whose leaf sums are
 * leaves[0 .. n-1], n a power of two: each sum of more than 128 terms is
 * halved, so the runs pair up level by level.  Overwrites leaves. */
static double pairwise_tree(double *leaves, long n)
{
    for (; n > 1; n /= 2)
        for (long k = 0; k < n / 2; k++)
            leaves[k] = leaves[2 * k] + leaves[2 * k + 1];
    return leaves[0];
}

/* The GLCM of analysis._glcm_sums for the rows x cols image at img, rows >= 2
 * and cols >= 2.  With c the counts of the horizontal pairs (left, right)
 * at c[left][right] and p = (c + c^T) / its sum, out[0 .. 5] = the sums of
 * (i-j)^2 p, p^2 and p / (1 + |i-j|), mu, the variance, and the sum of
 * ((i-mu)(j-mu)) p, each term formed as NumPy forms it.  A sum over p's
 * 65536 cells is NumPy's pairwise sum: 512 runs of 128 cells, half a row
 * each, paired up by pairwise_tree; a row of p.sum(axis=1) is its two
 * runs' sum.  Only the last sum has negative terms, so only it is added
 * to +0.0.  The pair pass also counts np.bincount of the pixels into the
 * 256 counts at hist, and the pair counts into the 65536 cells at cells:
 * buffers from _native that this routine zeroes first. */
static void xcross_glcm(const uint8_t *img, long rows, long cols, double *out, int64_t *hist,
                        int64_t *cells)
{
    /* the counts, then in place p: (double)0 / total is +0.0, so no cell
     * needs a branch */
    union cell { int64_t n; double p; } *m = (union cell *)cells;
    memset(m, 0, 65536 * sizeof *m);
    memset(hist, 0, 256 * sizeof *hist);
    /* each pixel but the last of a row is the left of one pair */
    for (long r = 0; r < rows; r++, img += cols) {
        for (long x = 0; x + 1 < cols; x++) {
            hist[img[x]]++;
            m[img[x] << 8 | img[x + 1]].n++;
        }
        hist[img[cols - 1]]++;
    }
    /* sym.sum() as NumPy divides by it.  Cells (i, j) and (j, i) are set
     * together, in 8 x 8 tiles, so that a column's strided reads stay in
     * cache */
    double total = (double)(2 * rows * (cols - 1));
    for (int ti = 0; ti < 256; ti += 8)
        for (int tj = ti; tj < 256; tj += 8)
            for (int i = ti; i < ti + 8; i++)
                for (int j = tj == ti ? i : tj; j < tj + 8; j++)
                    m[i << 8 | j].p = m[j << 8 | i].p =
                        (double)(m[i << 8 | j].n + m[j << 8 | i].n) / total;
    /* sq[255 + d] = d^2 and w[255 + d] = 1 + |d|: the weights of cell (i, j)
     * at d = j - i, read forwards along a row so that the loop vectorises */
    double sq[511], w[511], leaves[4][512], t[4][128], pi[256], u[256], lv[256];
    for (int d = -255; d < 256; d++) {
        sq[255 + d] = (double)(d * d);
        w[255 + d] = (double)(1 + abs(d));
    }
    for (long k = 0; k < 512; k++) {
        const union cell *run = m + 128 * k;
        long d0 = 255 - k / 2 + 128 * (k % 2);
        for (int q = 0; q < 128; q++) {
            double p = run[q].p;
            t[0][q] = sq[d0 + q] * p;
            t[1][q] = p * p;
            t[2][q] = p / w[d0 + q];
            t[3][q] = p;
        }
        for (int s = 0; s < 4; s++)
            leaves[s][k] = pairwise_leaf(t[s], 128);
    }
    for (int s = 0; s < 3; s++)
        out[s] = pairwise_tree(leaves[s], 512);
    /* a row's sum, as a sum of 256 terms, is its two runs' sum */
    for (int i = 0; i < 256; i++)
        pi[i] = leaves[3][2 * i] + leaves[3][2 * i + 1];
    for (int i = 0; i < 256; i++)
        u[i] = (double)i * pi[i];
    double mu = pairwise_leaf(u, 128) + pairwise_leaf(u + 128, 128);
    for (int i = 0; i < 256; i++) {
        lv[i] = (double)i - mu;
        u[i] = lv[i] * lv[i] * pi[i];
    }
    double var = pairwise_leaf(u, 128) + pairwise_leaf(u + 128, 128);
    for (long k = 0; k < 512; k++) {
        const union cell *run = m + 128 * k;
        const double *lj = lv + 128 * (k % 2);
        for (int q = 0; q < 128; q++)
            t[0][q] = lv[k / 2] * lj[q] * run[q].p;
        leaves[0][k] = pairwise_leaf(t[0], 128);
    }
    out[3] = mu;
    out[4] = var;
    out[5] = 0.0 + pairwise_tree(leaves[0], 512);
}

/* Every sum of analysis.analyze for the rows x cols image at img, rows >= 2
 * and cols >= 2: the horizontal, vertical and diagonal moments at out[0 .. 8],
 * then xcross_glcm's out and hist at out + 9, its pair counts in cells. */
void xcross_statistics(const uint8_t *img, long rows, long cols, double *out, int64_t *hist,
                       int64_t *cells)
{
    xcross_glcm(img, rows, cols, out + 9, hist, cells);
    /* the sum of the image, from its histogram, and of its first and last
     * rows and its first and last columns: a direction's a and b each leave
     * out one row, one column, or both, whose shared corner is then added
     * back */
    long last = rows * cols - 1;
    uint64_t t = 0, r0 = 0, rl = 0, c0 = 0, cl = 0;
    for (int v = 1; v < 256; v++)
        t += v * (uint64_t)hist[v];
    for (long x = 0; x < cols; x++) {
        r0 += img[x];
        rl += img[last - x];
    }
    for (long r = 0; r < rows; r++) {
        c0 += img[r * cols];
        cl += img[r * cols + cols - 1];
    }
    xcross_moments(img, rows, cols, 0, 1, t - cl, t - c0, out);
    xcross_moments(img, rows, cols, 1, 0, t - rl, t - r0, out + 3);
    xcross_moments(img, rows, cols, 1, 1, t + img[last] - rl - cl, t + img[0] - r0 - c0, out + 6);
}

#ifdef XCROSS_AVX2
/* xcross_substitute for the first n - n % 64 pixels, 64 at a time: each
 * code's row lies in four registers, vpermi2b looks a pixel's low seven
 * bits up in its first or last 128 entries, and bit 7 picks between them.
 * A run's codes are checked before it is written. */
__attribute__((target("avx512f,avx512bw,avx512vbmi")))
static int substitute_vbmi(const uint8_t *img, const uint8_t *ops, const uint8_t *table,
                           uint8_t *out, long n)
{
    __m512i rows[3][4];
    for (int c = 0; c < 3; c++)
        for (int q = 0; q < 4; q++)
            rows[c][q] = _mm512_loadu_si512(table + 256 * c + 64 * q);
    const __m512i two = _mm512_set1_epi8(2);
    for (long i = 0; i + 64 <= n; i += 64) {
        __m512i p = _mm512_loadu_si512(img + i), o = _mm512_loadu_si512(ops + i);
        if (_mm512_cmpgt_epu8_mask(o, two))
            return 1;
        __mmask64 high = _mm512_movepi8_mask(p);
        __m512i r = _mm512_setzero_si512();
        for (int c = 0; c < 3; c++) {
            __m512i lo = _mm512_permutex2var_epi8(rows[c][0], p, rows[c][1]);
            __m512i hi = _mm512_permutex2var_epi8(rows[c][2], p, rows[c][3]);
            __mmask64 code = _mm512_cmpeq_epi8_mask(o, _mm512_set1_epi8((char)c));
            r = _mm512_mask_mov_epi8(r, code, _mm512_mask_blend_epi8(high, lo, hi));
        }
        _mm512_storeu_si512(out + i, r);
    }
    return 0;
}
#endif

/* out[i] = table[ops[i] << 8 | img[i]] for the n pixels at img and their
 * operation codes at ops; table holds one 256-entry row per code.  Returns
 * 1 at the first code above 2, leaving out partly written, else 0. */
int xcross_substitute(const uint8_t *img, const uint8_t *ops, const uint8_t *table,
                      uint8_t *out, long n)
{
    long i = 0;
#ifdef XCROSS_AVX2
    if (n >= 64 && __builtin_cpu_supports("avx512vbmi")) {
        if (substitute_vbmi(img, ops, table, out, n))
            return 1;
        i = n - n % 64;
    }
#endif
    for (; i < n; i++) {
        if (ops[i] > 2)
            return 1;
        out[i] = table[ops[i] << 8 | img[i]];
    }
    return 0;
}

/* The X-Cross permutation of the rows x cols block at in, both sides
 * even, written to out; its inverse when `inverse` is set.  Row pair t is
 * rows t (top) and rows-1-t (bottom).  Its column pairs (l, r = cols-1-l)
 * are visited outermost and innermost remaining in turn, l = 0, pairs-1,
 * 1, pairs-2, ..., two per turn, and each emits (top,r), (bottom,l),
 * (top,l), (bottom,r); the 2 * cols emissions of row pair t fill rows 2t
 * and 2t+1 of the permuted block, which follow each other at e. */
void xcross_xcross(const uint8_t *in, long rows, long cols, uint8_t *out, int inverse)
{
    long last = cols / 2 - 1;
    for (long t = 0; t < rows / 2; t++) {
        if (!inverse) {
            const uint8_t *top = in + t * cols, *bottom = in + (rows - 1 - t) * cols;
            uint8_t *e = out + 2 * t * cols;
            for (long l = 0, m = last; l <= m; l++, m--, e += 8) {
                e[0] = top[cols - 1 - l];
                e[1] = bottom[l];
                e[2] = top[l];
                e[3] = bottom[cols - 1 - l];
                if (m == l)
                    break;
                e[4] = top[cols - 1 - m];
                e[5] = bottom[m];
                e[6] = top[m];
                e[7] = bottom[cols - 1 - m];
            }
            continue;
        }
        /* the forward loop with each move turned round */
        uint8_t *top = out + t * cols, *bottom = out + (rows - 1 - t) * cols;
        const uint8_t *e = in + 2 * t * cols;
        for (long l = 0, m = last; l <= m; l++, m--, e += 8) {
            top[cols - 1 - l] = e[0];
            bottom[l] = e[1];
            top[l] = e[2];
            bottom[cols - 1 - l] = e[3];
            if (m == l)
                break;
            top[cols - 1 - m] = e[4];
            bottom[m] = e[5];
            top[m] = e[6];
            bottom[cols - 1 - m] = e[7];
        }
    }
}
