/* The compiled routines behind chaotic_maps.py, each byte for byte its
 * Python or NumPy definition there or in key_schedule.py, ibt.py and
 * analysis.py; README, "Determinism and portability", is the full account.
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
 * Two functions have a second, AVX2 body, compiled for that target (never
 * "fma") by a function attribute, so the compile command stays the same.
 * Both are taken on x86-64 CPUs that report AVX2; other CPUs, and builds
 * without XCROSS_AVX2, run the scalar code.
 *  - The IBT gather, per call, for blocks whose byte count is a multiple of
 *    4; other blocks run the scalar loop.  It reads each bit through the
 *    aligned 4-byte word holding it, which lies inside the block because the
 *    block is a whole number of such words.
 *  - The leaves of the correlation sums of 8 or more pairs, where one pass
 *    keeps all three sums' eight accumulators in vector lanes.
 *
 * The statistics repeat NumPy's float64 sums bit for bit: each term is the
 * product or quotient NumPy forms, and pairwise_leaf and pairwise_tree add
 * the terms in the order of NumPy's pairwise summation.  np.add.reduce
 * adds that sum to its identity +0.0, which changes only the sign of a
 * zero, so each sum that has terms of both signs is written 0.0 + s (a
 * form the compiler keeps without -fno-signed-zeros; it may fold s - 0.0
 * to s).  The other sums have no negative term.  xcross_glcm counts the
 * horizontal pairs and, in the same pass over the image, the histogram;
 * it takes the GLCM features from the pair counts in one scalar pass over
 * the 65536 cells and a second for the correlation, with no 256 x 256
 * float64 array beyond the counts it turns into probabilities in place.
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

#ifdef XCROSS_AVX2
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

/* The adjacent pairs of one direction: a = the h x w view at `a` of an
 * image `cols` bytes wide, and b = the same view `off` bytes on.  Pair i
 * is the view's pixel i in row-major order. */
struct pairs {
    const uint8_t *a;
    long w, cols, off;
    double mx, my;
    int avx2; /* whether the leaves of at least 8 pairs take moments_avx2 */
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

#ifdef XCROSS_AVX2
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

/* pairwise_leaf's three sums over the pairs (qa[i], qb[i]), 8 <= n <= 128,
 * in one pass: lane j of each sum's two vectors is accumulator r[j] there,
 * and every product, add and combine is the one pairwise_leaf rounds */
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
    for (int k = 0; k < 3; k++) {
        /* (r0+r1, r4+r5, r2+r3, r6+r7), then ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)) */
        __m256d pairs = _mm256_hadd_pd(r[k][0], r[k][1]);
        __m128d q = _mm_add_pd(_mm256_castpd256_pd128(pairs), _mm256_extractf128_pd(pairs, 1));
        sums[k] = _mm_cvtsd_f64(q) + _mm_cvtsd_f64(_mm_unpackhi_pd(q, q));
    }
    for (; i < n; i++) {
        double x = qa[i] - mx, y = qb[i] - my;
        sums[0] += x * x;
        sums[1] += y * y;
        sums[2] += x * y;
    }
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
#ifdef XCROSS_AVX2
    if (p->avx2 && n >= 8) {
        moments_avx2(qa, qb, n, p->mx, p->my, sums);
        return;
    }
#endif
    double t[3][128];
    for (long i = 0; i < n; i++) {
        double x = qa[i] - p->mx, y = qb[i] - p->my;
        t[0][i] = x * x;
        t[1][i] = y * y;
        t[2][i] = x * y;
    }
    for (int k = 0; k < 3; k++)
        sums[k] = pairwise_leaf(t[k], n);
}

/* The centred second moments of the pairs (a, b) of the rows x cols image
 * at img that lie dr >= 0 rows and dc >= 0 columns apart: a =
 * img[:rows-dr, :cols-dc] and b = img[dr:, dc:], each h x w, and b starts
 * off = dr * cols + dc bytes after a.  The means are exact integer sums
 * over the count, as x.mean() of the float64 pixels gives them, and the
 * three sums are those np.add.reduce adds over the flattened centred
 * products; with no pairs they are the empty sums, +0.0. */
void xcross_moments(const uint8_t *img, long rows, long cols, long dr, long dc, double *sums)
{
    long h = rows - dr, w = cols - dc, off = dr * cols + dc;
    if (h < 1 || w < 1) {
        sums[0] = sums[1] = sums[2] = 0.0;
        return;
    }
    uint64_t sa = 0, sb = 0;
    for (long r = 0; r < h; r++) {
        const uint8_t *ra = img + r * cols, *rb = ra + off;
        long c = 0;
        /* 16 bytes at a time into 32-bit partial sums, a loop that -O2
         * vectorises; one byte at a time into 64 bits it does not */
        for (; c + 16 <= w; c += 16) {
            unsigned ba = 0, bb = 0;
            for (int k = 0; k < 16; k++) {
                ba += ra[c + k];
                bb += rb[c + k];
            }
            sa += ba;
            sb += bb;
        }
        for (; c < w; c++) {
            sa += ra[c];
            sb += rb[c];
        }
    }
    double n = (double)(h * w);
    struct pairs p = {img, w, cols, off, (double)sa / n, (double)sb / n, 0};
#ifdef XCROSS_AVX2
    p.avx2 = __builtin_cpu_supports("avx2");
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

/* The GLCM of analysis.glcm for the rows x cols image at img, rows >= 1
 * and cols >= 2.  With c the counts of the horizontal pairs (left, right)
 * at c[left][right] and p = (c + c^T) / its sum, out[0 .. 5] = the sums of
 * (i-j)^2 p, p^2 and p / (1 + |i-j|), mu, the variance, and the sum of
 * ((i-mu)(j-mu)) p, each term formed as NumPy forms it.  A sum over p's
 * 65536 cells is NumPy's pairwise sum: 512 runs of 128 cells, half a row
 * each, paired up by pairwise_tree; a row of p.sum(axis=1) is its two
 * runs' sum.  Only the last sum has negative terms, so only it is added
 * to +0.0.  The pair pass also adds np.bincount of the pixels into the
 * 256 counts at hist.  Returns 1, with hist as it was, when the pair
 * counts cannot be allocated, else 0. */
int xcross_glcm(const uint8_t *img, long rows, long cols, double *out, int64_t *hist)
{
    /* the counts, then in place p: (double)0 / total is +0.0, so no cell
     * needs a branch */
    union cell { int64_t n; double p; } *m = calloc(65536, sizeof *m);
    if (m == NULL)
        return 1;
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
    free(m);
    out[3] = mu;
    out[4] = var;
    out[5] = 0.0 + pairwise_tree(leaves[0], 512);
    return 0;
}

/* out[i] = table[ops[i] << 8 | img[i]] for the n pixels at img and their
 * operation codes at ops; table holds one 256-entry row per code.  Returns
 * 1 at the first code above 2, leaving out partly written, else 0. */
int xcross_substitute(const uint8_t *img, const uint8_t *ops, const uint8_t *table,
                      uint8_t *out, long n)
{
    for (long i = 0; i < n; i++) {
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
