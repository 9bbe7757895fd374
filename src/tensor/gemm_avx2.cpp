/**
 * @file
 * AVX2/FMA instantiation of the micro-kernel table. This translation
 * unit is the only one compiled with -mavx2 -mfma (CMake option
 * DOTA_SIMD); it is entered only after a runtime cpuid check, so the
 * rest of the binary stays runnable on any x86-64.
 *
 * Every kernel honors the per-element reduction contracts of
 * gemm_kernels.hpp, which makes the outputs bit-identical to the
 * portable table:
 *
 *  - broadcast-FMA kernels put adjacent output *columns* in vector
 *    lanes and run the p-fold in ascending order with vfmadd, exactly
 *    the fold std::fma performs per element in the portable path;
 *  - dot-family kernels keep one YMM accumulator (the 8-way lane
 *    split), reduce it with the canonical extract/movehl/shuffle
 *    horizontal sum — the pairwise order the contract fixes — and fold
 *    the scalar tail last;
 *  - elementwise kernels run elementwise_impl.hpp's sequences on eight
 *    lanes (vfmadd where the portable lane calls std::fma), and the
 *    tail runs the same sequence on masked loads and stores.
 *
 * The GEMM driver is cache-blocked and register-tiled: output tiles of
 * 4 rows x 16 columns (8 YMM accumulators) are computed per k-sweep,
 * and the j-panel loop is outermost so the 16-column panel of B stays
 * L1-resident while A streams. See DESIGN.md §11 for the measured
 * throughput.
 */
#include "tensor/gemm_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <immintrin.h>
#include <limits>
#include <type_traits>

#include "tensor/elementwise_impl.hpp"

namespace dota {
namespace detail {
namespace {

/** Contract-fixed horizontal sum: (l0+l4 + l2+l6) + (l1+l5 + l3+l7). */
inline float
hsum8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 q = _mm_add_ps(lo, hi); // s_l = lane[l] + lane[l+4]
    const __m128 h = _mm_add_ps(q, _mm_movehl_ps(q, q)); // s0+s2, s1+s3
    const __m128 t = _mm_add_ss(h, _mm_shuffle_ps(h, h, 0x55));
    return _mm_cvtss_f32(t);
}

float
dotAvx2(const float *x, const float *y, size_t k)
{
    __m256 acc = _mm256_setzero_ps();
    const size_t kb = k - k % 8;
    for (size_t p = 0; p < kb; p += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + p),
                              _mm256_loadu_ps(y + p), acc);
    float r = hsum8(acc);
    for (size_t p = kb; p < k; ++p)
        r = std::fma(x[p], y[p], r);
    return r;
}

/**
 * Four dot products sharing the query vector loads: out[c] =
 * dot(x, y[c]) with the exact same per-element sequence as dotAvx2.
 */
inline void
dot4Avx2(const float *x, const float *const y[4], size_t k, float *out)
{
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    const size_t kb = k - k % 8;
    for (size_t p = 0; p < kb; p += 8) {
        const __m256 xv = _mm256_loadu_ps(x + p);
        a0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y[0] + p), a0);
        a1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y[1] + p), a1);
        a2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y[2] + p), a2);
        a3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y[3] + p), a3);
    }
    out[0] = hsum8(a0);
    out[1] = hsum8(a1);
    out[2] = hsum8(a2);
    out[3] = hsum8(a3);
    for (size_t p = kb; p < k; ++p) {
        out[0] = std::fma(x[p], y[0][p], out[0]);
        out[1] = std::fma(x[p], y[1][p], out[1]);
        out[2] = std::fma(x[p], y[2][p], out[2]);
        out[3] = std::fma(x[p], y[3][p], out[3]);
    }
}

/**
 * MR x 16 register tile of the broadcast-FMA GEMM. The A element for
 * output row r at reduction step p sits at a[r * ra + p * pa]: ra=lda,
 * pa=1 expresses C = A*B; ra=1, pa=lda expresses C = A^T*B.
 */
template <int MR>
inline void
micro16(const float *a, size_t ra, size_t pa, const float *b, size_t ldb,
        float *c, size_t ldc, size_t k)
{
    __m256 acc[MR][2];
    for (int r = 0; r < MR; ++r)
        acc[r][0] = acc[r][1] = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
        const float *brow = b + p * ldb;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_set1_ps(a[r * ra + p * pa]);
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    for (int r = 0; r < MR; ++r) {
        _mm256_storeu_ps(c + r * ldc, acc[r][0]);
        _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
    }
}

/** MR x 8 edge tile (single-vector column panel). */
template <int MR>
inline void
micro8(const float *a, size_t ra, size_t pa, const float *b, size_t ldb,
       float *c, size_t ldc, size_t k)
{
    __m256 acc[MR];
    for (int r = 0; r < MR; ++r)
        acc[r] = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb);
        for (int r = 0; r < MR; ++r)
            acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * ra + p * pa]),
                                     bv, acc[r]);
    }
    for (int r = 0; r < MR; ++r)
        _mm256_storeu_ps(c + r * ldc, acc[r]);
}

/**
 * Shared broadcast-FMA GEMM driver over output rows [i0, i1). The
 * 16-wide j-panel loop is outermost so B's panel stays hot in L1 while
 * the i loop streams A; scalar tail columns replay the identical
 * per-element fold with std::fma (compiled to vfmadd in this TU).
 */
void
gemmBroadcastRows(const float *a, size_t ra, size_t pa, const Matrix &b,
                  Matrix &c, size_t i0, size_t i1, size_t k)
{
    const size_t n = b.cols();
    const size_t ldb = n, ldc = n;
    const float *bd = b.data();
    float *cd = c.data();
    const size_t n16 = n - n % 16;
    const size_t n8 = n - n % 8;

    auto rowTiles = [&](auto &&tile, size_t j0) {
        size_t i = i0;
        for (; i + 4 <= i1; i += 4)
            tile(std::integral_constant<int, 4>{}, i, j0);
        switch (i1 - i) {
        case 3:
            tile(std::integral_constant<int, 3>{}, i, j0);
            break;
        case 2:
            tile(std::integral_constant<int, 2>{}, i, j0);
            break;
        case 1:
            tile(std::integral_constant<int, 1>{}, i, j0);
            break;
        default:
            break;
        }
    };

    for (size_t j0 = 0; j0 < n16; j0 += 16)
        rowTiles(
            [&](auto mr, size_t i, size_t j) {
                micro16<decltype(mr)::value>(a + i * ra, ra, pa, bd + j,
                                             ldb, cd + i * ldc + j, ldc,
                                             k);
            },
            j0);
    if (n8 > n16)
        rowTiles(
            [&](auto mr, size_t i, size_t j) {
                micro8<decltype(mr)::value>(a + i * ra, ra, pa, bd + j,
                                            ldb, cd + i * ldc + j, ldc,
                                            k);
            },
            n16);
    // Scalar tail columns: same ascending-p fold per element.
    for (size_t i = i0; i < i1; ++i) {
        float *crow = cd + i * ldc;
        const float *ai = a + i * ra;
        for (size_t j = n8; j < n; ++j) {
            float acc = 0.0f;
            for (size_t p = 0; p < k; ++p)
                acc = std::fma(ai[p * pa], bd[p * ldb + j], acc);
            crow[j] = acc;
        }
    }
}

void
matmulRowsAvx2(const Matrix &a, const Matrix &b, Matrix &c, size_t i0,
               size_t i1)
{
    gemmBroadcastRows(a.data(), a.cols(), 1, b, c, i0, i1, a.cols());
}

void
matmulATRowsAvx2(const Matrix &a, const Matrix &b, Matrix &c, size_t i0,
                 size_t i1)
{
    gemmBroadcastRows(a.data(), 1, a.cols(), b, c, i0, i1, a.rows());
}

void
matmulBTRowsAvx2(const Matrix &a, const Matrix &b, Matrix &c, size_t i0,
                 size_t i1)
{
    const size_t k = a.cols(), n = b.rows();
    for (size_t i = i0; i < i1; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const float *rows[4] = {b.row(j), b.row(j + 1), b.row(j + 2),
                                    b.row(j + 3)};
            dot4Avx2(arow, rows, k, crow + j);
        }
        for (; j < n; ++j)
            crow[j] = dotAvx2(arow, b.row(j), k);
    }
}

void
sparseScoreRowAvx2(const float *q, const float *keys, size_t ldk, size_t k,
                   const uint32_t *cols, size_t nnz, float *out)
{
    size_t t = 0;
    for (; t + 4 <= nnz; t += 4) {
        const float *rows[4] = {keys + cols[t] * ldk,
                                keys + cols[t + 1] * ldk,
                                keys + cols[t + 2] * ldk,
                                keys + cols[t + 3] * ldk};
        dot4Avx2(q, rows, k, out + t);
    }
    for (; t < nnz; ++t)
        out[t] = dotAvx2(q, keys + cols[t] * ldk, k);
}

/**
 * 8 keys per vector: acc[l] holds lane l of the dot-family split for
 * each of the 8 keys, so the pairwise sum and the tail below are
 * dotAvx2's, key by key. @p load reads 8 consecutive floats of a kt row.
 */
template <typename Load>
inline __m256
keysTScore8(const float *q, const float *kt, size_t ldt, size_t k,
            Load load)
{
    __m256 acc[8];
    for (int l = 0; l < 8; ++l)
        acc[l] = _mm256_setzero_ps();
    const size_t kb = k - k % 8;
    for (size_t p = 0; p < kb; p += 8)
        for (size_t l = 0; l < 8; ++l)
            acc[l] = _mm256_fmadd_ps(_mm256_set1_ps(q[p + l]),
                                     load(kt + (p + l) * ldt), acc[l]);
    const __m256 s0 = _mm256_add_ps(acc[0], acc[4]);
    const __m256 s1 = _mm256_add_ps(acc[1], acc[5]);
    const __m256 s2 = _mm256_add_ps(acc[2], acc[6]);
    const __m256 s3 = _mm256_add_ps(acc[3], acc[7]);
    __m256 r = _mm256_add_ps(_mm256_add_ps(s0, s2), _mm256_add_ps(s1, s3));
    for (size_t p = kb; p < k; ++p)
        r = _mm256_fmadd_ps(_mm256_set1_ps(q[p]), load(kt + p * ldt), r);
    return r;
}

/** Lanes [0, n) of a mask, for n in [0, 8]. */
inline __m256i
firstLanes(size_t n)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

void
keysTScoreRowAvx2(const float *q, const float *kt, size_t ldt, size_t k,
                  size_t m, float *out)
{
    size_t j = 0;
    for (; j + 8 <= m; j += 8)
        _mm256_storeu_ps(out + j,
                         keysTScore8(q, kt + j, ldt, k, [](const float *p) {
                             return _mm256_loadu_ps(p);
                         }));
    if (j < m) {
        const __m256i lanes = firstLanes(m - j);
        _mm256_maskstore_ps(
            out + j, lanes,
            keysTScore8(q, kt + j, ldt, k, [lanes](const float *p) {
                return _mm256_maskload_ps(p, lanes);
            }));
    }
}

void
sparseAvRowAvx2(const float *vals, const uint32_t *cols, size_t nnz,
                const float *vd, size_t ldv, size_t d, float *out)
{
    size_t c0 = 0;
    // 64-column register panel: the whole output slice lives in 8 YMM
    // accumulators across the t-fold, so V rows are touched once each.
    for (; c0 + 64 <= d; c0 += 64) {
        __m256 acc[8];
        for (int u = 0; u < 8; ++u)
            acc[u] = _mm256_setzero_ps();
        for (size_t t = 0; t < nnz; ++t) {
            const __m256 av = _mm256_set1_ps(vals[t]);
            const float *vrow = vd + cols[t] * ldv + c0;
            for (int u = 0; u < 8; ++u)
                acc[u] = _mm256_fmadd_ps(
                    av, _mm256_loadu_ps(vrow + 8 * u), acc[u]);
        }
        for (int u = 0; u < 8; ++u)
            _mm256_storeu_ps(out + c0 + 8 * u, acc[u]);
    }
    for (; c0 + 8 <= d; c0 += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (size_t t = 0; t < nnz; ++t)
            acc = _mm256_fmadd_ps(
                _mm256_set1_ps(vals[t]),
                _mm256_loadu_ps(vd + cols[t] * ldv + c0), acc);
        _mm256_storeu_ps(out + c0, acc);
    }
    for (; c0 < d; ++c0) {
        float acc = 0.0f;
        for (size_t t = 0; t < nnz; ++t)
            acc = std::fma(vals[t], vd[cols[t] * ldv + c0], acc);
        out[c0] = acc;
    }
}

/*
 * ---- int8 family -------------------------------------------------------
 *
 * u8 x s8 codes, exact s32 sums. One k-step consumes 32 bytes per
 * operand row: vpmaddubsw forms 16 s16 pair products a_p*b_p + a_{p+1}*
 * b_{p+1} (saturating, but the quantizer bounds u8 codes to [0, 127] so
 * the pair sum tops out at 32258 and never saturates — the kernel is
 * exact), then vpmaddwd against ones widens pairs to 8 s32 partials
 * which accumulate with vpaddd. Integer addition is associative, so no
 * reduction-order contract is needed for portable parity.
 */

/** Sum the 8 s32 lanes of @p v. */
inline int32_t
hsumEpi32(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi32(lo, hi);
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    return _mm_cvtsi128_si32(s);
}

/** One maddubs k-step: 32 u8 x s8 products folded into 8 s32 lanes. */
inline __m256i
maddStep(__m256i acc, const uint8_t *x, const int8_t *y, size_t p)
{
    const __m256i ones = _mm256_set1_epi16(1);
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(x + p));
    const __m256i yv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(y + p));
    const __m256i pair = _mm256_maddubs_epi16(xv, yv);
    return _mm256_add_epi32(acc, _mm256_madd_epi16(pair, ones));
}

int32_t
int8DotAvx2(const uint8_t *x, const int8_t *y, size_t k)
{
    __m256i acc = _mm256_setzero_si256();
    const size_t kb = k - k % 32;
    for (size_t p = 0; p < kb; p += 32)
        acc = maddStep(acc, x, y, p);
    int32_t r = hsumEpi32(acc);
    for (size_t p = kb; p < k; ++p)
        r += static_cast<int32_t>(x[p]) * static_cast<int32_t>(y[p]);
    return r;
}

/**
 * Reduce four 8-lane s32 accumulators to their lane sums packed as
 * [sum v0, sum v1, sum v2, sum v3].
 */
inline __m128i
hsum4Epi32(__m256i v0, __m256i v1, __m256i v2, __m256i v3)
{
    const __m256i s01 = _mm256_hadd_epi32(v0, v1);
    const __m256i s23 = _mm256_hadd_epi32(v2, v3);
    const __m256i s = _mm256_hadd_epi32(s01, s23);
    return _mm_add_epi32(_mm256_castsi256_si128(s),
                         _mm256_extracti128_si256(s, 1));
}

/**
 * 2 x 4 register tile: 2 A rows against 4 B rows, 8 YMM accumulators,
 * 6 loads per 32-element k-step. Tails fall back to int8DotAvx2 —
 * exactness makes any decomposition equivalent.
 */
void
int8GemmBTRowsAvx2(const uint8_t *a, const int8_t *b, int32_t *c,
                   size_t k, size_t n, size_t i0, size_t i1)
{
    const __m256i ones = _mm256_set1_epi16(1);
    const size_t kb = k - k % 32;
    size_t i = i0;
    for (; i + 2 <= i1; i += 2) {
        const uint8_t *a0 = a + i * k;
        const uint8_t *a1 = a0 + k;
        int32_t *c0 = c + i * n;
        int32_t *c1 = c0 + n;
        size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const int8_t *b0 = b + j * k;
            const int8_t *b1 = b0 + k;
            const int8_t *b2 = b1 + k;
            const int8_t *b3 = b2 + k;
            __m256i acc[2][4];
            for (int r = 0; r < 2; ++r)
                for (int s = 0; s < 4; ++s)
                    acc[r][s] = _mm256_setzero_si256();
            for (size_t p = 0; p < kb; p += 32) {
                const __m256i av0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a0 + p));
                const __m256i av1 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a1 + p));
                const int8_t *brows[4] = {b0 + p, b1 + p, b2 + p, b3 + p};
                for (int s = 0; s < 4; ++s) {
                    const __m256i bv = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(brows[s]));
                    acc[0][s] = _mm256_add_epi32(
                        acc[0][s],
                        _mm256_madd_epi16(_mm256_maddubs_epi16(av0, bv),
                                          ones));
                    acc[1][s] = _mm256_add_epi32(
                        acc[1][s],
                        _mm256_madd_epi16(_mm256_maddubs_epi16(av1, bv),
                                          ones));
                }
            }
            __m128i r0 = hsum4Epi32(acc[0][0], acc[0][1], acc[0][2],
                                    acc[0][3]);
            __m128i r1 = hsum4Epi32(acc[1][0], acc[1][1], acc[1][2],
                                    acc[1][3]);
            if (kb < k) {
                alignas(16) int32_t t0[4], t1[4];
                _mm_storeu_si128(reinterpret_cast<__m128i *>(t0), r0);
                _mm_storeu_si128(reinterpret_cast<__m128i *>(t1), r1);
                const int8_t *brows[4] = {b0, b1, b2, b3};
                for (size_t p = kb; p < k; ++p)
                    for (int s = 0; s < 4; ++s) {
                        t0[s] += static_cast<int32_t>(a0[p]) * brows[s][p];
                        t1[s] += static_cast<int32_t>(a1[p]) * brows[s][p];
                    }
                r0 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(t0));
                r1 = _mm_loadu_si128(reinterpret_cast<const __m128i *>(t1));
            }
            _mm_storeu_si128(reinterpret_cast<__m128i *>(c0 + j), r0);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(c1 + j), r1);
        }
        for (; j < n; ++j) {
            const int8_t *brow = b + j * k;
            c0[j] = int8DotAvx2(a0, brow, k);
            c1[j] = int8DotAvx2(a1, brow, k);
        }
    }
    for (; i < i1; ++i) {
        const uint8_t *arow = a + i * k;
        int32_t *crow = c + i * n;
        for (size_t j = 0; j < n; ++j)
            crow[j] = int8DotAvx2(arow, b + j * k, k);
    }
}

/*
 * ---- elementwise family -------------------------------------------------
 */

/** Eight floats per lane op; the compares are ordered (false on NaN). */
struct Avx2Lane
{
    using V = __m256;
    using M = __m256;

    static V set(float c) { return _mm256_set1_ps(c); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static V div(V a, V b) { return _mm256_div_ps(a, b); }
    static V fma(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
    static V
    addExponent(V p, V t)
    {
        return _mm256_castsi256_ps(
            _mm256_add_epi32(_mm256_castps_si256(p),
                             _mm256_slli_epi32(_mm256_castps_si256(t), 23)));
    }
    static M gt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
    static M lt(V a, V b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
    static M isNan(V a) { return _mm256_cmp_ps(a, a, _CMP_UNORD_Q); }
    static V select(M m, V a, V b) { return _mm256_blendv_ps(b, a, m); }
};

/**
 * out[i] = f(in[i]...) for i in [0, n), eight lanes at a time; the last
 * n % 8 elements take the same f on masked loads and stores.
 */
template <typename F, typename... In>
inline void
mapAvx2(F f, size_t n, float *out, const In *...in)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, f(_mm256_loadu_ps(in + i)...));
    if (i < n) {
        const __m256i m = firstLanes(n - i);
        _mm256_maskstore_ps(out + i, m, f(_mm256_maskload_ps(in + i, m)...));
    }
}

void
expRowAvx2(const float *x, float shift, size_t n, float *out)
{
    const __m256 s = _mm256_set1_ps(shift);
    mapAvx2(
        [s](__m256 v) { return expLane<Avx2Lane>(_mm256_sub_ps(v, s)); },
        n, out, x);
}

void
geluRowAvx2(const float *x, size_t n, float *y)
{
    mapAvx2([](__m256 v) { return geluLane<Avx2Lane>(v); }, n, y, x);
}

void
geluBackwardRowAvx2(const float *x, const float *dy, size_t n, float *dx)
{
    mapAvx2([](__m256 v, __m256 g) { return geluBackwardLane<Avx2Lane>(v, g); },
            n, dx, x, dy);
}

/*
 * ---- max and the top-k sweeps ---------------------------------------------
 */

/**
 * max_ps(x, acc) is x > acc ? x : acc, so a NaN x leaves acc as
 * std::max(acc, x) does; the accumulators never hold a NaN.
 */
float
maxRowAvx2(const float *x, size_t n)
{
    const __m256 ninf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
    __m256 a0 = ninf, a1 = ninf, a2 = ninf, a3 = ninf;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        a0 = _mm256_max_ps(_mm256_loadu_ps(x + i), a0);
        a1 = _mm256_max_ps(_mm256_loadu_ps(x + i + 8), a1);
        a2 = _mm256_max_ps(_mm256_loadu_ps(x + i + 16), a2);
        a3 = _mm256_max_ps(_mm256_loadu_ps(x + i + 24), a3);
    }
    for (; i + 8 <= n; i += 8)
        a0 = _mm256_max_ps(_mm256_loadu_ps(x + i), a0);
    const __m256 a = _mm256_max_ps(_mm256_max_ps(a0, a1),
                                   _mm256_max_ps(a2, a3));
    __m128 h = _mm_max_ps(_mm256_castps256_ps128(a),
                          _mm256_extractf128_ps(a, 1));
    h = _mm_max_ps(h, _mm_movehl_ps(h, h));
    float mx = _mm_cvtss_f32(_mm_max_ss(h, _mm_shuffle_ps(h, h, 0x55)));
    for (; i < n; ++i)
        mx = std::max(mx, x[i]);
    return mx;
}

TopkKeyRange
topkKeysRowAvx2(const float *x, size_t n, int32_t *keys, uint32_t *hist)
{
    const __m256 zero = _mm256_setzero_ps();
    const __m256i low31 = _mm256_set1_epi32(0x7fffffff);
    const __m256i half = _mm256_set1_epi32(static_cast<int>(kTopkBins / 2));
    __m256i lo = _mm256_set1_epi32(std::numeric_limits<int32_t>::max());
    __m256i hi = _mm256_set1_epi32(std::numeric_limits<int32_t>::min());
    alignas(32) int32_t bins[8];
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        // topkOrderKey on 8 lanes: b ^ ((b >> 31) & 0x7fffffff).
        const __m256i b = _mm256_castps_si256(
            _mm256_add_ps(_mm256_loadu_ps(x + j), zero));
        const __m256i key =
            _mm256_xor_si256(b, _mm256_and_si256(_mm256_srai_epi32(b, 31),
                                                 low31));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(keys + j), key);
        lo = _mm256_min_epi32(lo, key);
        hi = _mm256_max_epi32(hi, key);
        _mm256_store_si256(
            reinterpret_cast<__m256i *>(bins),
            _mm256_add_epi32(_mm256_srai_epi32(key, 32 - kTopkBinBits),
                             half));
        for (int l = 0; l < 8; ++l)
            ++hist[bins[l]];
    }
    alignas(32) int32_t los[8], his[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(los), lo);
    _mm256_store_si256(reinterpret_cast<__m256i *>(his), hi);
    TopkKeyRange r = {los[0], his[0]};
    for (int l = 1; l < 8; ++l) {
        r.lo = std::min(r.lo, los[l]);
        r.hi = std::max(r.hi, his[l]);
    }
    topkKeysFrom(x, j, n, keys, hist, r);
    return r;
}

/**
 * Left-pack table: for each 8-bit lane mask, the set lanes' indices in
 * ascending order, one per byte, and how many there are.
 */
struct PackTable
{
    uint64_t lanes[256];
    uint8_t count[256];
};

constexpr PackTable
makePackTable()
{
    PackTable t{};
    for (unsigned m = 0; m < 256; ++m) {
        unsigned c = 0;
        for (unsigned l = 0; l < 8; ++l)
            if (m >> l & 1u)
                t.lanes[m] |= uint64_t{l} << (8 * c++);
        t.count[m] = static_cast<uint8_t>(c);
    }
    return t;
}

constexpr PackTable kPackTable = makePackTable();

/** The lowest @p t set bits of the lane mask @p m. */
inline unsigned
lowestBits(unsigned m, size_t t)
{
    if (kPackTable.count[m] <= t)
        return m;
    unsigned r = 0;
    for (; t > 0; --t) {
        r |= m & (0u - m);
        m &= m - 1;
    }
    return r;
}

size_t
topkPackRowAvx2(const int32_t *keys, size_t n, int32_t thr, int32_t hi,
                size_t ties, size_t limit, uint32_t *out)
{
    const __m256i vthr = _mm256_set1_epi32(thr);
    const __m256i vhi = _mm256_set1_epi32(hi);
    const __m256i eight = _mm256_set1_epi32(8);
    __m256i ids = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    size_t kept = 0, j = 0;
    for (; j + 8 <= n && kept < limit; j += 8) {
        const __m256i key = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(keys + j));
        const __m256i in = _mm256_andnot_si256(
            _mm256_cmpgt_epi32(key, vhi), _mm256_cmpgt_epi32(key, vthr));
        unsigned m = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(in)));
        if (ties > 0) {
            const unsigned eq =
                lowestBits(static_cast<unsigned>(_mm256_movemask_ps(
                               _mm256_castsi256_ps(
                                   _mm256_cmpeq_epi32(key, vthr)))),
                           ties);
            ties -= kPackTable.count[eq];
            m |= eq;
        }
        // Stored whether or not a lane is taken: a branch on m != 0
        // mispredicts on sparse rows. Lanes past the taken ones are
        // overwritten by the next store, or fall past the last id but
        // inside out[limit); near the limit the store is masked.
        const bool room = limit - kept >= 8;
        if (!room)
            m = lowestBits(m, limit - kept);
        const __m256i perm = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
            static_cast<long long>(kPackTable.lanes[m])));
        const __m256i packed = _mm256_permutevar8x32_epi32(ids, perm);
        __m256i *dst = reinterpret_cast<__m256i *>(out + kept);
        if (room)
            _mm256_storeu_si256(dst, packed);
        else
            _mm256_maskstore_epi32(reinterpret_cast<int *>(dst),
                                   firstLanes(limit - kept), packed);
        kept += kPackTable.count[m];
        ids = _mm256_add_epi32(ids, eight);
    }
    return topkPackFrom(keys, j, n, thr, hi, ties, limit, out, kept);
}

} // namespace

const GemmKernelTable &
avx2GemmKernels()
{
    static const GemmKernelTable table = {
        matmulRowsAvx2,      matmulATRowsAvx2,   matmulBTRowsAvx2,
        sparseScoreRowAvx2,  keysTScoreRowAvx2,  sparseAvRowAvx2,
        int8GemmBTRowsAvx2,  int8DotAvx2,        expRowAvx2,
        geluRowAvx2,         geluBackwardRowAvx2, maxRowAvx2,
        topkKeysRowAvx2,     topkPackRowAvx2,
    };
    return table;
}

} // namespace detail
} // namespace dota
