/**
 * @file
 * Portable instantiation of the micro-kernel table, plus the dispatch
 * glue. The loops here are deliberately simple: they spell out the
 * per-element reduction contracts of gemm_kernels.hpp in the most
 * literal form, serve as the reference the AVX2 path is tested against
 * bit-for-bit, and run on any architecture. Throughput is secondary —
 * platforms with AVX2/FMA take this path only in a -DDOTA_SIMD=OFF
 * build, or when a test asks for this table by name.
 */
#include "tensor/gemm_kernels.hpp"

#include <cmath>

namespace dota {

namespace detail {
namespace {

/**
 * Dot-family reduction (see gemm_kernels.hpp): 8 lane accumulators over
 * the main body, the fixed pairwise horizontal sum, then the scalar
 * tail folded in ascending order.
 */
float
dotPortable(const float *x, const float *y, size_t k)
{
    float lane[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    const size_t kb = k - k % 8;
    for (size_t p = 0; p < kb; p += 8)
        for (size_t l = 0; l < 8; ++l)
            lane[l] = std::fma(x[p + l], y[p + l], lane[l]);
    const float s0 = lane[0] + lane[4];
    const float s1 = lane[1] + lane[5];
    const float s2 = lane[2] + lane[6];
    const float s3 = lane[3] + lane[7];
    float r = (s0 + s2) + (s1 + s3);
    for (size_t p = kb; p < k; ++p)
        r = std::fma(x[p], y[p], r);
    return r;
}

/** Broadcast-FMA fold, p outer so B streams row-wise; C rows zeroed. */
void
matmulRowsPortable(const Matrix &a, const Matrix &b, Matrix &c, size_t i0,
                   size_t i1)
{
    const size_t k = a.cols(), n = b.cols();
    for (size_t i = i0; i < i1; ++i) {
        float *crow = c.row(i);
        const float *arow = a.row(i);
        for (size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            const float *brow = b.row(p);
            for (size_t j = 0; j < n; ++j)
                crow[j] = std::fma(av, brow[j], crow[j]);
        }
    }
}

/** As matmulRowsPortable but A is indexed transposed: av = a(p, i). */
void
matmulATRowsPortable(const Matrix &a, const Matrix &b, Matrix &c,
                     size_t i0, size_t i1)
{
    const size_t k = a.rows(), n = b.cols();
    for (size_t i = i0; i < i1; ++i) {
        float *crow = c.row(i);
        for (size_t p = 0; p < k; ++p) {
            const float av = a.row(p)[i];
            const float *brow = b.row(p);
            for (size_t j = 0; j < n; ++j)
                crow[j] = std::fma(av, brow[j], crow[j]);
        }
    }
}

void
matmulBTRowsPortable(const Matrix &a, const Matrix &b, Matrix &c,
                     size_t i0, size_t i1)
{
    const size_t k = a.cols(), n = b.rows();
    for (size_t i = i0; i < i1; ++i) {
        const float *arow = a.row(i);
        float *crow = c.row(i);
        for (size_t j = 0; j < n; ++j)
            crow[j] = dotPortable(arow, b.row(j), k);
    }
}

void
sparseScoreRowPortable(const float *q, const float *keys, size_t ldk,
                       size_t k, const uint32_t *cols, size_t nnz,
                       float *out)
{
    for (size_t t = 0; t < nnz; ++t)
        out[t] = dotPortable(q, keys + cols[t] * ldk, k);
}

void
sparseAvRowPortable(const float *vals, const uint32_t *cols, size_t nnz,
                    const float *v, size_t ldv, size_t width, float *out)
{
    for (size_t c = 0; c < width; ++c)
        out[c] = 0.0f;
    for (size_t t = 0; t < nnz; ++t) {
        const float av = vals[t];
        const float *vrow = v + cols[t] * ldv;
        for (size_t c = 0; c < width; ++c)
            out[c] = std::fma(av, vrow[c], out[c]);
    }
}

/**
 * Exact s32 dot of u8 x s8 codes. Plain ascending loop — integer
 * addition is associative, so no lane-split mimicry is needed for
 * parity with the AVX2 maddubs path (see gemm_kernels.hpp).
 */
int32_t
int8DotPortable(const uint8_t *x, const int8_t *y, size_t k)
{
    int32_t acc = 0;
    for (size_t p = 0; p < k; ++p)
        acc += static_cast<int32_t>(x[p]) * static_cast<int32_t>(y[p]);
    return acc;
}

void
int8GemmBTRowsPortable(const uint8_t *a, const int8_t *b, int32_t *c,
                       size_t k, size_t n, size_t i0, size_t i1)
{
    for (size_t i = i0; i < i1; ++i) {
        const uint8_t *arow = a + i * k;
        int32_t *crow = c + i * n;
        for (size_t j = 0; j < n; ++j)
            crow[j] = int8DotPortable(arow, b + j * k, k);
    }
}

} // namespace

const GemmKernelTable &
portableGemmKernels()
{
    static const GemmKernelTable table = {
        matmulRowsPortable,     matmulATRowsPortable,
        matmulBTRowsPortable,   sparseScoreRowPortable,
        sparseAvRowPortable,    int8GemmBTRowsPortable,
        int8DotPortable,
    };
    return table;
}

} // namespace detail

const GemmKernelTable &
gemmKernels(SimdIsa isa)
{
#ifdef DOTA_SIMD_AVX2
    if (isa == SimdIsa::Avx2 && simdIsaSupported(SimdIsa::Avx2))
        return detail::avx2GemmKernels();
#else
    (void)isa;
#endif
    return detail::portableGemmKernels();
}

const GemmKernelTable &
activeGemmKernels()
{
    static const GemmKernelTable &table = gemmKernels(activeSimdIsa());
    return table;
}

} // namespace dota
