/**
 * @file
 * Implementation of the int8 tensor types and the threaded GEMM driver.
 */
#include "tensor/int8_gemm.hpp"

#include <cmath>

#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace dota {

namespace {

/** Saturating round onto [-qmax, qmax]; NaN -> 0 (see quant.cpp). */
inline int
roundCode(float x, float inv_scale, int qmax)
{
    const float v = x * inv_scale;
    if (std::isnan(v))
        return 0;
    if (v >= static_cast<float>(qmax))
        return qmax;
    if (v <= static_cast<float>(-qmax))
        return -qmax;
    return static_cast<int>(std::lround(v));
}

inline float
safeInvScale(float scale)
{
    return (std::isfinite(scale) && scale > 0.0f) ? 1.0f / scale : 1.0f;
}

} // namespace

int32_t
quantizeS8Row(const float *x, size_t n, float scale, int8_t *out)
{
    const float inv = safeInvScale(scale);
    int32_t sum = 0;
    for (size_t p = 0; p < n; ++p) {
        const int code = roundCode(x[p], inv, kS8Qmax);
        out[p] = static_cast<int8_t>(code);
        sum += code;
    }
    return sum;
}

Int8Tensor
quantizeS8(const Matrix &m, float scale)
{
    Int8Tensor t;
    t.rows = m.rows();
    t.k = m.cols();
    t.scale = scale;
    t.codes.resize(t.rows * t.k);
    t.row_sums.resize(t.rows);
    for (size_t r = 0; r < t.rows; ++r)
        t.row_sums[r] = quantizeS8Row(m.row(r), t.k, scale,
                                      t.codes.data() + r * t.k);
    return t;
}

Int8Tensor
quantizeS8Transposed(const Matrix &m, float scale)
{
    Int8Tensor t;
    t.rows = m.cols();
    t.k = m.rows();
    t.scale = scale;
    t.codes.resize(t.rows * t.k);
    t.row_sums.resize(t.rows);
    const float inv = safeInvScale(scale);
    for (size_t r = 0; r < t.rows; ++r) {
        int8_t *dst = t.codes.data() + r * t.k;
        int32_t sum = 0;
        for (size_t p = 0; p < t.k; ++p) {
            const int code = roundCode(m(p, r), inv, kS8Qmax);
            dst[p] = static_cast<int8_t>(code);
            sum += code;
        }
        t.row_sums[r] = sum;
    }
    return t;
}

U8Tensor
quantizeU8(const Matrix &m, float scale)
{
    U8Tensor t;
    t.rows = m.rows();
    t.k = m.cols();
    t.scale = scale;
    t.zero_point = kU8ZeroPoint;
    t.codes.resize(t.rows * t.k);
    const float inv = safeInvScale(scale);
    for (size_t i = 0; i < m.size(); ++i)
        t.codes[i] = static_cast<uint8_t>(
            roundCode(m.data()[i], inv, kU8ActQmax) + kU8ZeroPoint);
    return t;
}

Matrix
dequantize(const U8Tensor &a)
{
    Matrix m(a.rows, a.k);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(static_cast<int>(a.codes[i]) -
                                         a.zero_point) *
                      a.scale;
    return m;
}

Matrix
dequantize(const Int8Tensor &b)
{
    Matrix m(b.rows, b.k);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(b.codes[i]) * b.scale;
    return m;
}

void
int8GemmBT(const U8Tensor &a, const Int8Tensor &b, int32_t *c)
{
    DOTA_ASSERT(a.k == b.k, "int8GemmBT {}x{} * {}x{}^T", a.rows, a.k,
                b.rows, b.k);
    // s32 headroom: k products of magnitude <= 127*127 must fit.
    DOTA_ASSERT(a.k <= (1ull << 31) / (127ull * 127ull),
                "int8GemmBT: k = {} overflows s32 accumulation", a.k);
    const size_t m = a.rows, k = a.k, n = b.rows;
    const auto &kt = activeGemmKernels();
    const int zp = a.zero_point;
    auto rowBlock = [&](size_t i0, size_t i1) {
        kt.int8GemmBTRows(a.codes.data(), b.codes.data(), c, k, n, i0,
                          i1);
        if (zp != 0)
            for (size_t i = i0; i < i1; ++i) {
                int32_t *crow = c + i * n;
                for (size_t j = 0; j < n; ++j)
                    crow[j] -= zp * b.row_sums[j];
            }
    };
    // The float GEMMs' row partition; each output row is written by
    // exactly one chunk, and s32 arithmetic is exact, so any thread
    // count produces identical bits.
    parallelRows(m, static_cast<uint64_t>(m) * k * n, rowBlock);
}

Matrix
int8MatmulBT(const U8Tensor &a, const Int8Tensor &b, const Matrix *bias)
{
    std::vector<int32_t> raw(a.rows * b.rows);
    int8GemmBT(a, b, raw.data());
    const float out_scale = a.scale * b.scale;
    Matrix c(a.rows, b.rows);
    if (bias != nullptr)
        DOTA_ASSERT(bias->rows() == 1 && bias->cols() == b.rows,
                    "int8MatmulBT bias {} for {} outputs",
                    bias->shapeStr(), b.rows);
    for (size_t i = 0; i < a.rows; ++i) {
        const int32_t *rrow = raw.data() + i * b.rows;
        float *crow = c.row(i);
        for (size_t j = 0; j < b.rows; ++j) {
            float v = static_cast<float>(rrow[j]) * out_scale;
            if (bias != nullptr)
                v += (*bias)(0, j);
            crow[j] = v;
        }
    }
    return c;
}

int32_t
int8DotCompensated(const uint8_t *a, int zero_point, const int8_t *b,
                   int32_t b_sum, size_t k)
{
    return activeGemmKernels().int8Dot(a, b, k) - zero_point * b_sum;
}

} // namespace dota
