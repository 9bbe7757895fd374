/**
 * @file
 * Implementation of quantization support.
 */
#include "tensor/quant.hpp"

#include <cmath>

namespace dota {

int
precisionBits(Precision p)
{
    switch (p) {
      case Precision::FP32:
        return 32;
      case Precision::FX16:
        return 16;
      case Precision::INT8:
        return 8;
      case Precision::INT4:
        return 4;
      case Precision::INT2:
        return 2;
    }
    DOTA_PANIC("unknown precision");
}

std::string
precisionName(Precision p)
{
    switch (p) {
      case Precision::FP32:
        return "FP32";
      case Precision::FX16:
        return "FX16";
      case Precision::INT8:
        return "INT8";
      case Precision::INT4:
        return "INT4";
      case Precision::INT2:
        return "INT2";
    }
    DOTA_PANIC("unknown precision");
}

Precision
precisionFromName(const std::string &name)
{
    if (name == "FP32")
        return Precision::FP32;
    if (name == "FX16")
        return Precision::FX16;
    if (name == "INT8")
        return Precision::INT8;
    if (name == "INT4")
        return Precision::INT4;
    if (name == "INT2")
        return Precision::INT2;
    DOTA_FATAL("unknown precision name '{}'", name);
}

int
rmmuMacsPerPe(Precision p)
{
    switch (p) {
      case Precision::FP32:
        return 0; // not executable on the RMMU
      case Precision::FX16:
        return 1;
      case Precision::INT8:
        return 4;
      case Precision::INT4:
        return 16;
      case Precision::INT2:
        return 64;
    }
    DOTA_PANIC("unknown precision");
}

float
symmetricScaleFromMaxAbs(float max_abs, int qmax)
{
    DOTA_ASSERT(qmax > 0, "symmetric grid needs a positive qmax");
    if (!std::isfinite(max_abs) || max_abs <= 0.0f)
        return 1.0f;
    return max_abs / static_cast<float>(qmax);
}

float
maxAbsFinite(const Matrix &m)
{
    float max_abs = 0.0f;
    for (size_t i = 0; i < m.size(); ++i) {
        const float a = std::abs(m.data()[i]);
        if (std::isfinite(a))
            max_abs = std::max(max_abs, a);
    }
    return max_abs;
}

QuantParams
chooseSymmetricScale(const Matrix &m, int bits)
{
    DOTA_ASSERT(bits >= 2 && bits <= 16, "unsupported bit width {}", bits);
    QuantParams p;
    p.bits = bits;
    p.scale = symmetricScaleFromMaxAbs(maxAbsFinite(m), p.qmax());
    return p;
}

namespace {

/**
 * Round x/scale to the nearest code in [qmin, qmax]. Saturates out-of-
 * range and infinite values; NaN (from a NaN input) maps to 0. A
 * degenerate scale would make the quotient Inf/NaN and std::lround of
 * that is undefined behavior, so the guard runs on the quotient itself.
 */
int
quantizeOne(float x, float scale, int qmin, int qmax)
{
    const float safe_scale =
        (std::isfinite(scale) && scale > 0.0f) ? scale : 1.0f;
    const float v = x / safe_scale;
    if (std::isnan(v))
        return 0;
    if (v >= static_cast<float>(qmax))
        return qmax;
    if (v <= static_cast<float>(qmin))
        return qmin;
    return static_cast<int>(std::lround(v));
}

} // namespace

QuantizedMatrix
quantize(const Matrix &m, QuantParams params)
{
    QuantizedMatrix q(m.rows(), m.cols(), params);
    for (size_t r = 0; r < m.rows(); ++r)
        for (size_t c = 0; c < m.cols(); ++c)
            q.at(r, c) = static_cast<int16_t>(quantizeOne(
                m(r, c), params.scale, params.qmin(), params.qmax()));
    return q;
}

QuantizedMatrix
quantize(const Matrix &m, int bits)
{
    return quantize(m, chooseSymmetricScale(m, bits));
}

Matrix
dequantize(const QuantizedMatrix &q)
{
    Matrix m(q.rows(), q.cols());
    for (size_t r = 0; r < q.rows(); ++r)
        for (size_t c = 0; c < q.cols(); ++c)
            m(r, c) = static_cast<float>(q.at(r, c)) * q.params().scale;
    return m;
}

Matrix
fakeQuant(const Matrix &m, int bits)
{
    if (bits >= 32)
        return m;
    return dequantize(quantize(m, bits));
}

size_t
QuantizedMatrix::packedBytes() const
{
    const size_t bits = static_cast<size_t>(params_.bits) * rows_ * cols_;
    return (bits + 7) / 8;
}

Matrix
quantizedMatmulBT(const QuantizedMatrix &a, const QuantizedMatrix &b)
{
    DOTA_ASSERT(a.cols() == b.cols(), "quantizedMatmulBT {}x{} * {}x{}^T",
                a.rows(), a.cols(), b.rows(), b.cols());
    const size_t m = a.rows(), k = a.cols(), n = b.rows();
    const float out_scale = a.params().scale * b.params().scale;
    Matrix c(m, n);
    for (size_t i = 0; i < m; ++i) {
        const int16_t *arow = a.row(i);
        float *crow = c.row(i);
        for (size_t j = 0; j < n; ++j) {
            const int16_t *brow = b.row(j);
            int64_t acc = 0; // hardware uses a wide PSUM accumulator
            for (size_t p = 0; p < k; ++p)
                acc += static_cast<int32_t>(arow[p]) * brow[p];
            crow[j] = static_cast<float>(acc) * out_scale;
        }
    }
    return c;
}

} // namespace dota
