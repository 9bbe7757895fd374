/**
 * @file
 * Quantization and multi-precision arithmetic support.
 *
 * The DOTA RMMU computes important attention at FX16 and attention
 * *detection* at INT8/INT4/INT2 (Section 4.2). This module provides:
 *
 *  - the Precision enum shared by the algorithm and the simulator,
 *  - symmetric linear quantization to b-bit integers (scale from max-abs),
 *  - integer storage (QuantizedMatrix) plus an integer GEMM whose
 *    accumulation behaves like the hardware datapath, and
 *  - "fake quantization" (quantize-dequantize in float) used when training
 *    the detector under quantization constraints.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace dota {

/** Compute precisions supported by the RMMU (plus FP32 for references). */
enum class Precision { FP32, FX16, INT8, INT4, INT2 };

/** Bit width of a precision (FP32 -> 32). */
int precisionBits(Precision p);

/** Human-readable name, e.g. "INT4". */
std::string precisionName(Precision p);

/** Parse a precision name; fatal() on unknown names. */
Precision precisionFromName(const std::string &name);

/**
 * MACs per PE per cycle relative to the FX16 baseline (Fig. 7): the
 * composable multiplier gives quadratic throughput scaling, so
 * FX16 -> 1, INT8 -> 4, INT4 -> 16, INT2 -> 64. FP32 is not executable on
 * the RMMU and returns 0.
 */
int rmmuMacsPerPe(Precision p);

/** Symmetric quantization parameters for one tensor. */
struct QuantParams
{
    float scale = 1.0f; ///< real value = scale * integer code
    int bits = 8;       ///< signed two's-complement width

    int qmin() const { return -(1 << (bits - 1)); }
    int qmax() const { return (1 << (bits - 1)) - 1; }
};

/** Largest finite |x| over @p m; 0 when no element is finite. */
float maxAbsFinite(const Matrix &m);

/**
 * Pick the symmetric scale so max |x| maps onto the integer range.
 * Non-finite elements are ignored when scanning for max |x| (a NaN or
 * Inf in the tensor must not poison the scale of every other element),
 * and an all-zero / all-non-finite tensor degrades to scale 1 so the
 * identity `code = round(x / scale)` stays well defined.
 */
QuantParams chooseSymmetricScale(const Matrix &m, int bits);

/**
 * Scale for a symmetric grid with integer range [-qmax, qmax] given a
 * calibrated max |x|: max_abs / qmax, degrading to 1 when max_abs is
 * zero or non-finite. This is the scalar core of chooseSymmetricScale,
 * exposed for calibration passes that track running max |x| per tensor
 * site instead of holding the tensor itself.
 */
float symmetricScaleFromMaxAbs(float max_abs, int qmax);

/** A matrix stored as b-bit signed integer codes plus one scale. */
class QuantizedMatrix
{
  public:
    QuantizedMatrix() = default;
    QuantizedMatrix(size_t rows, size_t cols, QuantParams params)
        : rows_(rows), cols_(cols), params_(params),
          codes_(rows * cols, 0)
    {}

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    const QuantParams &params() const { return params_; }

    int16_t &at(size_t r, size_t c) { return codes_[r * cols_ + c]; }
    int16_t at(size_t r, size_t c) const { return codes_[r * cols_ + c]; }
    const int16_t *row(size_t r) const { return codes_.data() + r * cols_; }

    /** Bytes the codes occupy at their true bit width (packed). */
    size_t packedBytes() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    QuantParams params_;
    std::vector<int16_t> codes_;
};

/** Quantize @p m to @p bits with a tensor-wide symmetric scale. */
QuantizedMatrix quantize(const Matrix &m, int bits);

/**
 * Quantize @p m with explicit (e.g. calibrated) parameters. Values
 * beyond the representable range saturate to qmin/qmax; NaN maps to
 * code 0 and a degenerate scale (zero or non-finite) is treated as 1.
 */
QuantizedMatrix quantize(const Matrix &m, QuantParams params);

/** Dequantize back to float. */
Matrix dequantize(const QuantizedMatrix &q);

/** Quantize-dequantize in float (straight-through estimator forward). */
Matrix fakeQuant(const Matrix &m, int bits);

/**
 * Integer GEMM C = A * B^T with 32-bit accumulation, dequantized to float
 * on output — the exact datapath of the detection GEMM in the Lane
 * (quantized operands in, float estimated scores out via the MFU
 * dequantizer).
 */
Matrix quantizedMatmulBT(const QuantizedMatrix &a, const QuantizedMatrix &b);

} // namespace dota
