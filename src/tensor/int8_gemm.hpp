/**
 * @file
 * Int8 tensor types and the threaded u8 x s8 GEMM driver behind the
 * integer inference path (DESIGN.md §16).
 *
 * The CPU int8 datapath is built around one kernel shape: C = A * B^T
 * with A held as unsigned 8-bit codes and B as signed 8-bit codes, so
 * the AVX2 `vpmaddubsw` instruction applies directly. The operand
 * ranges are chosen so that instruction's s16 pair sums cannot
 * saturate, which makes every instantiation *exact*:
 *
 *  - the A side (activations, attention probabilities) is quantized to
 *    a 7-bit symmetric grid, codes in [-63, 63], stored u8 with zero
 *    point kU8ZeroPoint = 64 (so bytes lie in [1, 127]); integer
 *    softmax probabilities are already unsigned and use zero point 0
 *    with codes in [0, 127];
 *  - the B side (weights, cached K/V) is full signed 8-bit symmetric,
 *    codes in [-127, 127].
 *
 * Max pair sum = 127 * 127 * 2 = 32258 < 32767. The zero point is
 * removed after the raw GEMM via precomputed B row sums:
 *     sum_p (q_a[p] + zp) * q_b[j][p] = raw  =>
 *     sum_p q_a[p] * q_b[j][p]        = raw - zp * row_sum[j]
 * and the float result is scale_a * scale_b * compensated.
 *
 * Because s32 addition is associative and exact, results are
 * bit-identical across SIMD ISAs and every DOTA_THREADS value with no
 * reduction-order contract (contrast gemm_kernels.hpp's float
 * families). Scales are *static* (from calibration), so incremental
 * decode reproduces full-sequence results exactly as well.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace dota {

/** Zero point of the u8 activation encoding. */
constexpr int kU8ZeroPoint = 64;
/** Largest activation code magnitude on the 7-bit grid. */
constexpr int kU8ActQmax = 63;
/** Largest weight / K/V code magnitude on the signed 8-bit grid. */
constexpr int kS8Qmax = 127;

/**
 * B-side operand: rows x k signed 8-bit codes (each row contiguous
 * along the reduction axis) plus per-row code sums for zero-point
 * compensation. Covers both weights (row = output channel, i.e. W^T of
 * a LinearLayer's in x out matrix) and cached K/V activations.
 */
struct Int8Tensor
{
    size_t rows = 0;
    size_t k = 0;
    float scale = 1.0f;
    std::vector<int8_t> codes;     ///< rows * k, row-major
    std::vector<int32_t> row_sums; ///< per-row sum of codes

    const int8_t *row(size_t r) const { return codes.data() + r * k; }
    bool empty() const { return rows == 0; }
};

/** A-side operand: rows x k unsigned codes, zero point + scale. */
struct U8Tensor
{
    size_t rows = 0;
    size_t k = 0;
    float scale = 1.0f;
    int zero_point = kU8ZeroPoint;
    std::vector<uint8_t> codes; ///< rows * k, row-major

    const uint8_t *row(size_t r) const { return codes.data() + r * k; }
};

/**
 * Quantize @p n floats onto the s8 grid with the calibrated @p scale
 * into @p out (out-of-range values saturate at ±127, NaN maps to 0) and
 * return the sum of the codes. The row kernel of quantizeS8, and the
 * quantizer of the int8 KV cache (nn/int8_infer.hpp).
 */
int32_t quantizeS8Row(const float *x, size_t n, float scale, int8_t *out);

/** Quantize @p m row-for-row with quantizeS8Row. */
Int8Tensor quantizeS8(const Matrix &m, float scale);

/** As quantizeS8 but encodes m^T (row r of the result = column r of m). */
Int8Tensor quantizeS8Transposed(const Matrix &m, float scale);

/**
 * Quantize @p m onto the 7-bit activation grid with the calibrated
 * @p scale, stored u8 with zero point 64 (saturation at ±63).
 */
U8Tensor quantizeU8(const Matrix &m, float scale);

/** Dequantize an A-side operand (round-trip checks, hook observers). */
Matrix dequantize(const U8Tensor &a);

/** Dequantize a B-side operand. */
Matrix dequantize(const Int8Tensor &b);

/**
 * Raw integer GEMM: c[i*b.rows + j] = sum_p a[i][p] * b[j][p] -
 * a.zero_point * b.row_sums[j], threaded over output rows with the
 * same serial-below-threshold policy as the float GEMMs. @p c must
 * hold a.rows * b.rows elements.
 */
void int8GemmBT(const U8Tensor &a, const Int8Tensor &b, int32_t *c);

/**
 * Dequantized GEMM: float C = a.scale * b.scale * int8GemmBT(a, b),
 * optionally adding a fp32 bias row broadcast over output rows.
 */
Matrix int8MatmulBT(const U8Tensor &a, const Int8Tensor &b,
                    const Matrix *bias = nullptr);

/**
 * Exact s32 dot of k u8 codes @p a against k s8 codes @p b whose sum
 * is @p b_sum, with zero-point compensation: one element of int8GemmBT,
 * and the int8 attention's score of a query against one cached key.
 */
int32_t int8DotCompensated(const uint8_t *a, int zero_point,
                           const int8_t *b, int32_t b_sum, size_t k);

} // namespace dota
