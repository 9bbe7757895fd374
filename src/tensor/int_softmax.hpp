/**
 * @file
 * Integer-only softmax over raw int32 attention scores, following the
 * shifted-exponential construction of ITA (PAPERS.md): softmax is
 * computed entirely in integer arithmetic by rewriting each exponential
 * relative to the row maximum in base 2,
 *
 *     exp(-(max - s_j) * scale) = 2^(-z_j),
 *     z_j = (max - s_j) * scale / ln 2  >=  0,
 *
 * splitting z_j into an integer part (a right shift) and an 8-bit
 * fractional part (a 256-entry Q15 lookup of 2^-f/256). The row sum of
 * the resulting Q15 exponentials renormalizes each entry onto the u8
 * probability grid [0, 127] (scale 1/127, zero point 0) — exactly the
 * A-side operand shape the u8 x s8 probs * V GEMM expects
 * (tensor/int8_gemm.hpp).
 *
 * Everything after LUT construction is integer arithmetic on values
 * derived from the calibrated score scale, so given the same scores
 * the output bytes are identical on every ISA and thread count.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace dota {

/**
 * Shifted-exponential softmax tables for one attention score scale
 * (q_scale * k_scale * 1/sqrt(d_k) — the real value of one raw int32
 * score unit). Built once per layer at plan-quantization time.
 */
class IntSoftmaxLut
{
  public:
    explicit IntSoftmaxLut(float score_scale = 1.0f);

    /**
     * Integer softmax of scores[0..n) into probs[0..n) on the u8 grid
     * [0, 127]. @p mask, when non-null, is the usual 0/1 float keep-
     * mask: dropped coordinates get probability 0 and do not contribute
     * to the max or the normalizer. An all-masked (or empty) row
     * produces all zeros.
     */
    void softmaxRow(const int32_t *scores, size_t n, const float *mask,
                    uint8_t *probs) const;

    /** Real probability represented by output code 127 is ~1: 1/127. */
    float probScale() const { return 1.0f / 127.0f; }

  private:
    int64_t factor_q24_ = 0; ///< round(score_scale / ln2 * 2^24)
    uint16_t lut_[256];      ///< Q15 codes of 2^(-f/256), f = 0..255
};

} // namespace dota
