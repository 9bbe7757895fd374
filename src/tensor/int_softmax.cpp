/**
 * @file
 * Implementation of the integer shifted-exponential softmax.
 */
#include "tensor/int_softmax.hpp"

#include <cmath>

namespace dota {

IntSoftmaxLut::IntSoftmaxLut(float score_scale)
{
    // One raw score unit in nats, converted to base-2 Q24. A degenerate
    // scale (calibration never saw a score) degrades to scale 1 like
    // the quantizer does.
    const double s =
        (std::isfinite(score_scale) && score_scale > 0.0f)
            ? static_cast<double>(score_scale)
            : 1.0;
    factor_q24_ = static_cast<int64_t>(
        std::llround(s / 0.6931471805599453 * 16777216.0));
    if (factor_q24_ < 1)
        factor_q24_ = 1; // keep monotonicity even for microscopic scales
    // Q15 codes of 2^(-f/256), inclusive top: lut_[0] = 32768 encodes
    // exactly 1.0 so the row-max entry always survives; the value range
    // [16384, 32768] fits uint16_t.
    for (int f = 0; f < 256; ++f)
        lut_[f] = static_cast<uint16_t>(
            std::llround(std::exp2(-f / 256.0) * 32768.0));
}

void
IntSoftmaxLut::softmaxRow(const int32_t *scores, size_t n,
                          const float *mask, uint8_t *probs) const
{
    // Row max over kept coordinates.
    bool any = false;
    int32_t max = 0;
    for (size_t j = 0; j < n; ++j) {
        if (mask != nullptr && mask[j] == 0.0f)
            continue;
        if (!any || scores[j] > max)
            max = scores[j];
        any = true;
    }
    if (!any) {
        for (size_t j = 0; j < n; ++j)
            probs[j] = 0;
        return;
    }

    // e_j = 2^15 * 2^(-z_j) via shift + fractional LUT.
    uint64_t sum = 0;
    // Stack buffer for typical rows, heap for very long ones.
    uint32_t stack_e[512];
    uint32_t *e = stack_e;
    uint32_t *heap_e = nullptr;
    if (n > 512)
        e = heap_e = new uint32_t[n];
    for (size_t j = 0; j < n; ++j) {
        if (mask != nullptr && mask[j] == 0.0f) {
            e[j] = 0;
            continue;
        }
        const int64_t d = static_cast<int64_t>(max) - scores[j];
        const int64_t z = d * factor_q24_; // Q24, >= 0
        const int64_t shift = z >> 24;
        if (shift >= 31) {
            e[j] = 0; // underflows the Q15 grid entirely
            continue;
        }
        const int frac = static_cast<int>((z >> 16) & 0xff);
        e[j] = static_cast<uint32_t>(lut_[frac]) >>
               static_cast<int>(shift);
        sum += e[j];
    }

    // Renormalize onto [0, 127]: p = round(e * 127 / sum). Each e is a
    // term of sum, so p <= 127 by construction. sum > 0 because the max
    // coordinate contributes lut_[0] >> 0 = 32768.
    for (size_t j = 0; j < n; ++j)
        probs[j] = static_cast<uint8_t>(
            (static_cast<uint64_t>(e[j]) * 127 + sum / 2) / sum);

    delete[] heap_e;
}

} // namespace dota
