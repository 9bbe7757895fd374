/**
 * @file
 * Implementation of row-wise selection kernels.
 */
#include "tensor/topk.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "tensor/ops.hpp"

namespace dota {

namespace {

/**
 * Digit widths of the radix select. A pass over kWideDigitMinKeys keys
 * or more takes a wide digit (2048 bins; the first one holds the sign,
 * the exponent and two mantissa bits, so one pass leaves few
 * candidates); passes over fewer keys — short rows, the candidates of
 * later passes — take 256 bins, so they do not pay for clearing the
 * wide histogram.
 */
constexpr unsigned kWideDigitBits = 11;
constexpr unsigned kNarrowDigitBits = 8;
constexpr size_t kWideDigitMinKeys = 256;

/**
 * Order-preserving key: key(a) > key(b) exactly when a > b, with -0
 * canonicalized to +0 first so the two zeros tie.
 */
inline uint32_t
orderKey(float v)
{
    const float canon = v + 0.0f;
    uint32_t b;
    std::memcpy(&b, &canon, sizeof b);
    return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
}

/** Row-wise top-k into a dense mask; causal rows see columns [0, r]. */
Matrix
topkRows(const Matrix &scores, size_t k, bool causal)
{
    Matrix mask(scores.rows(), scores.cols());
    std::vector<uint32_t> ids(std::min(k, scores.cols()));
    for (size_t r = 0; r < scores.rows(); ++r) {
        const size_t visible =
            causal ? std::min(r + 1, scores.cols()) : scores.cols();
        const size_t kept = topkRow(scores.row(r), visible, k, ids.data());
        float *mrow = mask.row(r);
        for (size_t i = 0; i < kept; ++i)
            mrow[ids[i]] = 1.0f;
    }
    return mask;
}

} // namespace

size_t
topkRow(const float *x, size_t n, size_t k, uint32_t *out)
{
    if (k >= n) {
        std::iota(out, out + n, 0u);
        return n;
    }
    if (k == 0)
        return 0;
    thread_local std::vector<uint32_t> keys, cand;
    thread_local uint32_t hist[size_t{1} << kWideDigitBits];
    if (keys.size() < n) {
        keys.resize(n);
        cand.resize(n);
    }
    for (size_t j = 0; j < n; ++j)
        keys[j] = orderKey(x[j]);

    // Narrow down the k-th largest key one digit at a time, from the
    // top. Invariant: the m keys in play share the decided high digits,
    // and `need` of them (1 <= need <= m) are kept.
    const uint32_t *src = keys.data();
    size_t m = n, need = k;
    unsigned low = 32; // bits below the decided digits
    uint32_t prefix = 0;
    while (low > 0) {
        const unsigned w = std::min(
            low, m >= kWideDigitMinKeys ? kWideDigitBits : kNarrowDigitBits);
        low -= w;
        const uint32_t dmask = (1u << w) - 1;
        std::fill(hist, hist + dmask + 1, 0u);
        for (size_t i = 0; i < m; ++i)
            ++hist[(src[i] >> low) & dmask];
        uint32_t b = dmask;
        while (hist[b] < need)
            need -= hist[b--];
        prefix |= b << low;
        if (hist[b] == need)
            break; // the whole bucket is kept
        size_t c = 0;
        for (size_t i = 0; i < m; ++i)
            if (((src[i] >> low) & dmask) == b)
                cand[c++] = src[i];
        src = cand.data();
        m = c;
    }

    // Emit, in index order, every key above the decided digits and the
    // first `need` keys equal to them (the lower-index ties).
    const uint32_t top = prefix >> low;
    size_t kept = 0;
    for (uint32_t j = 0; kept < k; ++j) {
        const uint32_t t = keys[j] >> low;
        const bool tie = t == top && need > 0;
        need -= tie;
        out[kept] = j;
        kept += (t > top) || tie;
    }
    return kept;
}

std::vector<uint32_t>
rowTopK(const Matrix &scores, size_t r, size_t k)
{
    std::vector<uint32_t> ids(std::min(k, scores.cols()));
    topkRow(scores.row(r), scores.cols(), k, ids.data());
    return ids;
}

Matrix
topkMask(const Matrix &scores, size_t k)
{
    return topkRows(scores, k, false);
}

Matrix
topkMaskCausal(const Matrix &scores, size_t k)
{
    return topkRows(scores, k, true);
}

Matrix
thresholdMask(const Matrix &scores, float threshold)
{
    Matrix mask(scores.rows(), scores.cols());
    for (size_t i = 0; i < scores.size(); ++i)
        mask.data()[i] = scores.data()[i] >= threshold ? 1.0f : 0.0f;
    return mask;
}

size_t
keepCount(double fraction, size_t n)
{
    return std::max<size_t>(1, static_cast<size_t>(std::llround(
                                   fraction * static_cast<double>(n))));
}

float
thresholdForRetention(const Matrix &scores, double retention)
{
    DOTA_ASSERT(retention > 0.0 && retention <= 1.0,
                "retention {} out of (0, 1]", retention);
    std::vector<float> vals(scores.data(), scores.data() + scores.size());
    // Floors r * size where keepCount rounds; switching moves thresholds.
    const auto keep = std::max<size_t>(
        1, static_cast<size_t>(retention *
                               static_cast<double>(vals.size())));
    std::nth_element(vals.begin(), vals.begin() + static_cast<long>(keep - 1),
                     vals.end(), std::greater<float>());
    return vals[keep - 1];
}

double
maskDensity(const Matrix &mask)
{
    if (mask.empty())
        return 0.0;
    size_t nnz = 0;
    for (size_t i = 0; i < mask.size(); ++i)
        nnz += mask.data()[i] != 0.0f;
    return static_cast<double>(nnz) / static_cast<double>(mask.size());
}

size_t
maskRowCount(const Matrix &mask, size_t r)
{
    size_t nnz = 0;
    const float *row = mask.row(r);
    for (size_t c = 0; c < mask.cols(); ++c)
        nnz += row[c] != 0.0f;
    return nnz;
}

double
attentionMassRecall(const Matrix &scaled_scores, const Matrix &mask)
{
    DOTA_ASSERT(scaled_scores.rows() == mask.rows() &&
                    scaled_scores.cols() == mask.cols(),
                "attentionMassRecall shape mismatch");
    const Matrix probs = rowSoftmax(scaled_scores);
    double total = 0.0;
    for (size_t r = 0; r < probs.rows(); ++r) {
        double kept = 0.0;
        for (size_t c = 0; c < probs.cols(); ++c)
            if (mask(r, c) != 0.0f)
                kept += probs(r, c);
        total += kept;
    }
    return total / static_cast<double>(probs.rows());
}

double
topkRecall(const Matrix &exact, const Matrix &mask, size_t k)
{
    DOTA_ASSERT(exact.rows() == mask.rows() && exact.cols() == mask.cols(),
                "topkRecall shape mismatch");
    double total = 0.0;
    for (size_t r = 0; r < exact.rows(); ++r) {
        const auto truth = rowTopK(exact, r, k);
        size_t hit = 0;
        for (uint32_t c : truth)
            hit += mask(r, c) != 0.0f;
        total += static_cast<double>(hit) /
                 static_cast<double>(std::min(k, exact.cols()));
    }
    return total / static_cast<double>(exact.rows());
}

} // namespace dota
