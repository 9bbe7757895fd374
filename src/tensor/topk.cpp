/**
 * @file
 * Implementation of row-wise selection kernels.
 */
#include "tensor/topk.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace dota {

namespace {

/** Keys in one topkKeysRow bin: the low 32 - kTopkBinBits bits vary. */
constexpr uint32_t kBinSpan = uint32_t{1} << (32 - kTopkBinBits);

/** Digit width of the refine passes over the k-th bin's keys. */
constexpr unsigned kRefineDigitBits = 7;

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

/**
 * Radix-select among the m offsets u[i] < kBinSpan (keys minus their
 * bin's lowest key): the @p need-th largest (1 <= need <= m), one
 * kRefineDigitBits digit at a time from the top, compacting u in place.
 * Returns the threshold offset; @p need comes back as the ties to keep
 * at it, or SIZE_MAX when every offset from the threshold up is kept.
 */
uint32_t
refineBin(uint32_t *u, size_t m, size_t &need)
{
    uint32_t hist[size_t{1} << kRefineDigitBits];
    unsigned low = 32 - kTopkBinBits; // bits below the decided digits
    uint32_t prefix = 0;
    while (low > 0) {
        const unsigned w = std::min(low, kRefineDigitBits);
        low -= w;
        const uint32_t dmask = (1u << w) - 1;
        std::fill(hist, hist + dmask + 1, 0u);
        for (size_t i = 0; i < m; ++i)
            ++hist[(u[i] >> low) & dmask];
        uint32_t b = dmask;
        while (hist[b] < need)
            need -= hist[b--];
        prefix |= b << low;
        if (hist[b] == need) {
            need = SIZE_MAX; // the whole sub-bucket is kept
            break;
        }
        size_t c = 0;
        for (size_t i = 0; i < m; ++i)
            if (((u[i] >> low) & dmask) == b)
                u[c++] = u[i];
        m = c;
    }
    return prefix;
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
    thread_local std::vector<int32_t> keys;
    thread_local std::vector<uint32_t> cand;
    // Zero between calls: each call clears the bins its keys touched.
    thread_local std::array<uint32_t, kTopkBins> hist{};
    if (keys.size() < n) {
        keys.resize(n);
        cand.resize(n);
    }
    const GemmKernelTable &kern = activeGemmKernels();
    const TopkKeyRange range =
        kern.topkKeysRow(x, n, keys.data(), hist.data());

    // The bin of the k-th largest key, down from the maximum's; `need`
    // of its keys are kept.
    size_t b = topkKeyBin(range.hi), need = k;
    while (hist[b] < need)
        need -= hist[b--];
    const size_t in_bin = hist[b];
    std::fill(hist.begin() + static_cast<ptrdiff_t>(topkKeyBin(range.lo)),
              hist.begin() + static_cast<ptrdiff_t>(topkKeyBin(range.hi)) +
                  1,
              0u);
    const int32_t bin_lo = std::bit_cast<int32_t>(
        (static_cast<uint32_t>(b) << (32 - kTopkBinBits)) ^ 0x80000000u);

    // The threshold key: every key above it is kept, and `ties` of the
    // keys equal to it, lowest index first (SIZE_MAX: all of them).
    int32_t thr = bin_lo;
    size_t ties = SIZE_MAX;
    if (in_bin != need) {
        const size_t m = kern.topkPackRow(
            keys.data(), n, bin_lo, bin_lo + static_cast<int32_t>(kBinSpan - 1),
            SIZE_MAX, in_bin, cand.data());
        for (size_t i = 0; i < m; ++i)
            cand[i] = static_cast<uint32_t>(keys[cand[i]] - bin_lo);
        ties = need;
        thr = bin_lo + static_cast<int32_t>(refineBin(cand.data(), m, ties));
    }
    return kern.topkPackRow(keys.data(), n, thr,
                            std::numeric_limits<int32_t>::max(), ties, k, out);
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
