/**
 * @file
 * Implementation of the A^3-style candidate search.
 */
#include "detect/a3_detector.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"

namespace dota {

void
A3Detector::observeQK(size_t, size_t, const Matrix &q, const Matrix &k)
{
    const size_t n = q.rows(), m = k.rows(), d = q.cols();

    // Preprocessing (done outside the accelerator in real A^3): sort key
    // indices by component value for every dimension.
    std::vector<std::vector<uint32_t>> sorted(d);
    for (size_t c = 0; c < d; ++c) {
        sorted[c].resize(m);
        std::iota(sorted[c].begin(), sorted[c].end(), 0u);
        std::sort(sorted[c].begin(), sorted[c].end(),
                  [&k, c](uint32_t a, uint32_t b) {
                      return k(a, c) > k(b, c);
                  });
    }

    // Greedy accumulation: per query and dimension, walk the iterations
    // largest products and add the partial contributions.
    est_ = Matrix(n, m);
    const size_t iters = std::min(cfg_.iterations, m);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < d; ++c) {
            const float qv = q(i, c);
            if (qv == 0.0f)
                continue;
            if (qv > 0.0f) {
                for (size_t t = 0; t < iters; ++t) {
                    const uint32_t key = sorted[c][t];
                    est_(i, key) += qv * k(key, c);
                }
            } else {
                for (size_t t = 0; t < iters; ++t) {
                    const uint32_t key = sorted[c][m - 1 - t];
                    est_(i, key) += qv * k(key, c);
                }
            }
        }
    }
}

Matrix
A3Detector::selectMask(size_t, size_t, bool causal)
{
    DOTA_ASSERT(!est_.empty(), "selectMask before observeQK");
    const size_t keep = keepCount(cfg_.retention, est_.rows());
    return causal ? topkMaskCausal(est_, keep) : topkMask(est_, keep);
}

} // namespace dota
