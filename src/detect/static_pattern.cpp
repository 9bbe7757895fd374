/**
 * @file
 * Implementation of the static window+global pattern.
 */
#include "detect/static_pattern.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "tensor/topk.hpp"

namespace dota {

Matrix
StaticPatternDetector::selectMask(size_t, size_t, bool causal)
{
    DOTA_ASSERT(n_ > 0, "selectMask before beginLayer");
    const size_t n = n_;
    const size_t budget = keepCount(cfg_.retention, n);
    const size_t globals = keepCount(cfg_.global_fraction, budget);
    const size_t half_window = std::max<size_t>(1, (budget - globals) / 2);

    // Evenly spaced global token positions.
    std::vector<size_t> global_pos;
    global_pos.reserve(globals);
    for (size_t g = 0; g < globals; ++g)
        global_pos.push_back(g * n / globals);

    Matrix mask(n, n);
    for (size_t r = 0; r < n; ++r) {
        // Local window (clamped at the edges).
        const size_t lo = r >= half_window ? r - half_window : 0;
        const size_t hi = std::min(n - 1, r + half_window);
        for (size_t c = lo; c <= hi; ++c)
            mask(r, c) = 1.0f;
        // Global columns: everyone attends to them.
        for (size_t g : global_pos)
            mask(r, g) = 1.0f;
    }
    // Global rows: they attend to everyone.
    for (size_t g : global_pos)
        for (size_t c = 0; c < n; ++c)
            mask(g, c) = 1.0f;

    if (causal) {
        for (size_t r = 0; r < n; ++r)
            for (size_t c = r + 1; c < n; ++c)
                mask(r, c) = 0.0f;
    }
    return mask;
}

} // namespace dota
