/**
 * @file
 * Implementation of synthetic attention-mask generation.
 */
#include "workloads/mask_synth.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hpp"
#include "tensor/topk.hpp"

namespace dota {

SparseMask
synthesizeMask(size_t n, const MaskProfile &profile, Rng &rng, bool causal)
{
    DOTA_ASSERT(profile.retention > 0.0 && profile.retention <= 1.0,
                "retention {} out of range", profile.retention);
    const size_t k = keepCount(profile.retention, n);

    // Draw hub columns once, with Zipf-skewed popularity.
    std::vector<uint32_t> hubs;
    const size_t hub_count = std::min(profile.hub_count, n);
    {
        auto picks = rng.sampleWithoutReplacement(n, hub_count);
        hubs.assign(picks.begin(), picks.end());
    }
    std::vector<double> hub_cdf(hub_count, 0.0);
    {
        double total = 0.0;
        for (size_t i = 0; i < hub_count; ++i)
            total += 1.0 / std::pow(static_cast<double>(i + 1),
                                    profile.hub_zipf);
        double acc = 0.0;
        for (size_t i = 0; i < hub_count; ++i) {
            acc += (1.0 / std::pow(static_cast<double>(i + 1),
                                   profile.hub_zipf)) / total;
            hub_cdf[i] = acc;
        }
    }
    auto draw_hub = [&]() -> uint32_t {
        const double u = rng.uniform();
        size_t i = 0;
        while (i + 1 < hub_count && hub_cdf[i] < u)
            ++i;
        return hubs[i];
    };

    SparseMask mask(n, n);
    std::vector<uint32_t> row;
    for (size_t r = 0; r < n; ++r) {
        const size_t limit = causal ? r + 1 : n; // visible key range
        const size_t kk = std::min(k, limit);
        std::set<uint32_t> chosen;
        // Always keep the diagonal (tokens attend to themselves).
        chosen.insert(static_cast<uint32_t>(r < limit ? r : limit - 1));

        const auto want_local = static_cast<size_t>(
            std::llround(profile.frac_local * static_cast<double>(kk)));
        const auto want_hub = static_cast<size_t>(
            std::llround(profile.frac_hub * static_cast<double>(kk)));

        // Local window keys.
        size_t guard = 0;
        while (chosen.size() < std::min(kk, 1 + want_local) &&
               guard++ < 16 * kk) {
            const long off = static_cast<long>(
                rng.uniformInt(2 * profile.window + 1)) -
                static_cast<long>(profile.window);
            const long c = static_cast<long>(r) + off;
            if (c < 0 || c >= static_cast<long>(limit))
                continue;
            chosen.insert(static_cast<uint32_t>(c));
        }
        // Hub keys.
        guard = 0;
        const size_t hub_target =
            std::min(kk, chosen.size() + want_hub);
        while (chosen.size() < hub_target && guard++ < 16 * kk) {
            const uint32_t c = draw_hub();
            if (c < limit)
                chosen.insert(c);
        }
        // Random fill to exactly kk (row balance constraint).
        guard = 0;
        while (chosen.size() < kk && guard++ < 64 * kk)
            chosen.insert(static_cast<uint32_t>(rng.uniformInt(limit)));
        // Deterministic fill in the (rare) case rejection stalled.
        for (uint32_t c = 0; chosen.size() < kk && c < limit; ++c)
            chosen.insert(c);

        row.assign(chosen.begin(), chosen.end());
        mask.setRow(r, row);
    }
    return mask;
}

MaskProfile
profileFor(BenchmarkId id, double retention)
{
    MaskProfile p;
    p.retention = retention;
    switch (id) {
      case BenchmarkId::QA:
        // Question tokens act as strong hubs; moderate locality.
        p.frac_local = 0.35;
        p.frac_hub = 0.40;
        p.window = 16;
        p.hub_count = 24;
        break;
      case BenchmarkId::Image:
        // 2D pixel locality dominates (row-major flattening).
        p.frac_local = 0.60;
        p.frac_hub = 0.15;
        p.window = 48;
        p.hub_count = 16;
        break;
      case BenchmarkId::Text:
        p.frac_local = 0.45;
        p.frac_hub = 0.30;
        p.window = 32;
        p.hub_count = 32;
        break;
      case BenchmarkId::Retrieval:
        // Cross-document matching: hubs in both halves, weaker locality.
        p.frac_local = 0.30;
        p.frac_hub = 0.40;
        p.window = 32;
        p.hub_count = 48;
        break;
      case BenchmarkId::LM:
        // Causal: recency window plus repeated-token hubs.
        p.frac_local = 0.55;
        p.frac_hub = 0.25;
        p.window = 64;
        p.hub_count = 32;
        break;
    }
    return p;
}

MaskStats
measureMask(const SparseMask &mask, size_t window, size_t group)
{
    MaskStats stats;
    stats.density = mask.density();
    const size_t n = mask.rows();
    if (n == 0)
        return stats;

    uint64_t local = 0, total = 0;
    std::vector<uint64_t> col_counts(mask.cols(), 0);
    for (size_t r = 0; r < n; ++r) {
        for (uint32_t c : mask.row(r)) {
            ++total;
            const auto dist = static_cast<long>(c) - static_cast<long>(r);
            if (static_cast<size_t>(std::abs(dist)) <= window)
                ++local;
            ++col_counts[c];
        }
    }
    stats.local_fraction =
        total ? static_cast<double>(local) / static_cast<double>(total)
              : 0.0;

    // Share of connections landing on the hottest 1% of columns.
    std::vector<uint64_t> sorted = col_counts;
    std::sort(sorted.begin(), sorted.end(), std::greater<uint64_t>());
    const size_t hot = std::max<size_t>(1, mask.cols() / 100);
    uint64_t hot_sum = 0;
    for (size_t i = 0; i < hot; ++i)
        hot_sum += sorted[i];
    stats.top_column_share =
        total ? static_cast<double>(hot_sum) / static_cast<double>(total)
              : 0.0;

    // Reuse factor within token-parallel groups.
    double reuse_sum = 0.0;
    size_t groups = 0;
    for (size_t g = 0; g + group <= n; g += group) {
        std::set<uint32_t> distinct;
        size_t loads = 0;
        for (size_t r = g; r < g + group; ++r) {
            distinct.insert(mask.row(r).begin(), mask.row(r).end());
            loads += mask.row(r).size();
        }
        if (!distinct.empty()) {
            reuse_sum += static_cast<double>(loads) /
                         static_cast<double>(distinct.size());
            ++groups;
        }
    }
    stats.group_reuse = groups ? reuse_sum / static_cast<double>(groups)
                               : 0.0;
    return stats;
}

} // namespace dota
