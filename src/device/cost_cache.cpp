/**
 * @file
 * Implementation of the simulated-cost cache.
 */
#include "device/cost_cache.hpp"

#include <set>

#include "common/thread_pool.hpp"

namespace dota {

size_t
CostCache::addGroup(std::vector<std::unique_ptr<Device>> levels)
{
    groups_.push_back(std::move(levels));
    return groups_.size() - 1;
}

size_t
CostCache::addGroup(std::unique_ptr<Device> device)
{
    groups_.emplace_back().push_back(std::move(device));
    return groups_.size() - 1;
}

CostCache::Cost
CostCache::simulate(const Key &key) const
{
    const auto [group, level, seq_len] = key;
    Benchmark b = bench_;
    b.paper_shape.seq_len = seq_len;
    const RunReport r = groups_[group][level]->simulate(b);
    return Cost{r.timeMs(), r.totalEnergyJ()};
}

CostCache::Cost
CostCache::cost(size_t group, size_t level, size_t seq_len) const
{
    const Key key{group, level, seq_len};
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
    }
    const Cost c = simulate(key);
    std::lock_guard<std::mutex> lk(mu_);
    cache_[key] = c;
    return c;
}

void
CostCache::warm(const std::vector<size_t> &seq_lens) const
{
    std::vector<Key> missing;
    {
        const std::set<size_t> distinct(seq_lens.begin(), seq_lens.end());
        std::lock_guard<std::mutex> lk(mu_);
        for (size_t g = 0; g < groups_.size(); ++g)
            for (size_t l = 0; l < groups_[g].size(); ++l)
                for (size_t n : distinct)
                    if (!cache_.count({g, l, n}))
                        missing.push_back({g, l, n});
    }
    if (missing.empty())
        return;
    // Each missing key is an independent simulation; results land in a
    // fixed-index array, then merge under the lock in a fixed order.
    std::vector<Cost> costs(missing.size());
    parallelFor(0, missing.size(), 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            costs[i] = simulate(missing[i]);
    });
    std::lock_guard<std::mutex> lk(mu_);
    for (size_t i = 0; i < missing.size(); ++i)
        cache_[missing[i]] = costs[i];
}

} // namespace dota
