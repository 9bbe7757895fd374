/**
 * @file
 * The devices of a fleet and their single-sequence Device::simulate
 * costs, shared by the FleetSimulator and the ServingSimulator. The
 * accelerators of one DeviceSpec share a group: one device per ladder
 * level (a serving fleet adds its degradation variants), with costs
 * cached per (group, level, length). warm() simulates the missing keys
 * in parallel and merges them in a fixed order, so the cache holds the
 * same numbers at every DOTA_THREADS.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "device/device.hpp"

namespace dota {

/** Device groups and their thread-safe simulated-cost cache. */
class CostCache
{
  public:
    /** Unscaled cost of one sequence (no slot speed, no slowdown). */
    struct Cost
    {
        double ms = 0.0;
        double energy_j = 0.0;
    };

    explicit CostCache(const Benchmark &bench) : bench_(bench) {}

    /** Add a group whose ladder level l is @p levels[l]; returns it. */
    size_t addGroup(std::vector<std::unique_ptr<Device>> levels);

    /** Add a one-level group; returns it. */
    size_t addGroup(std::unique_ptr<Device> device);

    size_t levels(size_t group) const { return groups_[group].size(); }

    const Device &
    device(size_t group, size_t level) const
    {
        return *groups_[group][level];
    }

    /** Cost of @p seq_len on @p group at @p level (simulated once). */
    Cost cost(size_t group, size_t level, size_t seq_len) const;

    /** Simulate every uncached (group, level, length) in parallel. */
    void warm(const std::vector<size_t> &seq_lens) const;

  private:
    using Key = std::tuple<size_t, size_t, size_t>;

    Cost simulate(const Key &key) const;

    Benchmark bench_;
    std::vector<std::vector<std::unique_ptr<Device>>> groups_;
    mutable std::mutex mu_;
    mutable std::map<Key, Cost> cache_;
};

} // namespace dota
