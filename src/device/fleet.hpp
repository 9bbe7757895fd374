/**
 * @file
 * Scale-out (sequence-level parallel) simulation — Section 4.1:
 * "Different input sequences share the same weights while requiring
 * duplicated hardware resources to be processed in parallel. Therefore,
 * we can scale-out multiple DOTA accelerators to improve sequence-level
 * parallelism."
 *
 * The FleetSimulator dispatches a batch of variable-length sequences
 * onto a fleet of Devices — which may mix backends (DOTA modes, ELSA,
 * the GPU roofline, any registered key) and per-slot speed bins — with
 * greedy earliest-completion-time scheduling, and reports makespan,
 * latency distribution, energy and per-accelerator utilization.
 * Per-length single-sequence costs come from each device's own
 * simulate(), cached per (device group, length) in a CostCache.
 *
 * run() evaluates the missing costs in parallel (DOTA_THREADS), while
 * job-to-device assignment and the statistics merge stay serial in a
 * fixed order, so a dispatch is bit-identical at every thread count.
 */
#pragma once

#include "common/stats.hpp"
#include "device/cost_cache.hpp"
#include "device/registry.hpp"

namespace dota {

/** One slot of a heterogeneous fleet: @p count clones of one device. */
struct DeviceSpec
{
    std::string key = "dota-c"; ///< DeviceRegistry key
    size_t count = 1;
    /**
     * Service-time divisor for this slot (clock binning / part speed):
     * a device with speed 2.0 finishes jobs in half the simulated time.
     * Per-job energy is not scaled (same work, different wall clock).
     */
    double speed = 1.0;
    DeviceOptions opts;
};

/** Fleet configuration. */
struct FleetConfig
{
    /**
     * Heterogeneous fleet description. When empty, a homogeneous DOTA
     * fleet of `accelerators` copies is built from the legacy fields
     * below and the SimOptions handed to the constructor.
     */
    std::vector<DeviceSpec> devices;

    // Legacy homogeneous-DOTA knobs.
    size_t accelerators = 4;
    HwConfig accelerator = HwConfig::dota();
    EnergyModel energy = EnergyModel::tsmc22();
};

/** Outcome of one batch dispatch. */
struct FleetReport
{
    double makespan_ms = 0.0;      ///< time until the last job finishes
    double total_work_ms = 0.0;    ///< sum of job service times
    double mean_latency_ms = 0.0;  ///< mean completion time
    double max_latency_ms = 0.0;
    double utilization = 0.0;      ///< total_work / (N * makespan)
    double throughput_seq_s = 0.0; ///< jobs / makespan
    double total_energy_j = 0.0;   ///< sum of per-job simulate() energy
    double energy_per_seq_j = 0.0; ///< total_energy_j / jobs
    std::vector<double> accel_busy_ms;     ///< per-accelerator busy time
    std::vector<std::string> accel_device; ///< per-accelerator name
    Distribution latency;          ///< completion-time distribution
};

/** Batch simulator over identical-model, variable-length sequences. */
class FleetSimulator
{
  public:
    /**
     * @param cfg    fleet composition (heterogeneous specs or the
     *               legacy homogeneous fields)
     * @param bench  model/benchmark every sequence runs
     * @param opt    DOTA simulation options, used by the legacy
     *               homogeneous path (cfg.devices empty); heterogeneous
     *               slots carry their own DeviceOptions
     */
    FleetSimulator(FleetConfig cfg, const Benchmark &bench,
                   SimOptions opt = SimOptions{});

    /** Fleet from pre-built devices (one accelerator each, speed 1). */
    FleetSimulator(std::vector<std::unique_ptr<Device>> devices,
                   const Benchmark &bench);

    /**
     * Single-sequence service time of @p seq_len tokens on accelerator
     * @p accel (cached per distinct (device, length); thread-safe).
     * Includes the slot's speed factor.
     */
    double sequenceLatencyMs(size_t seq_len, size_t accel = 0) const;

    /** Single-sequence energy on accelerator @p accel (not speed-scaled). */
    double sequenceEnergyJ(size_t seq_len, size_t accel = 0) const;

    /**
     * Evaluate (in parallel) and cache the cost of every distinct
     * (device, length) pair in @p seq_lens. run() calls this first;
     * exposed so callers can pre-warm the cache explicitly.
     */
    void warmLatencyCache(const std::vector<size_t> &seq_lens) const;

    /**
     * Dispatch @p seq_lens greedily: longest job first onto the
     * accelerator that completes it earliest (speed-aware LPT/ECT list
     * scheduling; collapses to classic LPT on a homogeneous fleet).
     */
    FleetReport run(const std::vector<size_t> &seq_lens) const;

    size_t size() const { return group_of_.size(); }

    const Device &
    device(size_t accel) const
    {
        return costs_.device(group_of_[accel], 0);
    }

    double speed(size_t accel) const { return speed_[accel]; }

  private:
    std::vector<double> speed_;
    /**
     * Accelerator -> device group. The accelerators of one DeviceSpec
     * share a group (identical device => identical per-length costs);
     * devices injected directly each get their own.
     */
    std::vector<size_t> group_of_;
    CostCache costs_;
};

} // namespace dota
