/**
 * @file
 * Deterministic event-driven online serving simulator.
 *
 * Layered on the Device/DeviceRegistry substrate (DESIGN.md §8), the
 * ServingSimulator replays a seeded RequestTrace against a fleet of
 * simulated accelerators under a FaultInjector's chaos schedule, with
 * the RobustDispatcher's failover/retry/shedding/degradation policy:
 *
 *  - Virtual time. A serial min-heap event loop (arrival, completion,
 *    fault, retry-timer and breaker-probe events, ordered by time with
 *    an insertion sequence number as the tie-break) advances a double
 *    millisecond clock. No wall-clock anywhere.
 *  - Faults. Fail-stop deaths kill in-flight work (failover re-queues
 *    it on the survivors), revivals restore capacity, straggler
 *    intervals multiply the service time of attempts dispatched inside
 *    them, and transient errors fail individual attempts.
 *  - Robustness. Per-attempt timeout, capped exponential-backoff
 *    retries, consecutive-failure circuit breakers with cooldown, a
 *    bounded admission queue with depth- and age-based shedding.
 *  - Graceful degradation. Under queue pressure, DOTA slots downshift
 *    the detector retention ladder (Full -> Conservative -> Aggressive)
 *    — trading the accuracy proxy (retention) for service time, the
 *    knob the DOTA detector uniquely provides. The retention actually
 *    served is recorded per request.
 *
 * Determinism contract: the event loop is serial and all randomness is
 *  drawn from the two explicit seeds (arrival seed inside the trace,
 * fault seed passed to run()); only the (device, level, length) cost
 * cache is warmed in parallel, with a fixed-order merge — so the
 * ServeReport is bit-identical at every DOTA_THREADS.
 */
#pragma once

#include "device/fleet.hpp"
#include "serve/dispatcher.hpp"
#include "serve/fault.hpp"
#include "serve/report.hpp"
#include "serve/trace.hpp"

namespace dota {

/** Fleet + policy of a serving deployment. */
struct ServeConfig
{
    /**
     * Fleet description (same DeviceSpec bins as FleetConfig). When
     * empty, `accelerators` DOTA devices of `mode` are built.
     */
    std::vector<DeviceSpec> devices;
    size_t accelerators = 4;
    DotaMode mode = DotaMode::Full;
    DeviceOptions options = DeviceOptions::table2();

    ServePolicy policy;
};

/** Online serving simulator over a fleet of registered devices. */
class ServingSimulator
{
  public:
    ServingSimulator(ServeConfig cfg, const Benchmark &bench);

    /**
     * Replay @p trace under @p plan. All random fault draws come from
     * @p fault_seed; the arrival randomness is already frozen inside
     * the trace. Deterministic: same (trace, plan, fault_seed) =>
     * bit-identical ServeReport at any thread count.
     */
    ServeReport run(const RequestTrace &trace, const FaultPlan &plan,
                    uint64_t fault_seed = 0x5eedfa017ULL) const;

    /** Convenience overload: no faults. */
    ServeReport
    run(const RequestTrace &trace) const
    {
        return run(trace, FaultPlan{});
    }

    size_t size() const { return slots_.size(); }

    /** Ladder depth of slot @p accel (1 for non-DOTA devices). */
    size_t ladderDepth(size_t accel) const;

    /** Device name of slot @p accel at ladder @p level (clamped). */
    std::string deviceName(size_t accel, size_t level) const;

    /** Retention proxy served by slot @p accel at @p level (clamped). */
    double retention(size_t accel, size_t level) const;

    /**
     * Service time of @p seq_len on @p accel at @p level, including the
     * slot speed but not fault slowdown (cached, thread-safe).
     */
    double serviceMs(size_t accel, size_t level, size_t seq_len) const;

    /** Pre-evaluate every (group, level, length) cost in parallel. */
    void warmCostCache(const std::vector<size_t> &seq_lens) const;

  private:
    /**
     * One fleet slot. Its device group holds the configured device at
     * level 0 and its degradation variants (DOTA modes of decreasing
     * retention) below; deeper levels only exist for DOTA slots.
     */
    struct Slot
    {
        std::vector<double> retention; ///< per level
        double speed = 1.0;
        size_t group = 0; ///< device group (a DeviceSpec's slots share)
    };

    ServePolicy policy_;
    std::vector<Slot> slots_;
    CostCache costs_; ///< devices and (group, level, length) costs
};

} // namespace dota
