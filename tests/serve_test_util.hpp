/**
 * @file
 * Shared fixtures of the serving test suite (test_serve*.cpp,
 * test_kv_cache.cpp, test_continuous_batching.cpp,
 * test_generation_golden.cpp): thread-count pinning, bitwise
 * ServeReport comparison, small trace/fleet/engine builders and the
 * seed-derivation idiom — factored here so every suite pins the same
 * determinism contract instead of re-implementing drifting copies.
 */
#pragma once

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve/engine.hpp"
#include "serve/simulator.hpp"

namespace dota {
namespace test {

/** Pin the global pool to @p n threads for one scope. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(size_t n)
        : prev_(ThreadPool::globalConcurrency())
    {
        ThreadPool::setGlobalConcurrency(n);
    }
    ~ScopedThreads() { ThreadPool::setGlobalConcurrency(prev_); }

  private:
    size_t prev_;
};

/** Run @p fn at 1 thread and at 8 threads; return both results. */
template <typename Fn>
auto
atBothThreadCounts(Fn fn)
{
    ScopedThreads serial(1);
    auto a = fn();
    ScopedThreads parallel(8);
    auto b = fn();
    return std::make_pair(std::move(a), std::move(b));
}

/**
 * Derive an independent sub-stream seed from @p seed and @p stream —
 * the forking idiom of serve/trace.cpp (xor a stream tag, then advance
 * once through SplitMix64 so related tags land far apart).
 */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    return Rng(seed ^ stream).next();
}

/** Exact (bitwise, via ==) equality of two full serve reports. */
inline void
expectIdentical(const ServeReport &a, const ServeReport &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.shed_queue_full, b.shed_queue_full);
    EXPECT_EQ(a.shed_expired, b.shed_expired);
    EXPECT_EQ(a.shed_starved, b.shed_starved);
    EXPECT_EQ(a.shed_infeasible, b.shed_infeasible);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.transient_errors, b.transient_errors);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.breaker_trips, b.breaker_trips);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    // Floating-point fields compared with ==: bit-identical, not close.
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p95_ms, b.p95_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
    EXPECT_EQ(a.max_latency_ms, b.max_latency_ms);
    EXPECT_EQ(a.deadline_miss_rate, b.deadline_miss_rate);
    EXPECT_EQ(a.goodput_seq_s, b.goodput_seq_s);
    EXPECT_EQ(a.horizon_ms, b.horizon_ms);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.mean_retention, b.mean_retention);
    EXPECT_EQ(a.completed_by_level, b.completed_by_level);

    // Generation telemetry (all-zero for whole-request runs).
    EXPECT_EQ(a.gen.enabled, b.gen.enabled);
    EXPECT_EQ(a.gen.steps, b.gen.steps);
    EXPECT_EQ(a.gen.prefill_steps, b.gen.prefill_steps);
    EXPECT_EQ(a.gen.decode_steps, b.gen.decode_steps);
    EXPECT_EQ(a.gen.prefill_tokens, b.gen.prefill_tokens);
    EXPECT_EQ(a.gen.decode_tokens, b.gen.decode_tokens);
    EXPECT_EQ(a.gen.output_tokens, b.gen.output_tokens);
    EXPECT_EQ(a.gen.ttft_p50_ms, b.gen.ttft_p50_ms);
    EXPECT_EQ(a.gen.ttft_p95_ms, b.gen.ttft_p95_ms);
    EXPECT_EQ(a.gen.ttft_p99_ms, b.gen.ttft_p99_ms);
    EXPECT_EQ(a.gen.tpot_p50_ms, b.gen.tpot_p50_ms);
    EXPECT_EQ(a.gen.tpot_p95_ms, b.gen.tpot_p95_ms);
    EXPECT_EQ(a.gen.tpot_p99_ms, b.gen.tpot_p99_ms);
    EXPECT_EQ(a.gen.kv_page_tokens, b.gen.kv_page_tokens);
    EXPECT_EQ(a.gen.kv_pages_total, b.gen.kv_pages_total);
    EXPECT_EQ(a.gen.kv_budget_bytes, b.gen.kv_budget_bytes);
    EXPECT_EQ(a.gen.kv_peak_pages, b.gen.kv_peak_pages);
    EXPECT_EQ(a.gen.kv_peak_bytes, b.gen.kv_peak_bytes);
    EXPECT_EQ(a.gen.kv_peak_occupancy, b.gen.kv_peak_occupancy);
    EXPECT_EQ(a.gen.evictions, b.gen.evictions);
    EXPECT_EQ(a.gen.evicted_tokens, b.gen.evicted_tokens);
    EXPECT_EQ(a.gen.preemptions, b.gen.preemptions);
    EXPECT_EQ(a.gen.kv_ooms, b.gen.kv_ooms);
    EXPECT_EQ(a.gen.max_queue_wait_steps, b.gen.max_queue_wait_steps);

    // Chaos telemetry (all-zero for fault-free runs).
    EXPECT_EQ(a.gen.prefill_failovers, b.gen.prefill_failovers);
    EXPECT_EQ(a.gen.decode_failovers, b.gen.decode_failovers);
    EXPECT_EQ(a.gen.wasted_prefill_tokens, b.gen.wasted_prefill_tokens);
    EXPECT_EQ(a.gen.wasted_decode_tokens, b.gen.wasted_decode_tokens);
    EXPECT_EQ(a.gen.transient_steps, b.gen.transient_steps);
    EXPECT_EQ(a.gen.corrupted_pages_detected,
              b.gen.corrupted_pages_detected);
    EXPECT_EQ(a.gen.corruption_reprefills, b.gen.corruption_reprefills);
    EXPECT_EQ(a.gen.quarantined_pages, b.gen.quarantined_pages);
    EXPECT_EQ(a.gen.watchdog_migrations, b.gen.watchdog_migrations);
    EXPECT_EQ(a.gen.recoveries, b.gen.recoveries);
    EXPECT_EQ(a.gen.recovery_p50_ms, b.gen.recovery_p50_ms);
    EXPECT_EQ(a.gen.recovery_p95_ms, b.gen.recovery_p95_ms);
    EXPECT_EQ(a.gen.recovery_max_ms, b.gen.recovery_max_ms);

    // Migration + probation telemetry (DESIGN.md §15).
    EXPECT_EQ(a.gen.drains, b.gen.drains);
    EXPECT_EQ(a.gen.migrations, b.gen.migrations);
    EXPECT_EQ(a.gen.migrated_pages, b.gen.migrated_pages);
    EXPECT_EQ(a.gen.migrated_bytes, b.gen.migrated_bytes);
    EXPECT_EQ(a.gen.migration_no_target, b.gen.migration_no_target);
    EXPECT_EQ(a.gen.migration_poisoned, b.gen.migration_poisoned);
    EXPECT_EQ(a.gen.saved_prefill_tokens, b.gen.saved_prefill_tokens);
    EXPECT_EQ(a.gen.saved_decode_tokens, b.gen.saved_decode_tokens);
    EXPECT_EQ(a.gen.migration_p50_ms, b.gen.migration_p50_ms);
    EXPECT_EQ(a.gen.migration_p95_ms, b.gen.migration_p95_ms);
    EXPECT_EQ(a.gen.migration_max_ms, b.gen.migration_max_ms);
    EXPECT_EQ(a.gen.probation_promotions, b.gen.probation_promotions);
    EXPECT_EQ(a.gen.probation_demotions, b.gen.probation_demotions);

    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const RequestOutcome &x = a.outcomes[i];
        const RequestOutcome &y = b.outcomes[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.status, y.status);
        EXPECT_EQ(x.device, y.device);
        EXPECT_EQ(x.dispatch_ms, y.dispatch_ms);
        EXPECT_EQ(x.finish_ms, y.finish_ms);
        EXPECT_EQ(x.attempts, y.attempts);
        EXPECT_EQ(x.level, y.level);
        EXPECT_EQ(x.retention, y.retention);
        EXPECT_EQ(x.deadline_missed, y.deadline_missed);
        EXPECT_EQ(x.generated, y.generated);
        EXPECT_EQ(x.ttft_ms, y.ttft_ms);
        EXPECT_EQ(x.tpot_ms, y.tpot_ms);
    }
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (size_t d = 0; d < a.devices.size(); ++d) {
        EXPECT_EQ(a.devices[d].name, b.devices[d].name);
        EXPECT_EQ(a.devices[d].busy_ms, b.devices[d].busy_ms);
        EXPECT_EQ(a.devices[d].completed, b.devices[d].completed);
        EXPECT_EQ(a.devices[d].failed_attempts,
                  b.devices[d].failed_attempts);
        EXPECT_EQ(a.devices[d].breaker_trips,
                  b.devices[d].breaker_trips);
        EXPECT_EQ(a.devices[d].down_intervals,
                  b.devices[d].down_intervals);
    }
}

/** Small whole-request arrival trace (few distinct lengths: fast warm). */
inline TraceConfig
smallTrace(size_t requests = 60, double rate = 400.0)
{
    TraceConfig tc;
    tc.rate_per_s = rate;
    tc.requests = requests;
    tc.seed = 11;
    tc.len_min = 128;
    tc.len_max = 1024;
    return tc;
}

/** Small homogeneous DOTA fleet. */
inline ServeConfig
smallFleet(size_t accelerators = 4)
{
    ServeConfig sc;
    sc.devices = {
        DeviceSpec{"dota-f", accelerators, 1.0, DeviceOptions::table2()}};
    return sc;
}

/** Small generation trace (short prompts and outputs: fast engine runs). */
inline GenTraceConfig
smallGenTrace(size_t requests = 40, double rate = 200.0,
              uint64_t seed = 11)
{
    GenTraceConfig gc;
    gc.arrivals = smallTrace(requests, rate);
    gc.arrivals.seed = seed;
    gc.out_min = 8;
    gc.out_max = 64;
    gc.out_round = 4;
    return gc;
}

/** Small engine config over a homogeneous DOTA fleet. */
inline EngineConfig
smallEngine(size_t accelerators = 2)
{
    EngineConfig ec;
    ec.devices = {
        DeviceSpec{"dota-f", accelerators, 1.0, DeviceOptions::table2()}};
    ec.batch.max_batch_seqs = 4;
    ec.batch.max_step_tokens = 4096;
    ec.kv.page_tokens = 16;
    ec.kv.budget_bytes = 32ull << 20;
    return ec;
}

} // namespace test
} // namespace dota
