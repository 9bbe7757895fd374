/**
 * @file
 * Determinism contract for the online serving simulator: the same
 * (arrival seed, fault seed) pair must produce a bit-identical
 * ServeReport at DOTA_THREADS=1 and DOTA_THREADS=8 — the event loop is
 * serial and only the cost-cache warmup is parallel, so every scalar,
 * every per-request outcome and every device health timeline must match
 * exactly.
 */
#include <gtest/gtest.h>

#include "serve/simulator.hpp"
#include "serve_test_util.hpp"

namespace dota {
namespace {

using test::ScopedThreads;
using test::atBothThreadCounts;
using test::expectIdentical;

ServeReport
chaosRun(uint64_t arrival_seed, uint64_t fault_seed)
{
    TraceConfig tc;
    tc.rate_per_s = 500.0;
    tc.requests = 160;
    tc.seed = arrival_seed;
    tc.deadline_ms = 130.0;
    tc.len_min = 256;
    tc.len_max = 2048;
    ServeConfig sc;
    sc.devices = {DeviceSpec{"dota-f", 6, 1.0, DeviceOptions::table2()}};
    sc.policy.timeout_ms = 70.0;
    sc.policy.max_retries = 3;
    sc.policy.queue_limit = 48;
    sc.policy.degrade_depth_1 = 2.0;
    sc.policy.degrade_depth_2 = 4.0;
    ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
    const FaultPlan plan = parseFaultPlan(
        "kill:0@50,kill:1@80,revive:0@250,slow:2@40-200x6,"
        "transient:0.05,mtbf:4000x200");
    return sim.run(generateTrace(tc), plan, fault_seed);
}

TEST(ServeDeterminism, ChaosReportBitIdenticalAt1And8Threads)
{
    auto [serial, parallel] =
        atBothThreadCounts([] { return chaosRun(42, 7); });
    expectIdentical(serial, parallel);
    // The chaos scenario actually exercises the robustness machinery —
    // otherwise the bit-identity claim is vacuous.
    EXPECT_GT(serial.retries + serial.failovers, 0u);
    EXPECT_GT(serial.completed, 0u);
    EXPECT_EQ(serial.completed + serial.shed() + serial.failed,
              serial.requests);
}

TEST(ServeDeterminism, SameSeedsSameReportAcrossRuns)
{
    ScopedThreads parallel(8);
    const ServeReport a = chaosRun(9, 17);
    const ServeReport b = chaosRun(9, 17);
    expectIdentical(a, b);
}

TEST(ServeDeterminism, SeedsActuallyMatter)
{
    ScopedThreads parallel(8);
    const ServeReport base = chaosRun(9, 17);
    const ServeReport other_arrivals = chaosRun(10, 17);
    const ServeReport other_faults = chaosRun(9, 18);
    EXPECT_NE(base.mean_latency_ms, other_arrivals.mean_latency_ms);
    // A different fault seed reshuffles the MTBF schedule and transient
    // draws; some observable statistic must move.
    const bool differs =
        base.mean_latency_ms != other_faults.mean_latency_ms ||
        base.retries != other_faults.retries ||
        base.completed != other_faults.completed ||
        base.total_energy_j != other_faults.total_energy_j;
    EXPECT_TRUE(differs);
}

TEST(ServeDeterminism, HealthyRunBitIdenticalAt1And8Threads)
{
    auto [serial, parallel] = atBothThreadCounts([] {
        TraceConfig tc;
        tc.rate_per_s = 300.0;
        tc.requests = 100;
        tc.seed = 3;
        tc.len_max = 1024; // few distinct lengths: fast serial warmup
        ServeConfig sc;
        sc.devices = {
            DeviceSpec{"dota-f", 4, 1.0, DeviceOptions::table2()}};
        ServingSimulator sim(sc, benchmark(BenchmarkId::Text));
        return sim.run(generateTrace(tc));
    });
    expectIdentical(serial, parallel);
    EXPECT_EQ(serial.completed, serial.requests);
}

} // namespace
} // namespace dota
