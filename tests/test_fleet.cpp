/**
 * @file
 * Tests for the scale-out fleet simulator (Section 4.1).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "device/dota_device.hpp"
#include "device/fleet.hpp"

namespace dota {
namespace {

FleetSimulator
makeFleet(size_t accelerators, DotaMode mode = DotaMode::Conservative)
{
    return FleetSimulator({DeviceSpec{dotaModeKey(mode), accelerators, 1.0,
                                      DeviceOptions::table2()}},
                          benchmark(BenchmarkId::Text));
}

TEST(Fleet, SingleAcceleratorSerializes)
{
    FleetSimulator fleet = makeFleet(1);
    const std::vector<size_t> lens{512, 1024, 768};
    const FleetReport r = fleet.run(lens);
    double sum = 0.0;
    for (size_t n : lens)
        sum += fleet.sequenceLatencyMs(n);
    EXPECT_NEAR(r.makespan_ms, sum, 1e-9);
    EXPECT_NEAR(r.utilization, 1.0, 1e-9);
    EXPECT_EQ(r.accel_busy_ms.size(), 1u);
}

TEST(Fleet, LatencyCacheConsistent)
{
    FleetSimulator fleet = makeFleet(2);
    const double a = fleet.sequenceLatencyMs(1024);
    const double b = fleet.sequenceLatencyMs(1024);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(fleet.sequenceLatencyMs(2048), a); // longer is slower
}

TEST(Fleet, MoreAcceleratorsNeverSlower)
{
    std::vector<size_t> lens;
    Rng rng(5);
    for (int i = 0; i < 12; ++i)
        lens.push_back(256 + 128 * rng.uniformInt(8));
    double prev = 1e300;
    for (size_t n : {1u, 2u, 4u}) {
        const FleetReport r = makeFleet(n).run(lens);
        EXPECT_LE(r.makespan_ms, prev + 1e-9) << n;
        prev = r.makespan_ms;
    }
}

TEST(Fleet, IdenticalJobsScaleNearLinearly)
{
    const std::vector<size_t> lens(8, 1024);
    const FleetReport one = makeFleet(1).run(lens);
    const FleetReport four = makeFleet(4).run(lens);
    EXPECT_NEAR(one.makespan_ms / four.makespan_ms, 4.0, 1e-6);
    EXPECT_NEAR(four.utilization, 1.0, 1e-9);
}

TEST(Fleet, UtilizationBounds)
{
    std::vector<size_t> lens{4096, 256, 256};
    const FleetReport r = makeFleet(2).run(lens);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-12);
    // One giant job dominates: the second accelerator mostly idles.
    EXPECT_LT(r.utilization, 0.9);
}

TEST(Fleet, DetectionImprovesThroughput)
{
    const std::vector<size_t> lens(6, 2048);
    const FleetReport dense = makeFleet(2, DotaMode::Full).run(lens);
    const FleetReport sparse =
        makeFleet(2, DotaMode::Conservative).run(lens);
    EXPECT_GT(sparse.throughput_seq_s, dense.throughput_seq_s);
}

TEST(Fleet, EmptySpecListIsFatal)
{
    EXPECT_DEATH(FleetSimulator(std::vector<DeviceSpec>{},
                                benchmark(BenchmarkId::Text)),
                 "at least one accelerator");
}

TEST(Fleet, EmptyBatch)
{
    const FleetReport r = makeFleet(3).run({});
    EXPECT_DOUBLE_EQ(r.makespan_ms, 0.0);
    EXPECT_DOUBLE_EQ(r.throughput_seq_s, 0.0);
}

/** Device whose every simulation costs exactly nothing. */
class ZeroCostDevice : public Device
{
  public:
    RunReport
    simulate(const Benchmark &bench) const override
    {
        RunReport r;
        r.device = name();
        r.benchmark = bench.name;
        return r; // zero cycles, zero layers, zero energy
    }
    std::string name() const override { return "ZERO"; }
};

TEST(Fleet, ZeroMakespanReportsZeroNotInf)
{
    // A batch whose every job has zero service time used to divide by
    // makespan == 0 and report inf/NaN utilization, throughput, and
    // energy/seq.
    std::vector<std::unique_ptr<Device>> devices;
    devices.push_back(std::make_unique<ZeroCostDevice>());
    devices.push_back(std::make_unique<ZeroCostDevice>());
    FleetSimulator fleet(std::move(devices),
                         benchmark(BenchmarkId::Text));
    const FleetReport r = fleet.run({512, 1024, 2048});
    EXPECT_DOUBLE_EQ(r.makespan_ms, 0.0);
    EXPECT_DOUBLE_EQ(r.utilization, 0.0);
    EXPECT_DOUBLE_EQ(r.throughput_seq_s, 0.0);
    EXPECT_DOUBLE_EQ(r.energy_per_seq_j, 0.0);
    EXPECT_TRUE(std::isfinite(r.utilization));
    EXPECT_TRUE(std::isfinite(r.throughput_seq_s));
    EXPECT_TRUE(std::isfinite(r.energy_per_seq_j));
    EXPECT_EQ(r.latency.count(), 3u);
}

TEST(Fleet, ReportInternallyConsistent)
{
    std::vector<size_t> lens{512, 1024, 1536, 2048, 512};
    const FleetReport r = makeFleet(2).run(lens);
    double busy = 0.0;
    for (double b : r.accel_busy_ms) {
        busy += b;
        EXPECT_LE(b, r.makespan_ms + 1e-9);
    }
    EXPECT_NEAR(busy, r.total_work_ms, 1e-9);
    EXPECT_GE(r.max_latency_ms, r.mean_latency_ms);
    // The latency distribution mirrors the scalar summaries.
    EXPECT_EQ(r.latency.count(), lens.size());
    EXPECT_DOUBLE_EQ(r.latency.max(), r.max_latency_ms);
    EXPECT_NEAR(r.latency.mean(), r.mean_latency_ms, 1e-9);
}

TEST(Fleet, EnergyConservation)
{
    // The dispatched batch's energy is the sum of the per-job device
    // energies, independent of how jobs were placed.
    const std::vector<size_t> lens{512, 1024, 1536, 512, 2048};
    FleetSimulator fleet = makeFleet(3);
    const FleetReport r = fleet.run(lens);
    double expect = 0.0;
    for (size_t n : lens)
        expect += fleet.sequenceEnergyJ(n);
    EXPECT_NEAR(r.total_energy_j, expect, 1e-12 * expect);
    EXPECT_DOUBLE_EQ(r.energy_per_seq_j,
                     r.total_energy_j / double(lens.size()));
    EXPECT_GT(r.total_energy_j, 0.0);
}

std::vector<DeviceSpec>
mixedConfig()
{
    return {DeviceSpec{"dota-c", 2, 1.0, DeviceOptions{}},
            DeviceSpec{"elsa", 1, 1.0, DeviceOptions{}},
            DeviceSpec{"gpu-v100", 1, 1.0, DeviceOptions{}}};
}

TEST(Fleet, HeterogeneousMixConservesWork)
{
    FleetSimulator fleet(mixedConfig(), benchmark(BenchmarkId::Text));
    ASSERT_EQ(fleet.size(), 4u);
    std::vector<size_t> lens;
    Rng rng(7);
    for (int i = 0; i < 14; ++i)
        lens.push_back(256 + 128 * rng.uniformInt(10));
    const FleetReport r = fleet.run(lens);

    ASSERT_EQ(r.accel_busy_ms.size(), 4u);
    ASSERT_EQ(r.accel_device.size(), 4u);
    EXPECT_EQ(r.accel_device[0], "DOTA-C");
    EXPECT_EQ(r.accel_device[1], "DOTA-C");
    EXPECT_EQ(r.accel_device[2], "ELSA");
    EXPECT_EQ(r.accel_device[3], "GPU-V100");

    double busy_sum = 0.0, busy_max = 0.0;
    for (double b : r.accel_busy_ms) {
        EXPECT_GE(b, 0.0);
        busy_sum += b;
        busy_max = std::max(busy_max, b);
    }
    EXPECT_NEAR(busy_sum, r.total_work_ms,
                1e-9 * (1.0 + r.total_work_ms));
    EXPECT_DOUBLE_EQ(r.makespan_ms, busy_max);
    EXPECT_EQ(r.latency.count(), lens.size());
    EXPECT_GT(r.total_energy_j, 0.0);
    // Per-job energy is bracketed by the cheapest/dearest device.
    double lo = 0.0, hi = 0.0;
    for (size_t n : lens) {
        double mn = 1e300, mx = 0.0;
        for (size_t a = 0; a < fleet.size(); ++a) {
            const double e = fleet.sequenceEnergyJ(n, a);
            mn = std::min(mn, e);
            mx = std::max(mx, e);
        }
        lo += mn;
        hi += mx;
    }
    EXPECT_GE(r.total_energy_j, lo * (1.0 - 1e-12));
    EXPECT_LE(r.total_energy_j, hi * (1.0 + 1e-12));
}

TEST(Fleet, SpeedAwareDispatchFavorsFastBin)
{
    // Two identical DOTA-C devices, one clocked 2x: it should finish
    // jobs in half the time and absorb about twice the work share.
    FleetSimulator fleet({DeviceSpec{"dota-c", 1, 1.0, DeviceOptions{}},
                          DeviceSpec{"dota-c", 1, 2.0, DeviceOptions{}}},
                         benchmark(BenchmarkId::Text));
    EXPECT_DOUBLE_EQ(fleet.sequenceLatencyMs(1024, 1),
                     fleet.sequenceLatencyMs(1024, 0) / 2.0);

    const std::vector<size_t> lens(12, 1024);
    const FleetReport r = fleet.run(lens);
    // The 2x bin completes jobs at twice the rate, so it should absorb
    // about twice as many of the identical jobs (8 vs 4, give or take a
    // tie-break).
    EXPECT_GT(r.accel_busy_ms[0], 0.0);
    const double slow_jobs =
        r.accel_busy_ms[0] / fleet.sequenceLatencyMs(1024, 0);
    const double fast_jobs =
        r.accel_busy_ms[1] / fleet.sequenceLatencyMs(1024, 1);
    EXPECT_NEAR(slow_jobs + fast_jobs, 12.0, 1e-6);
    EXPECT_GE(fast_jobs, slow_jobs + 2.0);
    // Energy is per-job work, not wall time: identical on both bins.
    EXPECT_DOUBLE_EQ(fleet.sequenceEnergyJ(1024, 0),
                     fleet.sequenceEnergyJ(1024, 1));
}

TEST(Fleet, DirectDeviceInjection)
{
    // Fleets can be built from pre-configured Device instances.
    std::vector<std::unique_ptr<Device>> devices;
    devices.push_back(DeviceRegistry::create("dota-c"));
    devices.push_back(DeviceRegistry::create("dota-a"));
    FleetSimulator fleet(std::move(devices),
                         benchmark(BenchmarkId::Text));
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet.device(0).name(), "DOTA-C");
    EXPECT_EQ(fleet.device(1).name(), "DOTA-A");
    const FleetReport r = fleet.run({1024, 1024, 2048});
    EXPECT_GT(r.makespan_ms, 0.0);
    EXPECT_EQ(r.latency.count(), 3u);
    // DOTA-A keeps less attention, so it serves a sequence faster.
    EXPECT_LT(fleet.sequenceLatencyMs(2048, 1),
              fleet.sequenceLatencyMs(2048, 0));
}

TEST(Fleet, ConservationInvariantsAcrossScenarios)
{
    // Work conservation must hold for every fleet size, mode and batch:
    // per-accelerator busy time sums to the total dispatched work, the
    // makespan is the max busy time, and utilization never exceeds 1.
    Rng rng(17);
    for (size_t accels : {1u, 2u, 3u, 5u}) {
        for (DotaMode mode : {DotaMode::Full, DotaMode::Conservative}) {
            std::vector<size_t> lens;
            const int jobs = 1 + static_cast<int>(rng.uniformInt(14));
            for (int i = 0; i < jobs; ++i)
                lens.push_back(128 + 128 * rng.uniformInt(16));
            const FleetReport r = makeFleet(accels, mode).run(lens);
            ASSERT_EQ(r.accel_busy_ms.size(), accels);
            double busy_sum = 0.0;
            double busy_max = 0.0;
            for (double b : r.accel_busy_ms) {
                EXPECT_GE(b, 0.0);
                busy_sum += b;
                busy_max = std::max(busy_max, b);
            }
            EXPECT_NEAR(busy_sum, r.total_work_ms,
                        1e-9 * (1.0 + r.total_work_ms))
                << accels << " accels, " << jobs << " jobs";
            EXPECT_DOUBLE_EQ(r.makespan_ms, busy_max);
            EXPECT_GT(r.utilization, 0.0);
            EXPECT_LE(r.utilization, 1.0 + 1e-12);
        }
    }
}

} // namespace
} // namespace dota
