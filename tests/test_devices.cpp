/**
 * @file
 * Tests for the polymorphic Device interface and DeviceRegistry — in
 * particular the parity contract: every registry-created device must
 * reproduce the numbers the pre-refactor System facade produced (golden
 * values captured from the seed code paths, tests/data/
 * golden_device_parity.txt).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/dota.hpp"

namespace dota {
namespace {

// ------------------------------------------------------------- registry

TEST(DeviceRegistry, BuiltinKeys)
{
    const std::vector<std::string> keys = DeviceRegistry::keys();
    for (const char *key :
         {"dota-f", "dota-c", "dota-a", "elsa", "gpu-v100"}) {
        EXPECT_TRUE(DeviceRegistry::contains(key)) << key;
        EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end());
        EXPECT_FALSE(DeviceRegistry::describe(key).empty());
    }
    EXPECT_FALSE(DeviceRegistry::contains("no-such-device"));
}

TEST(DeviceRegistry, UnknownKeyIsFatal)
{
    EXPECT_DEATH(DeviceRegistry::create("warp-drive"),
                 "unknown device key");
}

TEST(DeviceRegistry, CreatedDevicesAreLabeled)
{
    const std::map<std::string, std::string> expected{
        {"dota-f", "DOTA-F"}, {"dota-c", "DOTA-C"},
        {"dota-a", "DOTA-A"}, {"elsa", "ELSA"},
        {"gpu-v100", "GPU-V100"}};
    for (const auto &[key, name] : expected) {
        const auto dev = DeviceRegistry::create(key);
        EXPECT_EQ(dev->name(), name);
        const RunReport r = dev->simulate(benchmark(BenchmarkId::QA));
        EXPECT_EQ(r.device, name);
        EXPECT_EQ(r.benchmark, "QA");
    }
}

TEST(Device, GenerationUnsupportedIsFatal)
{
    const auto elsa = DeviceRegistry::create("elsa");
    EXPECT_DEATH(elsa->simulateGeneration(benchmark(BenchmarkId::LM)),
                 "generation");
}

// ------------------------------------------------- cross-device invariants

TEST(Device, GpuHasZeroDetectionEverywhere)
{
    const auto gpu = DeviceRegistry::create("gpu-v100");
    for (const Benchmark &b : allBenchmarks()) {
        const RunReport r = gpu->simulate(b);
        EXPECT_EQ(r.per_layer.detection.cycles, 0u) << b.name;
        EXPECT_EQ(r.per_layer.detection.macs, 0u) << b.name;
        EXPECT_EQ(r.per_layer.detection.energy_pj, 0.0) << b.name;
    }
}

TEST(Device, FullModeIsNeverFasterThanConservative)
{
    const auto full = DeviceRegistry::create("dota-f");
    const auto cons = DeviceRegistry::create("dota-c");
    for (const Benchmark &b : allBenchmarks()) {
        const RunReport rf = full->simulate(b);
        const RunReport rc = cons->simulate(b);
        // Retention 1.0 retires at least as many attention cycles.
        EXPECT_GE(rf.totalCycles(), rc.totalCycles()) << b.name;
        EXPECT_GE(rf.per_layer.attention.cycles,
                  rc.per_layer.attention.cycles)
            << b.name;
    }
}

TEST(Device, EveryDeviceEmitsUnifiedReports)
{
    const Benchmark &b = benchmark(BenchmarkId::Text);
    for (const std::string &key : DeviceRegistry::keys()) {
        const auto dev = DeviceRegistry::create(key);
        const RunReport r = dev->simulate(b);
        EXPECT_GT(r.timeMs(), 0.0) << key;
        EXPECT_GT(r.totalEnergyJ(), 0.0) << key;
        EXPECT_GT(r.attentionTimeMs(), 0.0) << key;
        EXPECT_EQ(r.layers, b.paper_shape.layers) << key;
    }
}

// ------------------------------------------------------- seed parity

/** golden_device_parity.txt: "<device> <benchmark> <field> <hex>". */
std::map<std::string, double>
loadGolden()
{
    const std::string path =
        std::string(DOTA_TEST_DATA_DIR) + "/golden_device_parity.txt";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::map<std::string, double> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string device, bench, field, hex;
        ls >> device >> bench >> field >> hex;
        golden[device + "/" + bench + "/" + field] =
            std::strtod(hex.c_str(), nullptr);
    }
    return golden;
}

class DeviceParity : public ::testing::Test
{
  protected:
    static const std::map<std::string, double> &
    golden()
    {
        static const std::map<std::string, double> g = loadGolden();
        return g;
    }

    static double
    want(const std::string &device, const std::string &bench,
         const std::string &field)
    {
        const auto it = golden().find(device + "/" + bench + "/" + field);
        EXPECT_NE(it, golden().end())
            << device << "/" << bench << "/" << field;
        return it == golden().end() ? 0.0 : it->second;
    }
};

TEST_F(DeviceParity, AcceleratorDevicesAreBitIdenticalToSeedFacade)
{
    // DOTA (all three modes) and ELSA route through the exact seed code
    // paths, so the refactor must preserve every double bit-for-bit.
    for (const Benchmark &b : allBenchmarks()) {
        for (const char *key : {"dota-f", "dota-c", "dota-a", "elsa"}) {
            const auto dev = DeviceRegistry::create(key);
            const RunReport r = dev->simulate(b);
            EXPECT_EQ(r.timeMs(), want(key, b.name, "time_ms"))
                << key << " " << b.name;
            EXPECT_EQ(r.attentionTimeMs(),
                      want(key, b.name, "attention_ms"))
                << key << " " << b.name;
            EXPECT_EQ(r.detectionTimeMs(),
                      want(key, b.name, "detection_ms"))
                << key << " " << b.name;
            EXPECT_EQ(r.linearTimeMs(), want(key, b.name, "linear_ms"))
                << key << " " << b.name;
            EXPECT_EQ(r.totalEnergyJ(), want(key, b.name, "energy_j"))
                << key << " " << b.name;
        }
    }
}

TEST_F(DeviceParity, SystemFacadeMatchesRegistryDevices)
{
    // The refactored System facade is a registry lookup: same numbers.
    System sys;
    for (const Benchmark &b : allBenchmarks()) {
        const auto dev = DeviceRegistry::create("dota-c");
        const RunReport direct = dev->simulate(b);
        const RunReport via = sys.run(b.id, "dota-c");
        EXPECT_EQ(direct.timeMs(), via.timeMs()) << b.name;
        EXPECT_EQ(direct.totalEnergyJ(), via.totalEnergyJ()) << b.name;
    }
}

TEST_F(DeviceParity, GpuMatchesSeedWithinTickQuantization)
{
    // The seed GpuReport carried unquantized double milliseconds; the
    // unified RunReport quantizes each per-layer phase onto a 1 ps tick
    // (kGpuTickGhz). Phase times are >= microseconds, so the relative
    // error is bounded by ~1e-6 and in practice ~1e-9.
    const auto gpu = DeviceRegistry::create("gpu-v100");
    for (const Benchmark &b : allBenchmarks()) {
        const RunReport r = gpu->simulate(b);
        const double att = want("gpu-v100", b.name, "attention_ms");
        const double lin = want("gpu-v100", b.name, "linear_ms");
        const double tot = want("gpu-v100", b.name, "time_ms");
        const double nrg = want("gpu-v100", b.name, "energy_j");
        EXPECT_NEAR(r.attentionTimeMs(), att, 1e-6 * att) << b.name;
        EXPECT_NEAR(r.linearTimeMs(), lin, 1e-6 * lin) << b.name;
        EXPECT_NEAR(r.timeMs(), tot, 1e-6 * tot) << b.name;
        EXPECT_NEAR(r.totalEnergyJ(), nrg, 1e-6 * nrg) << b.name;
    }
}

} // namespace
} // namespace dota
