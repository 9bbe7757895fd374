/**
 * @file
 * Tests for the hardware model: RMMU cycle formulas, the energy/power/
 * area budget against Table 2, and the accelerator phase accounting.
 */
#include <gtest/gtest.h>

#include "sim/accelerator.hpp"

namespace dota {
namespace {

TEST(HwConfig, Table2Configuration)
{
    const HwConfig hw = HwConfig::dota();
    EXPECT_EQ(hw.lanes, 4u);
    EXPECT_EQ(hw.lane.rmmu.pes(), 512u);
    EXPECT_EQ(hw.lane.token_parallelism, 4u);
    EXPECT_EQ(hw.sramBytes(), 4u * 640 * 1024); // 2.5 MB total
    EXPECT_NEAR(hw.peakTops(), 2.048, 1e-9);    // Table 2: 2 TOPS
}

TEST(HwConfig, ScaledFabricNearGpuPeak)
{
    const HwConfig hw = HwConfig::dotaScaledForGpu();
    EXPECT_NEAR(hw.peakTops(), 12.3, 0.3); // Section 5.1: ~12 TOPS
}

TEST(Rmmu, GemmCyclesExact)
{
    Rmmu rmmu(RmmuConfig{32, 16});
    // Perfectly tiled GEMM: (64x128)*(128x32) -> 2x2 tiles x 128 cycles.
    EXPECT_EQ(rmmu.gemmCycles(64, 128, 32, Precision::FX16), 512u);
    // Edge tiles round up.
    EXPECT_EQ(rmmu.gemmCycles(33, 1, 17, Precision::FX16), 4u);
    EXPECT_EQ(rmmu.gemmCycles(0, 8, 8, Precision::FX16), 0u);
}

TEST(Rmmu, PrecisionScalesReduction)
{
    Rmmu rmmu(RmmuConfig{32, 16});
    const uint64_t fx16 = rmmu.gemmCycles(32, 256, 16, Precision::FX16);
    EXPECT_EQ(rmmu.gemmCycles(32, 256, 16, Precision::INT8), fx16 / 4);
    EXPECT_EQ(rmmu.gemmCycles(32, 256, 16, Precision::INT4), fx16 / 16);
    EXPECT_EQ(rmmu.gemmCycles(32, 256, 16, Precision::INT2), fx16 / 64);
}

TEST(Rmmu, MacsPerCycle)
{
    Rmmu rmmu(RmmuConfig{32, 16});
    EXPECT_EQ(rmmu.macsPerCycle(Precision::FX16), 512u);
    EXPECT_EQ(rmmu.macsPerCycle(Precision::INT2), 512u * 64);
}

TEST(Rmmu, SparseAttentionCycles)
{
    Rmmu rmmu(RmmuConfig{32, 16});
    // 100 rounds x 4 queries x 64-dim dot products = 25600 MAC slots.
    EXPECT_EQ(rmmu.sparseAttentionCycles(100, 4, 64), 50u);
}

TEST(Energy, MacEnergyOrdering)
{
    const EnergyModel em = EnergyModel::tsmc22();
    EXPECT_GT(em.macPj(Precision::FX16), em.macPj(Precision::INT8));
    EXPECT_GT(em.macPj(Precision::INT8), em.macPj(Precision::INT4));
    EXPECT_GT(em.macPj(Precision::INT4), em.macPj(Precision::INT2));
}

TEST(Energy, SchedulerEnergyGrowsWithParallelism)
{
    const EnergyModel em = EnergyModel::tsmc22();
    // Normalized at T = 4; 2^t - 1 buffer scaling (Figure 15).
    EXPECT_DOUBLE_EQ(em.schedulerIssuePj(4), em.scheduler_issue_pj);
    EXPECT_LT(em.schedulerIssuePj(2), em.schedulerIssuePj(4));
    EXPECT_GT(em.schedulerIssuePj(6), 4.0 * em.schedulerIssuePj(4));
}

TEST(Energy, BudgetReproducesTable2)
{
    const auto rows =
        powerAreaBudget(HwConfig::dota(), EnergyModel::tsmc22());
    auto find = [&rows](const std::string &name) {
        for (const auto &r : rows)
            if (r.module == name)
                return r;
        ADD_FAILURE() << "module " << name << " missing";
        return ModuleBudget{};
    };
    // Paper Table 2 values with a 15% modeling tolerance.
    EXPECT_NEAR(find("Lane.RMMU").power_mw, 645.98, 0.15 * 645.98);
    EXPECT_NEAR(find("Lane.MFU").power_mw, 60.73, 0.15 * 60.73);
    EXPECT_NEAR(find("Lane.Filter").power_mw, 9.13, 0.25 * 9.13);
    EXPECT_NEAR(find("Accumulator").power_mw, 139.21, 0.15 * 139.21);
    EXPECT_NEAR(find("Lane.RMMU").area_mm2, 0.609, 0.1 * 0.609);
    EXPECT_NEAR(find("Lane (all)").area_mm2, 2.701, 0.15 * 2.701);
    EXPECT_NEAR(find("SRAM").area_mm2, 1.69, 0.15 * 1.69);
    EXPECT_NEAR(find("DOTA (w/o SRAM)").power_mw, 3017.54,
                0.15 * 3017.54);
}

TEST(Report, PhaseArithmetic)
{
    PhaseCost a{"x", 10, 100, 1000, 10000, 5.0};
    PhaseCost b{"y", 1, 2, 3, 4, 0.5};
    a += b;
    EXPECT_EQ(a.cycles, 11u);
    EXPECT_EQ(a.macs, 102u);
    EXPECT_DOUBLE_EQ(a.energy_pj, 5.5);
}

TEST(Report, TimingRollups)
{
    RunReport r;
    r.freq_ghz = 1.0;
    r.layers = 2;
    r.per_layer.linear.cycles = 1000;
    r.per_layer.detection.cycles = 10;
    r.per_layer.attention.cycles = 200;
    EXPECT_EQ(r.totalCycles(), 2420u);
    EXPECT_DOUBLE_EQ(r.timeMs(), 2420.0 / 1e6);
    EXPECT_DOUBLE_EQ(r.attentionTimeMs(), 420.0 / 1e6);
    EXPECT_DOUBLE_EQ(r.linearTimeMs(), 2000.0 / 1e6);
}

TEST(Modes, NamesAndRetention)
{
    EXPECT_EQ(dotaModeName(DotaMode::Full), "DOTA-F");
    EXPECT_EQ(dotaModeName(DotaMode::Conservative), "DOTA-C");
    const Benchmark &qa = benchmark(BenchmarkId::QA);
    EXPECT_DOUBLE_EQ(modeRetention(qa, DotaMode::Full), 1.0);
    EXPECT_DOUBLE_EQ(modeRetention(qa, DotaMode::Conservative),
                     qa.retention_conservative);
    EXPECT_DOUBLE_EQ(modeRetention(qa, DotaMode::Aggressive),
                     qa.retention_aggressive);
}

TEST(Accelerator, DetectionSkippedInFullMode)
{
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Full;
    const RunReport r = acc.simulate(benchmark(BenchmarkId::QA), opt);
    EXPECT_EQ(r.per_layer.detection.cycles, 0u);
    EXPECT_GT(r.per_layer.attention.cycles, 0u);
}

TEST(Accelerator, SparsityReducesAttentionCost)
{
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Full;
    const RunReport full = acc.simulate(benchmark(BenchmarkId::Text), opt);
    opt.mode = DotaMode::Conservative;
    const RunReport cons = acc.simulate(benchmark(BenchmarkId::Text), opt);
    EXPECT_LT(cons.per_layer.attention.cycles,
              full.per_layer.attention.cycles / 3);
    EXPECT_LT(cons.totalEnergyJ(), full.totalEnergyJ());
}

TEST(Accelerator, DetectionIsSmallFractionOfLayer)
{
    // Figure 12(c): attention estimation latency is negligible.
    DotaAccelerator acc(HwConfig::dotaScaledForGpu());
    SimOptions opt;
    opt.mode = DotaMode::Conservative;
    for (const Benchmark &b : allBenchmarks()) {
        const RunReport r = acc.simulate(b, opt);
        const double det =
            static_cast<double>(r.per_layer.detection.cycles);
        const double total =
            static_cast<double>(r.per_layer.totalCycles());
        EXPECT_LT(det / total, 0.25) << b.name;
    }
}

TEST(Accelerator, AggressiveFasterThanConservative)
{
    DotaAccelerator acc;
    SimOptions opt;
    for (const Benchmark &b : allBenchmarks()) {
        opt.mode = DotaMode::Conservative;
        const double cons = acc.simulate(b, opt).timeMs();
        opt.mode = DotaMode::Aggressive;
        const double aggr = acc.simulate(b, opt).timeMs();
        EXPECT_LE(aggr, cons) << b.name;
    }
}

TEST(Accelerator, GenerationPathRuns)
{
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Conservative;
    const RunReport gen =
        acc.simulateGeneration(benchmark(BenchmarkId::LM), opt);
    EXPECT_GT(gen.totalCycles(), 0u);
    EXPECT_GT(gen.per_layer.linear.dram_bytes, 0u);
    // Generation is memory-bound: much slower than single-pass scoring.
    opt.mode = DotaMode::Conservative;
    const RunReport scoring = acc.simulate(benchmark(BenchmarkId::LM), opt);
    EXPECT_GT(gen.timeMs(), scoring.timeMs());
}

TEST(Accelerator, GenerationSparsitySavesMemory)
{
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Full;
    const RunReport dense =
        acc.simulateGeneration(benchmark(BenchmarkId::LM), opt);
    opt.mode = DotaMode::Conservative;
    const RunReport sparse =
        acc.simulateGeneration(benchmark(BenchmarkId::LM), opt);
    EXPECT_LT(sparse.per_layer.attention.dram_bytes,
              dense.per_layer.attention.dram_bytes / 2);
}

TEST(Accelerator, MaskShapeValidated)
{
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Conservative;
    SparseMask wrong(10, 10);
    EXPECT_DEATH(
        acc.simulateWithMask(benchmark(BenchmarkId::QA), opt, wrong),
        "mask rows");
}

} // namespace
} // namespace dota
