/**
 * @file
 * Tests for the GPU and ELSA baselines and the headline comparisons —
 * the paper's qualitative claims asserted as invariants.
 */
#include <gtest/gtest.h>

#include "core/dota.hpp"

namespace dota {
namespace {

TEST(Gpu, AttentionFractionGrowsWithSequence)
{
    // Figure 3's consequence: GPU time shifts into attention as n grows.
    double prev = 0.0;
    for (size_t n : {384u, 1024u, 4096u}) {
        Benchmark b = benchmark(BenchmarkId::QA);
        b.paper_shape.seq_len = n;
        const RunReport r = simulateGpu(b);
        const double frac = r.attentionTimeMs() / r.timeMs();
        EXPECT_GT(frac, prev);
        prev = frac;
    }
}

TEST(Gpu, TimesPositiveAndScale)
{
    const RunReport qa = simulateGpu(benchmark(BenchmarkId::QA));
    EXPECT_GT(qa.linearTimeMs(), 0.0);
    EXPECT_GT(qa.attentionTimeMs(), 0.0);
    EXPECT_GT(qa.totalEnergyJ(), 0.0);
    const RunReport ret = simulateGpu(benchmark(BenchmarkId::Retrieval));
    // 4K sequence attention dwarfs 384 despite the smaller model dim.
    EXPECT_GT(ret.attentionTimeMs(), qa.attentionTimeMs());
}

TEST(Gpu, UnifiedReportHasNoDetectionPhase)
{
    // Dense attention: the detection phase is identically zero, and the
    // report is labeled with the registry device name.
    const RunReport r = simulateGpu(benchmark(BenchmarkId::Text));
    EXPECT_EQ(r.device, "GPU-V100");
    EXPECT_EQ(r.per_layer.detection.cycles, 0u);
    EXPECT_EQ(r.per_layer.detection.energy_pj, 0.0);
    EXPECT_DOUBLE_EQ(r.detectionTimeMs(), 0.0);
}

TEST(Elsa, AttentionOnly)
{
    ElsaAccelerator elsa(HwConfig::dotaScaledForGpu());
    const RunReport r = elsa.simulate(benchmark(BenchmarkId::QA));
    EXPECT_EQ(r.per_layer.linear.cycles, 0u);
    EXPECT_GT(r.per_layer.detection.cycles, 0u);
    EXPECT_GT(r.per_layer.attention.cycles, 0u);
}

TEST(Elsa, DeviceLabel)
{
    ElsaAccelerator elsa;
    EXPECT_EQ(elsa.simulate(benchmark(BenchmarkId::Text)).device, "ELSA");
}

class HeadlineClaims : public ::testing::TestWithParam<BenchmarkId>
{
  protected:
    static System &
    system()
    {
        static System sys;
        return sys;
    }
};

TEST_P(HeadlineClaims, OrderingGpuElsaDotaCDotaA)
{
    const auto cmp = system().compare(GetParam());
    // Everyone beats the GPU on attention.
    EXPECT_GT(cmp.attention_speedup_elsa, 1.0);
    EXPECT_GT(cmp.attention_speedup_c, 1.0);
    // DOTA beats ELSA; aggressive beats conservative.
    EXPECT_GT(cmp.attention_speedup_c, cmp.attention_speedup_elsa);
    EXPECT_GE(cmp.attention_speedup_a, cmp.attention_speedup_c);
}

TEST_P(HeadlineClaims, AttentionSpeedupOrderOfMagnitude)
{
    const auto cmp = system().compare(GetParam());
    // The paper reports 109x-243x for DOTA-C; require the right order
    // of magnitude.
    EXPECT_GT(cmp.attention_speedup_c, 40.0);
    EXPECT_LT(cmp.attention_speedup_c, 1000.0);
}

TEST_P(HeadlineClaims, EndToEndBoundedByAmdahl)
{
    const auto cmp = system().compare(GetParam());
    EXPECT_GT(cmp.e2e_speedup_c, 1.0);
    EXPECT_LE(cmp.e2e_speedup_c, cmp.e2e_upper_bound * 1.001);
    // Close to the bound thanks to tiny retention (Section 5.3).
    EXPECT_GT(cmp.e2e_speedup_c, 0.5 * cmp.e2e_upper_bound);
}

TEST_P(HeadlineClaims, EnergyEfficiencyOrdering)
{
    const auto cmp = system().compare(GetParam());
    EXPECT_GT(cmp.energy_eff_elsa, 1.0);
    EXPECT_GT(cmp.energy_eff_c, cmp.energy_eff_elsa);
    EXPECT_GE(cmp.energy_eff_a, cmp.energy_eff_c);
    // Orders of magnitude over the GPU (paper: 618x-8642x).
    EXPECT_GT(cmp.energy_eff_c, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, HeadlineClaims,
    ::testing::Values(BenchmarkId::QA, BenchmarkId::Image,
                      BenchmarkId::Text, BenchmarkId::Retrieval,
                      BenchmarkId::LM),
    [](const ::testing::TestParamInfo<BenchmarkId> &info) {
        return benchmark(info.param).name;
    });

TEST(Headline, AverageAttentionSpeedupNearPaper)
{
    System sys;
    double acc = 0.0;
    for (const Benchmark &b : allBenchmarks())
        acc += sys.compare(b.id).attention_speedup_c;
    const double avg = acc / 5.0;
    // Paper headline: 152.6x average. Require the same ballpark.
    EXPECT_GT(avg, 75.0);
    EXPECT_LT(avg, 300.0);
}

TEST(Headline, ElsaGapNearPaper)
{
    // Paper: DOTA-C is 4.5x faster than ELSA on average.
    System sys;
    double acc = 0.0;
    for (const Benchmark &b : allBenchmarks()) {
        const auto cmp = sys.compare(b.id);
        acc += cmp.attention_speedup_c / cmp.attention_speedup_elsa;
    }
    const double avg = acc / 5.0;
    EXPECT_GT(avg, 2.0);
    EXPECT_LT(avg, 12.0);
}

TEST(System, UnscaledFabricIsTable2Scale)
{
    System sys(DeviceOptions::table2());
    EXPECT_EQ(sys.accelerator().hw().lanes, 4u);
    EXPECT_NEAR(sys.accelerator().hw().peakTops(), 2.048, 1e-9);
}

TEST(System, RunProducesLabeledReports)
{
    System sys;
    const RunReport r = sys.run(BenchmarkId::Image, DotaMode::Aggressive);
    EXPECT_EQ(r.device, "DOTA-A");
    EXPECT_EQ(r.benchmark, "Image");
    EXPECT_EQ(r.layers, 4u);
}

} // namespace
} // namespace dota
