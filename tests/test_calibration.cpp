/**
 * @file
 * Calibration cross-checks promised in the module docs:
 *  - synthetic paper-scale masks vs masks harvested from trained tiny
 *    models (structural statistics agree within loose bands);
 *  - the hardware comparator threshold calibrated from probe forwards
 *    actually hits the requested retention.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/dota.hpp"

namespace dota {
namespace {

/** Train a small Text-like model and harvest its detected masks. */
std::vector<SparseMask>
trainedMasks(double retention, TransformerConfig &mc_out)
{
    TransformerConfig mc;
    mc.in_dim = 16;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 71;
    mc_out = mc;

    TaskConfig tc;
    tc.seq_len = 64;
    tc.in_dim = 16;
    tc.classes = 2;
    tc.signal_count = 6;
    tc.locality = 0.5;
    SyntheticTask task(tc);

    TransformerClassifier model(mc);
    TrainConfig trc;
    trc.steps = 60;
    trc.batch = 6;
    ClassifierTrainer trainer(model, task, trc);
    trainer.train();

    OracleDetector oracle(retention); // true strong connections
    model.setHook(&oracle);
    Rng rng(72);
    model.forward(task.sample(rng).features);
    auto masks = harvestMasks(model);
    model.setHook(nullptr);
    return masks;
}

TEST(Calibration, SyntheticMaskStatsMatchHarvested)
{
    TransformerConfig mc;
    const auto harvested = trainedMasks(0.1, mc);
    ASSERT_FALSE(harvested.empty());

    // Pool harvested statistics.
    double h_local = 0.0, h_reuse = 0.0, h_density = 0.0;
    for (const SparseMask &m : harvested) {
        const MaskStats s = measureMask(m, /*window=*/8, /*group=*/4);
        h_local += s.local_fraction;
        h_reuse += s.group_reuse;
        h_density += s.density;
    }
    const double n_masks = static_cast<double>(harvested.size());
    h_local /= n_masks;
    h_reuse /= n_masks;
    h_density /= n_masks;

    // Synthetic mask at the same size/retention with the Text profile
    // (the tiny task is Text-flavoured).
    MaskProfile p = profileFor(BenchmarkId::Text, 0.1);
    p.window = 8; // scale the window to the short proxy sequence
    p.hub_count = 8;
    Rng rng(73);
    const SparseMask synth = synthesizeMask(64, p, rng);
    const MaskStats s = measureMask(synth, 8, 4);

    EXPECT_NEAR(s.density, h_density, 0.02);
    // Structural statistics agree within loose bands (factor ~3): the
    // synthetic generator is a model, not a clone.
    EXPECT_LT(std::abs(std::log(s.group_reuse / h_reuse)), std::log(3.0));
    EXPECT_GT(s.local_fraction, 0.0);
    EXPECT_GT(h_reuse, 1.0); // real masks do exhibit group reuse
}

TEST(Calibration, HarvestedMasksScheduleBetterThanRowByRow)
{
    TransformerConfig mc;
    const auto harvested = trainedMasks(0.15, mc);
    for (const SparseMask &m : harvested) {
        const auto ooo = analyzeDataflow(m, Dataflow::TokenParallelOoO, 4);
        const auto rbr = analyzeDataflow(m, Dataflow::RowByRow);
        EXPECT_LT(ooo.key_loads, rbr.key_loads);
    }
}

TEST(Calibration, ThresholdHitsRetention)
{
    TransformerConfig mc;
    mc.in_dim = 16;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 74;
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 48;
    tc.in_dim = 16;
    tc.classes = 2;
    SyntheticTask task(tc);
    TrainConfig trc;
    trc.steps = 30;
    trc.batch = 4;
    ClassifierTrainer trainer(model, task, trc);
    trainer.train();

    DetectorConfig dc;
    dc.sigma = 0.5;
    DotaDetector det(mc, dc);
    warmupDetector(model, task, det, 30, 4, 5e-3);

    const float thr = calibrateThreshold(model, task, det, 0.15);
    EXPECT_TRUE(det.config().use_threshold);
    EXPECT_FLOAT_EQ(det.config().threshold, thr);

    // Measure the achieved density on fresh samples.
    det.config().apply_mask = true;
    det.config().train = false;
    model.setHook(&det);
    Rng rng(75);
    double density = 0.0;
    size_t measured = 0;
    for (int s = 0; s < 3; ++s) {
        model.forward(task.sample(rng).features);
        for (auto &blk : model.blocks())
            for (const SparseMask &m : blk->attention().lastMasks())
                if (!m.empty()) {
                    density += m.density();
                    ++measured;
                }
    }
    model.setHook(nullptr);
    density /= static_cast<double>(measured);
    EXPECT_NEAR(density, 0.15, 0.08);
}

TEST(Calibration, ThresholdModeIsNotRowBalanced)
{
    // The comparator path trades the balance constraint away — exactly
    // the contrast the workload-balancing discussion of Section 4.3
    // draws.
    TransformerConfig mc;
    mc.in_dim = 16;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 1;
    mc.ffn_dim = 64;
    mc.classes = 2;
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 48;
    tc.in_dim = 16;
    tc.classes = 2;
    SyntheticTask task(tc);

    DetectorConfig dc;
    dc.sigma = 0.5;
    DotaDetector det(mc, dc);
    calibrateThreshold(model, task, det, 0.2);

    det.config().apply_mask = true;
    det.config().train = false;
    model.setHook(&det);
    Rng rng(76);
    model.forward(task.sample(rng).features);
    const auto masks = harvestMasks(model);
    model.setHook(nullptr);
    bool any_unbalanced = false;
    for (const SparseMask &m : masks)
        any_unbalanced = any_unbalanced || !m.rowBalanced();
    EXPECT_TRUE(any_unbalanced);
}

} // namespace
} // namespace dota
