/**
 * @file
 * Integration tests: the full algorithm-to-architecture chain — train a
 * tiny model with the detector, harvest its masks, schedule them, and
 * feed the dataflow statistics into the accelerator simulator.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/dota.hpp"

namespace dota {
namespace {

TEST(Integration, TrainDetectScheduleSimulate)
{
    // 1. Train a tiny classifier on a synthetic task (short budget).
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 17;
    TransformerClassifier model(mc);

    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 12;
    tc.classes = 2;
    tc.signal_count = 4;
    SyntheticTask task(tc);

    TrainConfig trc;
    trc.steps = 40;
    trc.batch = 4;
    ClassifierTrainer trainer(model, task, trc);
    trainer.train();

    // 2. Install a detector and select masks at 25% retention.
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.train = false;
    DotaDetector det(mc, dc);
    model.setHook(&det);
    Rng rng(201);
    model.forward(task.sample(rng).features);
    const auto masks = harvestMasks(model);
    model.setHook(nullptr);
    ASSERT_EQ(masks.size(), 4u);
    for (const auto &m : masks) {
        EXPECT_TRUE(m.rowBalanced());
        EXPECT_NEAR(m.density(), 0.25, 0.01);
    }

    // 3. Schedule a harvested mask and check the dataflow ordering.
    const auto ooo =
        analyzeDataflow(masks[0], Dataflow::TokenParallelOoO, 4);
    const auto rbr = analyzeDataflow(masks[0], Dataflow::RowByRow);
    EXPECT_LT(ooo.key_loads, rbr.key_loads); // reuse on a real mask
    EXPECT_EQ(ooo.connections, masks[0].nnz());

    // 4. Feed the real mask into the accelerator simulator via a
    //    matching benchmark shape.
    Benchmark tiny = benchmark(BenchmarkId::Text);
    tiny.paper_shape = ModelShape{2, 32, 2, 64, 32, false};
    tiny.retention_conservative = 0.25;
    DotaAccelerator acc;
    SimOptions opt;
    opt.mode = DotaMode::Conservative;
    const RunReport sparse = acc.simulateWithMask(tiny, opt, masks[0]);
    opt.mode = DotaMode::Full;
    const RunReport full = acc.simulateWithMask(tiny, opt, SparseMask());
    EXPECT_LT(sparse.per_layer.attention.macs,
              full.per_layer.attention.macs);
    EXPECT_GT(sparse.totalCycles(), 0u);
}

TEST(Integration, JointTrainingKeepsAccuracyAtLowRetention)
{
    // A compressed version of the paper's core claim (Table 1 /
    // Figure 11): with detection + adaptation, 25% retention stays close
    // to the dense baseline on an easy task.
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 23;
    TransformerClassifier model(mc);

    TaskConfig tc;
    tc.seq_len = 48;
    tc.in_dim = 12;
    tc.classes = 2;
    tc.signal_count = 5;
    tc.seed = 29;
    SyntheticTask task(tc);

    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.lambda = 1e-3;
    DotaDetector det(mc, dc);

    PipelineConfig pc;
    pc.pretrain.steps = 80;
    pc.warmup_steps = 30;
    pc.adapt.steps = 60;
    const PipelineResult res = runPipeline(model, task, det, pc);
    EXPECT_GT(res.dense.metric, 0.9);
    EXPECT_GT(res.sparse.metric, res.dense.metric - 0.15);
    model.setHook(nullptr);
}

TEST(Integration, OracleBeatsElsaBeatsRandomOnTrainedModel)
{
    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 1;
    mc.ffn_dim = 64;
    mc.classes = 2;
    mc.seed = 31;
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 40;
    tc.in_dim = 12;
    tc.classes = 2;
    SyntheticTask task(tc);
    TrainConfig trc;
    trc.steps = 30;
    trc.batch = 4;
    ClassifierTrainer trainer(model, task, trc);
    trainer.train();

    OracleDetector oracle(0.2);
    const auto q_oracle = evaluateDetection(model, task, oracle, 3, 0.2);
    ElsaDetectorConfig ec;
    ec.retention = 0.2;
    ec.hash_bits = 64;
    ElsaDetector elsa(ec);
    const auto q_elsa = evaluateDetection(model, task, elsa, 3, 0.2);
    EXPECT_GT(q_oracle.recall, q_elsa.recall);
    EXPECT_GT(q_oracle.mass_recall, q_elsa.mass_recall);
    EXPECT_GT(q_elsa.mass_recall, 0.2); // better than uniform share
}

TEST(Trainer, AdaptsThroughInferenceHook)
{
    // An inference-only detector (train = false) lets the attention
    // layers take the sparse path, which caches no S/A for backward. The
    // trainers keep their own forwards dense, so adaptation through such
    // a hook trains; the next forward after training is sparse again.
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.train = false;
    TrainConfig trc;
    trc.steps = 3;
    trc.batch = 2;
    Rng rng(5);

    TransformerConfig mc;
    mc.in_dim = 12;
    mc.dim = 32;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 64;
    mc.classes = 2;
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 12;
    tc.classes = 2;
    SyntheticTask task(tc);
    DotaDetector det(mc, dc);
    model.setHook(&det);
    ClassifierTrainer trainer(model, task, trc);
    EXPECT_TRUE(std::isfinite(trainer.train()));
    model.forward(task.sample(rng).features);
    for (auto &blk : model.blocks())
        for (AttnBackendKind kind : blk->attention().lastBackends())
            EXPECT_EQ(kind, AttnBackendKind::Sparse);
    model.setHook(nullptr);

    TransformerConfig lc = mc;
    lc.vocab = 32;
    lc.max_seq = 40;
    CausalLM lm(lc);
    GrammarConfig gc;
    gc.vocab = 32;
    gc.seq_len = 32;
    SyntheticGrammar grammar(gc);
    DotaDetector lm_det(lc, dc);
    lm.setHook(&lm_det);
    LMTrainer lm_trainer(lm, grammar, trc);
    EXPECT_TRUE(std::isfinite(lm_trainer.train()));
    lm.forward(grammar.sample(rng));
    for (auto &blk : lm.blocks())
        for (AttnBackendKind kind : blk->attention().lastBackends())
            EXPECT_EQ(kind, AttnBackendKind::Sparse);
    lm.setHook(nullptr);
}

} // namespace
} // namespace dota
