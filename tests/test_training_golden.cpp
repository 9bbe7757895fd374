/**
 * @file
 * Golden-value regression test for the trainers and the training
 * recipe: the serial loss trajectories of two synthetic classification
 * tasks and one causal-LM grammar (5 steps, fixed seeds), plus one short
 * three-phase runPipeline per model kind (dense/sparse metric and loss,
 * final detector MSE), are checked in under tests/data/ and must be
 * reproduced with exact equality — at DOTA_THREADS=1 and at
 * DOTA_THREADS=8, per the fixed-order reduction contract.
 *
 * Regenerate (after an intentional numerics change) with:
 *   DOTA_REGEN_GOLDEN=1 ./dota_parallel_tests \
 *       --gtest_filter='TrainingGolden.*'
 * and commit the rewritten tests/data/golden_training.txt.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "detect/pipeline.hpp"
#include "workloads/trainer.hpp"

namespace dota {
namespace {

constexpr size_t kGoldenSteps = 5;

std::string
goldenPath()
{
    return std::string(DOTA_TEST_DATA_DIR) + "/golden_training.txt";
}

/** The two recorded tasks: a Prototype and a Match classification run. */
std::vector<double>
runTask(TaskKind kind)
{
    TaskConfig tc;
    tc.kind = kind;
    tc.seq_len = 32;
    tc.in_dim = 8;
    tc.classes = 4; // Match forces 2
    tc.signal_count = 4;
    tc.seed = kind == TaskKind::Prototype ? 21 : 22;
    SyntheticTask task(tc);
    TransformerConfig mc;
    mc.in_dim = 8;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 32;
    mc.classes = task.numClasses();
    mc.seed = 33;
    TransformerClassifier model(mc);
    TrainConfig cfg;
    cfg.steps = kGoldenSteps;
    cfg.batch = 4;
    cfg.data_seed = 55;
    ClassifierTrainer trainer(model, task, cfg);
    trainer.train();
    return trainer.lossHistory();
}

const char *
taskName(TaskKind kind)
{
    return kind == TaskKind::Prototype ? "prototype" : "match";
}

GrammarConfig
goldenGrammar()
{
    GrammarConfig gc;
    gc.seq_len = 24;
    gc.vocab = 32;
    gc.period = 6;
    gc.seed = 41;
    return gc;
}

TransformerConfig
goldenLMConfig()
{
    TransformerConfig mc;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 32;
    mc.vocab = 32;
    mc.max_seq = 32;
    mc.seed = 43;
    return mc;
}

/** The recorded causal-LM run: 5 LMTrainer steps on a small grammar. */
std::vector<double>
runLM()
{
    SyntheticGrammar grammar(goldenGrammar());
    CausalLM model(goldenLMConfig());
    TrainConfig cfg;
    cfg.steps = kGoldenSteps;
    cfg.batch = 4;
    cfg.data_seed = 45;
    LMTrainer trainer(model, grammar, cfg);
    trainer.train();
    return trainer.lossHistory();
}

/** A few steps of each recipe phase, batches that reach the replicas. */
PipelineConfig
goldenPipeline()
{
    PipelineConfig pc;
    pc.pretrain.steps = 4;
    pc.pretrain.batch = 4;
    pc.pretrain.data_seed = 61;
    pc.warmup_steps = 3;
    pc.warmup_batch = 2;
    pc.adapt.steps = 3;
    pc.adapt.batch = 4;
    pc.adapt.data_seed = 62;
    return pc;
}

DetectorConfig
goldenDetector()
{
    DetectorConfig dc;
    dc.retention = 0.25;
    dc.sigma = 0.5;
    dc.lambda = 1e-3;
    return dc;
}

/** Every number a PipelineResult carries, in a fixed order. */
std::vector<double>
pipelineValues(const PipelineResult &r)
{
    return {r.dense.metric, r.dense.loss, r.sparse.metric, r.sparse.loss,
            r.detector_mse};
}

/** The recorded classifier recipe: runPipeline on a Prototype task. */
std::vector<double>
runClassifierPipeline()
{
    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 8;
    tc.classes = 2;
    tc.signal_count = 4;
    tc.seed = 51;
    SyntheticTask task(tc);
    TransformerConfig mc;
    mc.in_dim = 8;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 32;
    mc.classes = task.numClasses();
    mc.seed = 53;
    TransformerClassifier model(mc);
    DotaDetector det(mc, goldenDetector());
    return pipelineValues(runPipeline(model, task, det, goldenPipeline()));
}

/** The recorded causal-LM recipe: runPipeline on the golden grammar. */
std::vector<double>
runLMPipeline()
{
    SyntheticGrammar grammar(goldenGrammar());
    const TransformerConfig mc = goldenLMConfig();
    CausalLM model(mc);
    DotaDetector det(mc, goldenDetector());
    return pipelineValues(
        runPipeline(model, grammar, det, goldenPipeline()));
}

/** Every recorded run, keyed by its golden-file name. */
std::map<std::string, std::vector<double>>
runAll()
{
    std::map<std::string, std::vector<double>> got;
    got[taskName(TaskKind::Prototype)] = runTask(TaskKind::Prototype);
    got[taskName(TaskKind::Match)] = runTask(TaskKind::Match);
    got["lm"] = runLM();
    got["pipeline_classifier"] = runClassifierPipeline();
    got["pipeline_lm"] = runLMPipeline();
    return got;
}

/** Losses serialized as hex floats so the round trip is bit-exact. */
std::string
formatLoss(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::map<std::string, std::vector<double>>
readGolden()
{
    std::ifstream in(goldenPath());
    std::map<std::string, std::vector<double>> out;
    std::string line, current;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string head;
        ls >> head;
        if (head == "task") {
            ls >> current;
            continue;
        }
        out[current].push_back(std::strtod(head.c_str(), nullptr));
    }
    return out;
}

void
writeGolden(
    const std::map<std::string, std::vector<double>> &trajectories)
{
    std::ofstream out(goldenPath());
    out << "# Serial (DOTA_THREADS=1) loss trajectories, "
        << kGoldenSteps << " steps, fixed seeds; pipeline_* hold dense "
           "metric, dense loss,\n# sparse metric, sparse loss and "
           "detector MSE of one short runPipeline.\n"
        << "# Regenerate with DOTA_REGEN_GOLDEN=1 (see "
           "test_training_golden.cpp); values are C99 hex floats.\n";
    for (const auto &[name, losses] : trajectories) {
        out << "task " << name << "\n";
        for (double v : losses)
            out << formatLoss(v) << "\n";
    }
}

TEST(TrainingGolden, SerialTrajectoriesMatchGoldenFile)
{
    std::map<std::string, std::vector<double>> got;
    {
        // Record under the serial setting: this is the reference.
        ThreadPool::setGlobalConcurrency(1);
        got = runAll();
        ThreadPool::setGlobalConcurrency(configuredThreads());
    }
    if (envFlag("DOTA_REGEN_GOLDEN")) {
        writeGolden(got);
        GTEST_SKIP() << "regenerated " << goldenPath();
    }
    const auto golden = readGolden();
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << goldenPath()
        << " — regenerate with DOTA_REGEN_GOLDEN=1";
    for (const auto &[name, losses] : got) {
        auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "task " << name;
        ASSERT_EQ(it->second.size(), losses.size()) << "task " << name;
        for (size_t s = 0; s < losses.size(); ++s)
            EXPECT_EQ(losses[s], it->second[s])
                << "task " << name << " step " << s;
    }
}

TEST(TrainingGolden, ParallelTrainerMatchesGoldenExactly)
{
    if (envFlag("DOTA_REGEN_GOLDEN"))
        GTEST_SKIP() << "regeneration pass";
    const auto golden = readGolden();
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << goldenPath()
        << " — regenerate with DOTA_REGEN_GOLDEN=1";
    ThreadPool::setGlobalConcurrency(8);
    const auto got = runAll();
    ThreadPool::setGlobalConcurrency(configuredThreads());
    for (const auto &[name, losses] : got) {
        auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "task " << name;
        ASSERT_EQ(it->second.size(), losses.size()) << "task " << name;
        for (size_t s = 0; s < losses.size(); ++s)
            EXPECT_EQ(losses[s], it->second[s])
                << "task " << name << " step " << s;
    }
}

} // namespace
} // namespace dota
