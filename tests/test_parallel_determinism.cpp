/**
 * @file
 * Property tests for the parallel-execution determinism contract: GEMMs,
 * the row attention kernel, trainer gradient steps and fleet dispatch
 * must be bit-identical at DOTA_THREADS=1 and DOTA_THREADS=8 (DESIGN.md,
 * "Parallel execution").
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "detect/detector.hpp"
#include "device/fleet.hpp"
#include "nn/attention.hpp"
#include "nn/infer_block.hpp"
#include "nn/int8_infer.hpp"
#include "tensor/ops.hpp"
#include "tensor/rows_attention.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/topk.hpp"
#include "workloads/trainer.hpp"

namespace dota {
namespace {

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

/** Bitwise equality of two matrices (exact, not allClose). */
bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

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

TEST(ParallelDeterminism, MatmulBitIdenticalAcrossRandomShapes)
{
    Rng shape_rng(2024);
    for (int trial = 0; trial < 12; ++trial) {
        // Mix shapes below and well above the parallel threshold.
        const size_t m = 1 + shape_rng.uniformInt(160);
        const size_t k = 1 + shape_rng.uniformInt(160);
        const size_t n = 1 + shape_rng.uniformInt(160);
        Rng data_rng(100 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        auto [serial, parallel] =
            atBothThreadCounts([&] { return matmul(a, b); });
        EXPECT_TRUE(bitIdentical(serial, parallel))
            << "matmul " << m << "x" << k << "x" << n;
    }
    // One shape guaranteed deep inside the parallel regime.
    Rng data_rng(7);
    const Matrix a = Matrix::randomNormal(192, 96, data_rng);
    const Matrix b = Matrix::randomNormal(96, 192, data_rng);
    auto [serial, parallel] =
        atBothThreadCounts([&] { return matmul(a, b); });
    EXPECT_TRUE(bitIdentical(serial, parallel));
}

TEST(ParallelDeterminism, MatmulBTBitIdentical)
{
    Rng shape_rng(2025);
    for (int trial = 0; trial < 12; ++trial) {
        const size_t m = 1 + shape_rng.uniformInt(200);
        const size_t k = 1 + shape_rng.uniformInt(120);
        const size_t n = 1 + shape_rng.uniformInt(200);
        Rng data_rng(300 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(n, k, data_rng);
        auto [serial, parallel] =
            atBothThreadCounts([&] { return matmulBT(a, b); });
        EXPECT_TRUE(bitIdentical(serial, parallel))
            << "matmulBT " << m << "x" << k << "x" << n;
    }
}

TEST(ParallelDeterminism, MatmulATBitIdentical)
{
    Rng shape_rng(2026);
    for (int trial = 0; trial < 12; ++trial) {
        const size_t m = 1 + shape_rng.uniformInt(200);
        const size_t k = 1 + shape_rng.uniformInt(120);
        const size_t n = 1 + shape_rng.uniformInt(200);
        Rng data_rng(500 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(k, m, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        auto [serial, parallel] =
            atBothThreadCounts([&] { return matmulAT(a, b); });
        EXPECT_TRUE(bitIdentical(serial, parallel))
            << "matmulAT " << m << "x" << k << "x" << n;
    }
}

/** Train a fresh classifier and return (per-step losses, final params). */
std::pair<std::vector<double>, std::vector<Matrix>>
trainClassifier(uint64_t seed)
{
    TaskConfig tc;
    tc.seq_len = 32;
    tc.in_dim = 8;
    tc.classes = 3;
    tc.seed = seed;
    SyntheticTask task(tc);
    TransformerConfig mc;
    mc.in_dim = 8;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 2;
    mc.ffn_dim = 32;
    mc.classes = 3;
    mc.seed = seed + 1;
    TransformerClassifier model(mc);
    TrainConfig cfg;
    cfg.steps = 4;
    cfg.batch = 6;
    cfg.data_seed = seed + 2;
    ClassifierTrainer trainer(model, task, cfg);
    trainer.train();
    std::vector<Parameter *> params;
    model.collectParams(params);
    std::vector<Matrix> values;
    values.reserve(params.size());
    for (Parameter *p : params)
        values.push_back(p->value);
    return {trainer.lossHistory(), std::move(values)};
}

TEST(ParallelDeterminism, ClassifierTrainerBitIdenticalAcrossSeeds)
{
    for (uint64_t seed : {11u, 42u, 99u}) {
        auto [serial, parallel] =
            atBothThreadCounts([&] { return trainClassifier(seed); });
        ASSERT_EQ(serial.first.size(), parallel.first.size());
        for (size_t s = 0; s < serial.first.size(); ++s)
            EXPECT_EQ(serial.first[s], parallel.first[s])
                << "seed " << seed << " step " << s;
        ASSERT_EQ(serial.second.size(), parallel.second.size());
        for (size_t i = 0; i < serial.second.size(); ++i)
            EXPECT_TRUE(
                bitIdentical(serial.second[i], parallel.second[i]))
                << "seed " << seed << " param " << i;
    }
}

/** Train a fresh causal LM and return (per-step losses, final params). */
std::pair<std::vector<double>, std::vector<Matrix>>
trainLM(uint64_t seed)
{
    GrammarConfig gc;
    gc.seq_len = 24;
    gc.vocab = 32;
    gc.seed = seed;
    SyntheticGrammar grammar(gc);
    TransformerConfig mc;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 1;
    mc.ffn_dim = 32;
    mc.vocab = 32;
    mc.max_seq = 64;
    mc.seed = seed + 1;
    CausalLM model(mc);
    TrainConfig cfg;
    cfg.steps = 3;
    cfg.batch = 5;
    cfg.data_seed = seed + 2;
    LMTrainer trainer(model, grammar, cfg);
    trainer.train();
    std::vector<Parameter *> params;
    model.collectParams(params);
    std::vector<Matrix> values;
    values.reserve(params.size());
    for (Parameter *p : params)
        values.push_back(p->value);
    return {trainer.lossHistory(), std::move(values)};
}

TEST(ParallelDeterminism, LMTrainerBitIdentical)
{
    auto [serial, parallel] =
        atBothThreadCounts([] { return trainLM(77); });
    ASSERT_EQ(serial.first.size(), parallel.first.size());
    for (size_t s = 0; s < serial.first.size(); ++s)
        EXPECT_EQ(serial.first[s], parallel.first[s]) << "step " << s;
    ASSERT_EQ(serial.second.size(), parallel.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i)
        EXPECT_TRUE(bitIdentical(serial.second[i], parallel.second[i]))
            << "param " << i;
}

TEST(ParallelDeterminism, FleetDispatchBitIdentical)
{
    Rng len_rng(31337);
    for (int trial = 0; trial < 3; ++trial) {
        std::vector<size_t> lens;
        for (int i = 0; i < 10; ++i)
            lens.push_back(128 + 64 * len_rng.uniformInt(12));
        auto runFleet = [&] {
            FleetConfig fc;
            fc.accelerators = 3;
            SimOptions opt;
            opt.mode = DotaMode::Conservative;
            FleetSimulator fleet(fc, benchmark(BenchmarkId::Text), opt);
            return fleet.run(lens);
        };
        auto [serial, parallel] = atBothThreadCounts(runFleet);
        EXPECT_EQ(serial.makespan_ms, parallel.makespan_ms);
        EXPECT_EQ(serial.total_work_ms, parallel.total_work_ms);
        EXPECT_EQ(serial.mean_latency_ms, parallel.mean_latency_ms);
        EXPECT_EQ(serial.max_latency_ms, parallel.max_latency_ms);
        EXPECT_EQ(serial.utilization, parallel.utilization);
        EXPECT_EQ(serial.throughput_seq_s, parallel.throughput_seq_s);
        EXPECT_EQ(serial.total_energy_j, parallel.total_energy_j);
        EXPECT_EQ(serial.energy_per_seq_j, parallel.energy_per_seq_j);
        ASSERT_EQ(serial.accel_busy_ms.size(),
                  parallel.accel_busy_ms.size());
        for (size_t a = 0; a < serial.accel_busy_ms.size(); ++a)
            EXPECT_EQ(serial.accel_busy_ms[a], parallel.accel_busy_ms[a]);
        EXPECT_EQ(serial.latency.count(), parallel.latency.count());
        EXPECT_EQ(serial.latency.mean(), parallel.latency.mean());
        EXPECT_EQ(serial.latency.max(), parallel.latency.max());
    }
}

TEST(ParallelDeterminism, MixedFleetDispatchBitIdentical)
{
    // The heterogeneous dispatcher (different device kinds and speed
    // bins) keeps the PR 1 contract: bit-identical reports at every
    // thread count.
    Rng len_rng(4242);
    std::vector<size_t> lens;
    for (int i = 0; i < 12; ++i)
        lens.push_back(128 + 64 * len_rng.uniformInt(12));
    auto runFleet = [&] {
        FleetConfig fc;
        fc.devices = {
            DeviceSpec{"dota-c", 2, 1.0, DeviceOptions{}},
            DeviceSpec{"dota-c", 1, 1.5, DeviceOptions{}},
            DeviceSpec{"elsa", 1, 1.0, DeviceOptions{}},
            DeviceSpec{"gpu-v100", 1, 1.0, DeviceOptions{}},
        };
        FleetSimulator fleet(fc, benchmark(BenchmarkId::Text));
        return fleet.run(lens);
    };
    auto [serial, parallel] = atBothThreadCounts(runFleet);
    EXPECT_EQ(serial.makespan_ms, parallel.makespan_ms);
    EXPECT_EQ(serial.total_work_ms, parallel.total_work_ms);
    EXPECT_EQ(serial.mean_latency_ms, parallel.mean_latency_ms);
    EXPECT_EQ(serial.max_latency_ms, parallel.max_latency_ms);
    EXPECT_EQ(serial.total_energy_j, parallel.total_energy_j);
    EXPECT_EQ(serial.energy_per_seq_j, parallel.energy_per_seq_j);
    ASSERT_EQ(serial.accel_busy_ms.size(),
              parallel.accel_busy_ms.size());
    for (size_t a = 0; a < serial.accel_busy_ms.size(); ++a)
        EXPECT_EQ(serial.accel_busy_ms[a], parallel.accel_busy_ms[a]);
    ASSERT_EQ(serial.accel_device.size(), parallel.accel_device.size());
    for (size_t a = 0; a < serial.accel_device.size(); ++a)
        EXPECT_EQ(serial.accel_device[a], parallel.accel_device[a]);
    EXPECT_EQ(serial.latency.count(), parallel.latency.count());
    EXPECT_EQ(serial.latency.mean(), parallel.latency.mean());
    EXPECT_EQ(serial.latency.max(), parallel.latency.max());
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable)
{
    // Run-to-run stability at a fixed thread count (not just 1-vs-8).
    ScopedThreads parallel(8);
    const auto a = trainClassifier(5);
    const auto b = trainClassifier(5);
    ASSERT_EQ(a.first.size(), b.first.size());
    for (size_t s = 0; s < a.first.size(); ++s)
        EXPECT_EQ(a.first[s], b.first[s]);
    for (size_t i = 0; i < a.second.size(); ++i)
        EXPECT_TRUE(bitIdentical(a.second[i], b.second[i]));
}

TEST(StreamingAttention, BitIdenticalAcrossThreadCounts)
{
    // The row kernel gives every query row to exactly one parallelFor
    // chunk. The head is sized so that all three cases (unmasked, causal
    // and a DOTA top-k mask) cross the MAC threshold into the parallel
    // branch; each must be bit-identical at DOTA_THREADS=1 and 8.
    const size_t n = 256, d = 128;
    Rng rng(907);
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    const SparseMask mask = SparseMask::fromDense(topkMask(proxy, 96));
    const float sc = 1.0f / std::sqrt(static_cast<float>(d));

    for (const SparseMask *m : {static_cast<const SparseMask *>(nullptr),
                                &mask}) {
        for (bool causal : {false, true}) {
            const uint64_t kept =
                m ? m->nnz() : (causal ? n * (n + 1) / 2 : n * n);
            ASSERT_GE(kept * d, gemmParallelMacThreshold())
                << "masked=" << (m != nullptr) << " causal=" << causal
                << " would run serially";
            auto [serial, parallel] = atBothThreadCounts(
                [&] { return rowsAttention(q, k, v, m, causal, sc); });
            EXPECT_TRUE(bitIdentical(serial, parallel))
                << "masked=" << (m != nullptr) << " causal=" << causal;
        }
    }
}

TEST(ParallelDeterminism, SparseAttentionBitIdentical)
{
    // The sparse path end to end: a causal MultiHeadAttention with an
    // inference DotaDetector installed selects every head's mask and runs
    // the row kernel, all under parallelFor; the layer output must not
    // depend on the thread count. Every head keeps enough connections for
    // the row kernel itself to take its parallel branch.
    TransformerConfig mc;
    mc.dim = 128;
    mc.heads = 2;
    mc.layers = 1;
    DetectorConfig dc;
    dc.train = false;
    dc.retention = 0.25;
    DotaDetector det(mc, dc);
    Rng rng(2077);
    MultiHeadAttention attn("p", 0, mc.dim, mc.heads, rng, /*causal=*/true);
    attn.setHook(&det);
    const Matrix x = Matrix::randomNormal(512, mc.dim, rng);

    ScopedAttnChoice pin(AttnChoice::Auto);
    auto [serial, parallel] =
        atBothThreadCounts([&] { return attn.forward(x); });
    EXPECT_TRUE(attn.lastForwardSparse());
    const size_t head_dim = mc.dim / mc.heads;
    for (const SparseMask &m : attn.lastMasks())
        EXPECT_GE(m.nnz() * head_dim, gemmParallelMacThreshold());
    EXPECT_TRUE(bitIdentical(serial, parallel));
}

TEST(ParallelDeterminism, InferBlockRowsBitIdentical)
{
    // Multi-row block steps (calibration, prefill, int8Forward) run
    // their query rows under the row kernel's parallelFor, in both
    // precisions. The sequence is long enough for one causal head's kept
    // keys x head dim to reach the parallel branch.
    TransformerConfig mc;
    mc.dim = 128;
    mc.heads = 2;
    mc.layers = 1;
    mc.ffn_dim = 128;
    mc.vocab = 32;
    mc.max_seq = 256;
    mc.seed = 2079;
    CausalLM model(mc);
    const size_t n = mc.max_seq;
    ASSERT_GE(n * (n + 1) / 2 * mc.headDim(), gemmParallelMacThreshold());
    Rng rng(2080);
    std::vector<int> ids(n);
    for (int &id : ids)
        id = static_cast<int>(rng.uniformInt(mc.vocab));

    auto [fp_serial, fp_parallel] = atBothThreadCounts([&] {
        KvCache cache;
        BlockStep step;
        step.cache = &cache;
        return inferBlock(*model.blocks()[0], model.embed(ids), step);
    });
    EXPECT_TRUE(bitIdentical(fp_serial, fp_parallel));

    const Int8Plan plan = quantizeLM(model, calibrateLM(model, {ids}));
    auto [int8_serial, int8_parallel] =
        atBothThreadCounts([&] { return int8Forward(model, plan, ids); });
    EXPECT_TRUE(bitIdentical(int8_serial, int8_parallel));
}

TEST(ParallelDeterminism, DetectorMasksBitIdentical)
{
    // The detector's row tiles run under parallelFor; each row is
    // estimated and selected on its own, so the CSR masks must not
    // depend on the thread count.
    TransformerConfig mc;
    mc.dim = 64;
    mc.heads = 2;
    mc.layers = 1;
    DetectorConfig dc;
    dc.train = false;
    dc.retention = 0.25;
    DotaDetector det(mc, dc);
    Rng rng(2078);
    const Matrix x = Matrix::randomNormal(300, mc.dim, rng);
    for (bool causal : {false, true}) {
        auto [serial, parallel] = atBothThreadCounts([&] {
            det.beginLayer(0, x);
            return det.selectSparseMask(0, 1, causal);
        });
        ASSERT_EQ(serial.rows(), parallel.rows());
        for (size_t r = 0; r < serial.rows(); ++r)
            ASSERT_EQ(serial.row(r), parallel.row(r))
                << "causal=" << causal << " row " << r;
    }
}

} // namespace
} // namespace dota
