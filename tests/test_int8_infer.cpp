/**
 * @file
 * Tests for the integer-only inference path (nn/int8_infer.hpp): plan
 * quantization, full-sequence forward accuracy against the fp32 model,
 * the incremental-decode bit-identity contract, the hooked int8
 * forward, and calibration's independence from installed hooks.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/int8_infer.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"

namespace dota {
namespace {

TransformerConfig
classifierConfig()
{
    TransformerConfig cfg;
    cfg.in_dim = 12;
    cfg.dim = 32;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.classes = 5;
    cfg.max_seq = 32;
    cfg.seed = 3;
    return cfg;
}

TransformerConfig
lmConfig()
{
    TransformerConfig cfg;
    cfg.dim = 32;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.vocab = 48;
    cfg.max_seq = 64;
    cfg.seed = 7;
    return cfg;
}

std::vector<int>
randomIds(size_t n, int vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> ids(n);
    for (auto &id : ids)
        id = static_cast<int>(rng.uniformInt(vocab));
    return ids;
}

/** Relative error of @p got against @p ref: mse / signal power. */
double
relMse(const Matrix &ref, const Matrix &got)
{
    return mse(ref, got) /
           (mse(ref, Matrix(ref.rows(), ref.cols())) + 1e-12);
}

TEST(Int8Infer, ClassifierTracksFp32Forward)
{
    TransformerClassifier model(classifierConfig());
    Rng rng(50);
    std::vector<Matrix> calib;
    for (int i = 0; i < 6; ++i)
        calib.push_back(Matrix::randomNormal(10, 12, rng));
    const Int8Plan plan =
        quantizeClassifier(model, calibrateClassifier(model, calib));
    ASSERT_EQ(plan.blocks.size(), 2u);
    ASSERT_FALSE(plan.input.empty());

    double worst = 0.0;
    for (int i = 0; i < 4; ++i) {
        const Matrix features = Matrix::randomNormal(10, 12, rng);
        const Matrix fp = model.forward(features);
        const Matrix i8 = int8Forward(model, plan, features);
        ASSERT_EQ(i8.rows(), fp.rows());
        ASSERT_EQ(i8.cols(), fp.cols());
        worst = std::max(worst, relMse(fp, i8));
    }
    // Int8 keeps the logits close to fp32 on calibrated inputs.
    EXPECT_LT(worst, 0.05);
}

TEST(Int8Infer, LmTracksFp32Forward)
{
    CausalLM model(lmConfig());
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 6; ++i)
        calib.push_back(randomIds(24, 48, 60 + i));
    const Int8Plan plan = quantizeLM(model, calibrateLM(model, calib));
    ASSERT_TRUE(plan.input.empty()); // LM embeds tokens, no input GEMM

    const std::vector<int> ids = randomIds(24, 48, 77);
    const Matrix fp = model.forward(ids);
    const Matrix i8 = int8Forward(model, plan, ids);
    ASSERT_EQ(i8.rows(), fp.rows());
    ASSERT_EQ(i8.cols(), fp.cols());
    EXPECT_LT(relMse(fp, i8), 0.05);
}

TEST(Int8Infer, DecodeStepBitIdenticalToFullSequence)
{
    // The determinism contract of DESIGN.md §16: static scales + exact
    // integer GEMMs make the incremental decode reproduce row t of the
    // full-sequence forward *bit for bit* — EXPECT_EQ on floats.
    CausalLM model(lmConfig());
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 4; ++i)
        calib.push_back(randomIds(20, 48, 80 + i));
    const Int8Plan plan = quantizeLM(model, calibrateLM(model, calib));

    const std::vector<int> ids = randomIds(10, 48, 90);
    const Matrix full = int8Forward(model, plan, ids);

    Int8DecodeState state;
    state.reset(plan.blocks.size());
    for (size_t t = 0; t < ids.size(); ++t) {
        const Matrix step = int8DecodeStep(model, plan, state, ids[t]);
        ASSERT_EQ(step.rows(), 1u);
        ASSERT_EQ(step.cols(), full.cols());
        for (size_t j = 0; j < full.cols(); ++j)
            EXPECT_EQ(step(0, j), full(t, j))
                << "t=" << t << " j=" << j;
    }
}

TEST(Int8Infer, KvAppendGrowsGeometrically)
{
    // Decode appends one row per token: the code arrays must grow in
    // amortized O(1) per row, not reallocate (and copy) on every append.
    const size_t d = 256, heads = 4;
    Rng rng(97);
    const Matrix row = Matrix::randomNormal(1, d, rng);
    Int8KvCache cache;
    const int8_t *last = nullptr;
    size_t moves = 0;
    for (int t = 0; t < 512; ++t) {
        cache.append(row, row, heads, 0.05f, 0.05f);
        moves += cache.k_codes.data() != last;
        last = cache.k_codes.data();
    }
    EXPECT_EQ(cache.len, 512u);
    EXPECT_EQ(cache.k_codes.size(), 512 * d);
    EXPECT_EQ(cache.k_head_sums.size(), 512 * heads);
    EXPECT_LE(moves, 16u);
}

TEST(Int8Infer, GenerateIsDeterministic)
{
    CausalLM model(lmConfig());
    std::vector<std::vector<int>> calib;
    calib.push_back(randomIds(20, 48, 95));
    const Int8Plan plan = quantizeLM(model, calibrateLM(model, calib));

    const std::vector<int> prefix{1, 2, 3};
    const std::vector<int> greedy_a = int8Generate(model, plan, prefix, 8);
    const std::vector<int> greedy_b = int8Generate(model, plan, prefix, 8);
    EXPECT_EQ(greedy_a, greedy_b);
    EXPECT_GE(greedy_a.size(), prefix.size());

    const std::vector<int> sampled_a =
        int8Generate(model, plan, prefix, 8, 0.8, 42);
    const std::vector<int> sampled_b =
        int8Generate(model, plan, prefix, 8, 0.8, 42);
    EXPECT_EQ(sampled_a, sampled_b);
}

/** Inference hook serving one fixed mask and logging every call. */
class FixedMaskHook : public AttentionHook
{
  public:
    explicit FixedMaskHook(Matrix mask) : mask_(std::move(mask)) {}

    void
    beginLayer(size_t layer, const Matrix &x) override
    {
        calls.push_back("begin " + std::to_string(layer));
        x_rows = x.rows();
    }
    void
    observeQK(size_t layer, size_t head, const Matrix &q,
              const Matrix &k) override
    {
        calls.push_back("qk " + std::to_string(layer) + "." +
                        std::to_string(head));
        q_shape = {q.rows(), q.cols()};
        k_shape = {k.rows(), k.cols()};
    }
    Matrix
    selectMask(size_t layer, size_t head, bool) override
    {
        calls.push_back("select " + std::to_string(layer) + "." +
                        std::to_string(head));
        return mask_;
    }
    void
    observeScores(size_t, size_t, const Matrix &) override
    {
        calls.push_back("scores");
    }
    bool wantsFullScores() const override { return false; }
    Matrix scoreGradient(size_t, size_t) override { return Matrix(); }

    std::vector<std::string> calls;
    size_t x_rows = 0;
    std::pair<size_t, size_t> q_shape, k_shape;

  private:
    Matrix mask_;
};

TEST(Int8Infer, HookedClassifierForwardHonoursMask)
{
    // The hooked int8 forward (bench_fig11's DOTA-int8 column): the
    // hook sees the fp call order of Attention.HookCallOrderAndPayloads
    // and its mask gates the integer softmax.
    const TransformerConfig cfg = classifierConfig();
    TransformerClassifier model(cfg);
    Rng rng(51);
    std::vector<Matrix> calib;
    for (int i = 0; i < 4; ++i)
        calib.push_back(Matrix::randomNormal(10, 12, rng));
    const Int8Plan plan =
        quantizeClassifier(model, calibrateClassifier(model, calib));
    const Matrix features = Matrix::randomNormal(10, 12, rng);
    const size_t n = features.rows();
    const Matrix plain = int8Forward(model, plan, features);

    FixedMaskHook all(Matrix(n, n, 1.0f));
    model.setHook(&all);
    const Matrix kept_all = int8Forward(model, plan, features);
    std::vector<std::string> expected;
    for (size_t l = 0; l < cfg.layers; ++l) {
        expected.push_back("begin " + std::to_string(l));
        for (size_t h = 0; h < cfg.heads; ++h) {
            const std::string lh =
                std::to_string(l) + "." + std::to_string(h);
            expected.push_back("qk " + lh);
            expected.push_back("select " + lh);
        }
    }
    EXPECT_EQ(all.calls, expected);
    EXPECT_EQ(all.x_rows, n);
    EXPECT_EQ(all.q_shape, std::make_pair(n, cfg.headDim()));
    EXPECT_EQ(all.k_shape, std::make_pair(n, cfg.headDim()));
    ASSERT_EQ(kept_all.cols(), plain.cols());
    for (size_t j = 0; j < plain.cols(); ++j)
        EXPECT_EQ(kept_all(0, j), plain(0, j)) << "class " << j;

    Matrix one_key(n, n);
    for (size_t i = 0; i < n; ++i)
        one_key(i, (i + 3) % n) = 1.0f;
    FixedMaskHook sparse(one_key);
    model.setHook(&sparse);
    const Matrix kept_one = int8Forward(model, plan, features);
    model.setHook(nullptr);
    EXPECT_FALSE(Matrix::allClose(kept_one, plain, 1e-6f));
}

TEST(Int8Infer, CalibrationIgnoresInstalledHook)
{
    // Calibration records the dense fp32 ranges: an installed hook is
    // never consulted and leaves every range unchanged.
    TransformerClassifier model(classifierConfig());
    Rng rng(52);
    std::vector<Matrix> calib;
    for (int i = 0; i < 3; ++i)
        calib.push_back(Matrix::randomNormal(10, 12, rng));
    const Int8Calibration plain = calibrateClassifier(model, calib);

    FixedMaskHook hook(Matrix::identity(10));
    model.setHook(&hook);
    const Int8Calibration hooked = calibrateClassifier(model, calib);
    model.setHook(nullptr);
    EXPECT_TRUE(hook.calls.empty());
    EXPECT_EQ(hooked.input, plain.input);
    EXPECT_EQ(hooked.final_h, plain.final_h);
    ASSERT_EQ(hooked.layers.size(), plain.layers.size());
    for (size_t l = 0; l < plain.layers.size(); ++l) {
        const Int8LayerRanges &a = plain.layers[l];
        const Int8LayerRanges &b = hooked.layers[l];
        EXPECT_EQ(b.x, a.x) << "layer " << l;
        EXPECT_EQ(b.q, a.q) << "layer " << l;
        EXPECT_EQ(b.k, a.k) << "layer " << l;
        EXPECT_EQ(b.v, a.v) << "layer " << l;
        EXPECT_EQ(b.z, a.z) << "layer " << l;
        EXPECT_EQ(b.h1, a.h1) << "layer " << l;
        EXPECT_EQ(b.hidden, a.hidden) << "layer " << l;
    }
}

} // namespace
} // namespace dota
