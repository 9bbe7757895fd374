/**
 * @file
 * Tests for the DOTA detector: estimation, selection, quantization, and
 * the joint-optimization gradients.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "detect/detector.hpp"
#include "detect/pipeline.hpp"
#include "nn/gradcheck.hpp"
#include "workloads/synthetic_task.hpp"

namespace dota {
namespace {

TransformerConfig
modelCfg()
{
    TransformerConfig cfg;
    cfg.in_dim = 8;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.classes = 2;
    cfg.seed = 3;
    return cfg;
}

TEST(Detector, RankFollowsSigma)
{
    DetectorConfig dc;
    dc.sigma = 0.25;
    DotaDetector det(modelCfg(), dc); // head_dim = 16
    EXPECT_EQ(det.rank(), 4u);
    dc.sigma = 0.5;
    DotaDetector det2(modelCfg(), dc);
    EXPECT_EQ(det2.rank(), 8u);
    dc.sigma = 0.001;
    DotaDetector det3(modelCfg(), dc);
    EXPECT_EQ(det3.rank(), 1u); // clamped to at least 1
}

TEST(Detector, KeepCount)
{
    DetectorConfig dc;
    dc.retention = 0.1;
    DotaDetector det(modelCfg(), dc);
    EXPECT_EQ(det.keepCount(100), 10u);
    EXPECT_EQ(det.keepCount(5), 1u); // at least one connection
}

TEST(Detector, MaskIsRowBalancedTopk)
{
    DetectorConfig dc;
    dc.retention = 0.25;
    DotaDetector det(modelCfg(), dc);
    Rng rng(131);
    const Matrix x = Matrix::randomNormal(16, 32, rng);
    det.beginLayer(0, x);
    const Matrix mask = det.selectMask(0, 0, /*causal=*/false);
    ASSERT_EQ(mask.rows(), 16u);
    for (size_t r = 0; r < 16; ++r)
        EXPECT_EQ(maskRowCount(mask, r), 4u);
}

TEST(Detector, CausalMask)
{
    DetectorConfig dc;
    dc.retention = 0.5;
    DotaDetector det(modelCfg(), dc);
    Rng rng(132);
    const Matrix x = Matrix::randomNormal(10, 32, rng);
    det.beginLayer(1, x);
    const Matrix mask = det.selectMask(1, 1, /*causal=*/true);
    for (size_t r = 0; r < 10; ++r)
        for (size_t c = r + 1; c < 10; ++c)
            EXPECT_FLOAT_EQ(mask(r, c), 0.0f);
}

/**
 * A prompt over a 3-token vocabulary, embedded without positions: every
 * S~ row holds at most three distinct values, the heaviest ties.
 */
Matrix
threeTokenPrompt(size_t n, size_t dim, Rng &rng)
{
    const Matrix vocab = Matrix::randomNormal(3, dim, rng);
    Matrix x(n, dim);
    for (size_t i = 0; i < n; ++i) {
        const float *src = vocab.row(rng.uniformInt(3));
        std::copy(src, src + dim, x.row(i));
    }
    return x;
}

/** The selection rule applied to a full S~ as a dense 0/1 mask. */
Matrix
denseRule(const Matrix &est, const DetectorConfig &dc, size_t keep,
          bool causal)
{
    if (!dc.use_threshold)
        return causal ? topkMaskCausal(est, keep) : topkMask(est, keep);
    Matrix mask = thresholdMask(est, dc.threshold);
    if (causal) {
        for (size_t i = 0; i < est.rows(); ++i) {
            for (size_t j = i + 1; j < est.cols(); ++j)
                mask(i, j) = 0.0f;
            mask(i, i) = 1.0f;
        }
    }
    return mask;
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(Detector, SparseSelectionMatchesDenseRule)
{
    // The row-tiled CSR selection never builds S~; it must still pick
    // exactly what the dense rule picks on the full S~, at the tile
    // edges (64 rows) and under heavy ties.
    Rng rng(150);
    for (size_t n : {1u, 63u, 64u, 65u, 300u}) {
        const Matrix x = threeTokenPrompt(n, 32, rng);
        for (bool threshold : {false, true}) {
            for (bool causal : {false, true}) {
                DetectorConfig dc;
                dc.train = false;
                dc.retention = 0.25;
                DotaDetector det(modelCfg(), dc);
                const Matrix est = det.estimateScores(1, 1, x);
                // A threshold equal to an occurring value: ties at it.
                det.config().use_threshold = threshold;
                det.config().threshold = est.data()[est.size() / 2];
                det.beginLayer(1, x);
                const SparseMask got = det.selectSparseMask(1, 1, causal);
                const SparseMask want = SparseMask::fromDense(
                    denseRule(est, det.config(), det.keepCount(n), causal));
                ASSERT_EQ(got.rows(), n);
                ASSERT_EQ(got.cols(), n);
                for (size_t r = 0; r < n; ++r)
                    ASSERT_EQ(got.row(r), want.row(r))
                        << "n=" << n << " threshold=" << threshold
                        << " causal=" << causal << " row " << r;
                EXPECT_TRUE(sameBits(det.lastEstimate(1, 1), est));
                // The dense selectMask is the scatter of the same rows.
                EXPECT_TRUE(sameBits(det.selectMask(1, 1, causal),
                                     want.toDense()));
            }
        }
    }
    // The model's lengths, top-k on INT4 and on fp32 detection: the
    // transposed estimate's vector bodies and tails over many tiles.
    for (size_t n : {512u, 2048u}) {
        const Matrix x = Matrix::randomNormal(n, 32, rng);
        for (bool quantize : {true, false}) {
            DetectorConfig dc;
            dc.train = false;
            dc.retention = 0.25;
            dc.quantize = quantize;
            DotaDetector det(modelCfg(), dc);
            const Matrix est = det.estimateScores(0, 1, x);
            for (bool causal : {false, true}) {
                det.beginLayer(0, x);
                const SparseMask got = det.selectSparseMask(0, 1, causal);
                const Matrix dense =
                    causal ? topkMaskCausal(est, det.keepCount(n))
                           : topkMask(est, det.keepCount(n));
                for (size_t r = 0; r < n; ++r) {
                    std::vector<uint32_t> want;
                    for (size_t c = 0; c < n; ++c)
                        if (dense(r, c) != 0.0f)
                            want.push_back(static_cast<uint32_t>(c));
                    ASSERT_EQ(got.row(r), want)
                        << "n=" << n << " quantize=" << quantize
                        << " causal=" << causal << " row " << r;
                }
            }
        }
    }
}

/** Pass-through hook that overrides only the dense selectMask. */
class DenseOnlyWrapper final : public AttentionHook
{
  public:
    explicit DenseOnlyWrapper(AttentionHook &inner) : inner_(inner) {}
    void beginLayer(size_t layer, const Matrix &x) override
    {
        inner_.beginLayer(layer, x);
    }
    Matrix selectMask(size_t layer, size_t head, bool causal) override
    {
        return inner_.selectMask(layer, head, causal);
    }
    void observeScores(size_t layer, size_t head, const Matrix &s) override
    {
        inner_.observeScores(layer, head, s);
    }
    bool wantsFullScores() const override
    {
        return inner_.wantsFullScores();
    }
    Matrix scoreGradient(size_t layer, size_t head) override
    {
        return inner_.scoreGradient(layer, head);
    }

  private:
    AttentionHook &inner_;
};

TEST(Detector, DenseAdapterHookMatchesDirectInstall)
{
    // A hook that only knows the dense selectMask reaches the layers
    // through the default selectSparseMask (fromDense): the same masks,
    // so the same logits bit for bit.
    TransformerConfig mc = modelCfg();
    mc.vocab = 16;
    CausalLM lm(mc);
    DetectorConfig dc;
    dc.train = false;
    dc.retention = 0.25;
    DotaDetector det(mc, dc);
    Rng rng(151);
    std::vector<int> ids(150);
    for (int &t : ids)
        t = static_cast<int>(rng.uniformInt(mc.vocab));

    lm.setHook(&det);
    const Matrix direct = lm.forward(ids);
    DenseOnlyWrapper wrapper(det);
    lm.setHook(&wrapper);
    const Matrix wrapped = lm.forward(ids);
    lm.setHook(nullptr);
    EXPECT_TRUE(sameBits(direct, wrapped));
}

TEST(Detector, ThresholdModeRespectsThreshold)
{
    DetectorConfig dc;
    dc.use_threshold = true;
    dc.threshold = 1e9f; // nothing passes
    DotaDetector det(modelCfg(), dc);
    Rng rng(133);
    const Matrix x = Matrix::randomNormal(8, 32, rng);
    det.beginLayer(0, x);
    const Matrix mask = det.selectMask(0, 0, false);
    EXPECT_DOUBLE_EQ(maskDensity(mask), 0.0);
}

TEST(Detector, WarmupModeReturnsEmptyMask)
{
    DetectorConfig dc;
    dc.apply_mask = false;
    DotaDetector det(modelCfg(), dc);
    Rng rng(134);
    const Matrix x = Matrix::randomNormal(8, 32, rng);
    det.beginLayer(0, x);
    EXPECT_TRUE(det.selectMask(0, 0, false).empty());
    // The estimate is still produced for training.
    EXPECT_FALSE(det.lastEstimate(0, 0).empty());
}

TEST(Detector, EstimateShapes)
{
    DotaDetector det(modelCfg(), DetectorConfig{});
    Rng rng(135);
    const Matrix x = Matrix::randomNormal(12, 32, rng);
    const Matrix est = det.estimateScores(0, 1, x);
    EXPECT_EQ(est.rows(), 12u);
    EXPECT_EQ(est.cols(), 12u);
}

TEST(Detector, QuantizedEstimateTracksFloat)
{
    DetectorConfig fp;
    fp.quantize = false;
    DetectorConfig q8;
    q8.quantize = true;
    q8.bits = 8;
    DotaDetector dfp(modelCfg(), fp), d8(modelCfg(), q8);
    Rng rng(136);
    const Matrix x = Matrix::randomNormal(10, 32, rng);
    const Matrix efp = dfp.estimateScores(0, 0, x);
    const Matrix e8 = d8.estimateScores(0, 0, x);
    // INT8 detection keeps the relative ordering close to float:
    // compare the selected masks rather than raw values.
    const Matrix mfp = topkMask(efp, 3);
    const Matrix m8 = topkMask(e8, 3);
    size_t agree = 0;
    for (size_t i = 0; i < mfp.size(); ++i)
        agree += mfp.data()[i] == m8.data()[i];
    EXPECT_GT(static_cast<double>(agree) / mfp.size(), 0.9);
}

TEST(Detector, MseLossAccumulatesAndResets)
{
    DotaDetector det(modelCfg(), DetectorConfig{});
    Rng rng(137);
    const Matrix x = Matrix::randomNormal(8, 32, rng);
    det.beginLayer(0, x);
    det.selectMask(0, 0, false);
    const Matrix s_true = Matrix::randomNormal(8, 8, rng);
    det.observeScores(0, 0, s_true);
    const double loss = det.consumeMseLoss();
    EXPECT_GT(loss, 0.0);
    EXPECT_DOUBLE_EQ(det.consumeMseLoss(), 0.0); // reset
}

TEST(Detector, ScoreGradientDirection)
{
    // dL/dS = -2 lambda (S~ - S)/N : pushes S toward S~.
    DetectorConfig dc;
    dc.lambda = 2.0;
    dc.quantize = false;
    DotaDetector det(modelCfg(), dc);
    Rng rng(138);
    const Matrix x = Matrix::randomNormal(6, 32, rng);
    det.beginLayer(0, x);
    det.selectMask(0, 0, false);
    const Matrix est = det.lastEstimate(0, 0);
    const Matrix s_true(6, 6, 0.0f);
    det.observeScores(0, 0, s_true);
    const Matrix g = det.scoreGradient(0, 0);
    ASSERT_EQ(g.rows(), 6u);
    const float coef = 2.0f * 2.0f / 36.0f;
    for (size_t i = 0; i < g.size(); ++i)
        EXPECT_NEAR(g.data()[i], -coef * est.data()[i], 1e-5);
}

TEST(Detector, NoGradientWhenTrainingDisabled)
{
    DetectorConfig dc;
    dc.train = false;
    DotaDetector det(modelCfg(), dc);
    Rng rng(139);
    const Matrix x = Matrix::randomNormal(6, 32, rng);
    det.beginLayer(0, x);
    det.selectMask(0, 0, false);
    det.observeScores(0, 0, Matrix(6, 6));
    EXPECT_TRUE(det.scoreGradient(0, 0).empty());
    std::vector<Parameter *> ps;
    det.collectParams(ps);
    for (Parameter *p : ps)
        EXPECT_DOUBLE_EQ(p->grad.frobeniusNorm(), 0.0);
}

TEST(Detector, ParamGradientFiniteDifference)
{
    DetectorConfig dc;
    dc.quantize = false; // smooth path for numeric differentiation
    dc.lambda = 1.0;
    DotaDetector det(modelCfg(), dc);
    Rng rng(140);
    const Matrix x = Matrix::randomNormal(5, 32, rng);
    const Matrix s_true = Matrix::randomNormal(5, 5, rng);

    std::vector<Parameter *> ps;
    det.collectParams(ps);
    Parameter *wq0 = ps[0];
    wq0->zeroGrad();
    det.beginLayer(0, x);
    det.selectMask(0, 0, false);
    det.observeScores(0, 0, s_true);

    auto loss = [&]() {
        const Matrix est = det.estimateScores(0, 0, x);
        return mse(est, s_true); // lambda = 1, mean-squared form
    };
    Rng probe(7);
    const auto res = checkGradient(loss, *wq0, 6, 1e-3, probe);
    EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(Detector, ParamCount)
{
    DetectorConfig dc;
    dc.sigma = 0.25; // k = 4
    DotaDetector det(modelCfg(), dc);
    std::vector<Parameter *> ps;
    det.collectParams(ps);
    // 2 layers x 2 heads x (W~Q + W~K) of 4x4 each.
    EXPECT_EQ(ps.size(), 8u);
    size_t total = 0;
    for (Parameter *p : ps)
        total += p->value.size();
    EXPECT_EQ(total, 8u * 16u);
}

TEST(DetectorPipeline, WarmupReducesEstimationLoss)
{
    TransformerConfig mc = modelCfg();
    TransformerClassifier model(mc);
    TaskConfig tc;
    tc.seq_len = 24;
    tc.in_dim = mc.in_dim;
    tc.classes = 2;
    SyntheticTask task(tc);

    DetectorConfig dc;
    dc.sigma = 0.5;
    DotaDetector det(mc, dc);

    // Measure initial loss with a single probe forward. Inference-time
    // L_MSE needs the true S, so the probe forces the dense path (the
    // wantsFullScores contract; any other backend skips observeScores).
    det.config().apply_mask = false;
    det.config().train = false;
    model.setHook(&det);
    model.setForceDense(true);
    Rng rng(141);
    det.consumeMseLoss();
    model.forward(task.sample(rng).features);
    const double before = det.consumeMseLoss();
    model.setHook(nullptr);
    model.setForceDense(false);

    warmupDetector(model, task, det, 30, 2, 5e-3);

    det.config().apply_mask = false;
    det.config().train = false;
    model.setHook(&det);
    model.setForceDense(true);
    model.forward(task.sample(rng).features);
    const double after = det.consumeMseLoss();
    model.setHook(nullptr);
    model.setForceDense(false);
    EXPECT_LT(after, 0.8 * before);
}

} // namespace
} // namespace dota
