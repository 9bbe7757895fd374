/**
 * @file
 * Tests for multi-head self-attention: forward semantics against a
 * reference implementation, hook interception, and gradient checks.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "nn/attention.hpp"
#include "nn/gradcheck.hpp"

namespace dota {
namespace {

/** Reference single-pass attention computed straight from the formulas. */
Matrix
referenceAttention(const Matrix &x, const Matrix &wq, const Matrix &wk,
                   const Matrix &wv, const Matrix &wo, size_t heads)
{
    const size_t n = x.rows(), d = x.cols(), dh = d / heads;
    const Matrix q = matmul(x, wq), k = matmul(x, wk), v = matmul(x, wv);
    Matrix z(n, d);
    for (size_t h = 0; h < heads; ++h) {
        Matrix qh(n, dh), kh(n, dh), vh(n, dh);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < dh; ++j) {
                qh(i, j) = q(i, h * dh + j);
                kh(i, j) = k(i, h * dh + j);
                vh(i, j) = v(i, h * dh + j);
            }
        const Matrix s =
            scale(matmulBT(qh, kh), 1.0f / std::sqrt(float(dh)));
        const Matrix a = rowSoftmax(s);
        const Matrix zh = matmul(a, vh);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < dh; ++j)
                z(i, h * dh + j) = zh(i, j);
    }
    return matmul(z, wo);
}

/** Hook that records calls and serves a fixed retention top-k would. */
class RecordingHook : public AttentionHook
{
  public:
    void
    beginLayer(size_t layer, const Matrix &x) override
    {
        begin_calls.push_back(layer);
        last_x = x;
    }
    void
    observeQK(size_t, size_t, const Matrix &q, const Matrix &k) override
    {
        qk_calls++;
        last_q = q;
        last_k = k;
    }
    Matrix
    selectMask(size_t, size_t, bool) override
    {
        select_calls++;
        return mask;
    }
    void
    observeScores(size_t, size_t, const Matrix &s) override
    {
        observe_calls++;
        last_scores = s;
    }
    Matrix
    scoreGradient(size_t, size_t) override
    {
        grad_calls++;
        return grad;
    }

    std::vector<size_t> begin_calls;
    int qk_calls = 0, select_calls = 0, observe_calls = 0, grad_calls = 0;
    Matrix mask, grad, last_x, last_q, last_k, last_scores;
};

TEST(Attention, MatchesReference)
{
    Rng rng(81);
    MultiHeadAttention attn("a", 0, 16, 4, rng);
    const Matrix x = Matrix::randomNormal(6, 16, rng);
    const Matrix out = attn.forward(x);

    std::vector<Parameter *> ps;
    attn.collectParams(ps);
    const Matrix ref = referenceAttention(x, ps[0]->value, ps[1]->value,
                                          ps[2]->value, ps[3]->value, 4);
    EXPECT_TRUE(Matrix::allClose(out, ref, 1e-4));
}

TEST(Attention, AttentionRowsSumToOne)
{
    Rng rng(82);
    MultiHeadAttention attn("a", 0, 8, 2, rng);
    const Matrix x = Matrix::randomNormal(5, 8, rng);
    attn.forward(x);
    for (const Matrix &a : attn.lastAttention()) {
        for (size_t r = 0; r < a.rows(); ++r) {
            double sum = 0.0;
            for (size_t c = 0; c < a.cols(); ++c)
                sum += a(r, c);
            EXPECT_NEAR(sum, 1.0, 1e-5);
        }
    }
}

TEST(Attention, CausalZeroesFuture)
{
    Rng rng(83);
    MultiHeadAttention attn("a", 0, 8, 2, rng, /*causal=*/true);
    const Matrix x = Matrix::randomNormal(5, 8, rng);
    attn.forward(x);
    for (const Matrix &a : attn.lastAttention())
        for (size_t r = 0; r < a.rows(); ++r)
            for (size_t c = r + 1; c < a.cols(); ++c)
                EXPECT_FLOAT_EQ(a(r, c), 0.0f);
}

TEST(Attention, CausalFirstTokenAttendsSelf)
{
    Rng rng(84);
    MultiHeadAttention attn("a", 0, 8, 2, rng, /*causal=*/true);
    const Matrix x = Matrix::randomNormal(4, 8, rng);
    attn.forward(x);
    for (const Matrix &a : attn.lastAttention())
        EXPECT_NEAR(a(0, 0), 1.0, 1e-6);
}

TEST(Attention, HookCallOrderAndPayloads)
{
    Rng rng(85);
    MultiHeadAttention attn("a", 3, 8, 2, rng);
    RecordingHook hook;
    attn.setHook(&hook);
    const Matrix x = Matrix::randomNormal(4, 8, rng);
    attn.forward(x);
    ASSERT_EQ(hook.begin_calls.size(), 1u);
    EXPECT_EQ(hook.begin_calls[0], 3u); // layer index passed through
    EXPECT_EQ(hook.qk_calls, 2);
    EXPECT_EQ(hook.select_calls, 2);
    EXPECT_EQ(hook.observe_calls, 2);
    EXPECT_TRUE(Matrix::allClose(hook.last_x, x));
    EXPECT_EQ(hook.last_q.rows(), 4u);
    EXPECT_EQ(hook.last_q.cols(), 4u); // head_dim
    // Observed scores are Q K^T of the last head.
    EXPECT_TRUE(Matrix::allClose(hook.last_scores,
                                 matmulBT(hook.last_q, hook.last_k),
                                 1e-4));
}

TEST(Attention, HookMaskapplied)
{
    Rng rng(86);
    MultiHeadAttention attn("a", 0, 8, 2, rng);
    RecordingHook hook;
    // Only the diagonal is kept: attention becomes the identity mix.
    hook.mask = Matrix::identity(4);
    attn.setHook(&hook);
    const Matrix x = Matrix::randomNormal(4, 8, rng);
    attn.forward(x);
    for (const Matrix &a : attn.lastAttention())
        for (size_t r = 0; r < 4; ++r)
            for (size_t c = 0; c < 4; ++c)
                EXPECT_NEAR(a(r, c), r == c ? 1.0 : 0.0, 1e-6);
}

TEST(Attention, EmptyHookMaskMeansDense)
{
    Rng rng(87);
    MultiHeadAttention attn("a", 0, 8, 2, rng);
    RecordingHook hook; // mask left empty
    attn.setHook(&hook);
    const Matrix x = Matrix::randomNormal(4, 8, rng);
    const Matrix hooked = attn.forward(x);
    attn.setHook(nullptr);
    const Matrix dense = attn.forward(x);
    EXPECT_TRUE(Matrix::allClose(hooked, dense, 1e-6));
}

TEST(Attention, GradCheckDense)
{
    Rng rng(88);
    MultiHeadAttention attn("a", 0, 8, 2, rng);
    const Matrix x = Matrix::randomNormal(4, 8, rng);
    const Matrix w = Matrix::randomNormal(4, 8, rng);

    attn.zeroGrad();
    attn.forward(x);
    attn.backward(w);

    auto loss = [&]() {
        const Matrix y = attn.forward(x);
        double acc = 0.0;
        for (size_t i = 0; i < y.size(); ++i)
            acc += static_cast<double>(w.data()[i]) * y.data()[i];
        return acc;
    };
    std::vector<Parameter *> ps;
    attn.collectParams(ps);
    Rng probe(3);
    for (Parameter *p : ps) {
        auto res = checkGradient(loss, *p, 6, 1e-3, probe);
        EXPECT_LT(res.max_rel_err, 4e-2) << p->name;
    }
}

TEST(Attention, GradCheckMasked)
{
    Rng rng(89);
    MultiHeadAttention attn("a", 0, 8, 2, rng);
    RecordingHook hook;
    Rng mask_rng(90);
    // Random mask with diagonal kept.
    hook.mask = Matrix(4, 4);
    for (size_t r = 0; r < 4; ++r) {
        hook.mask(r, r) = 1.0f;
        hook.mask(r, mask_rng.uniformInt(4)) = 1.0f;
    }
    attn.setHook(&hook);
    const Matrix x = Matrix::randomNormal(4, 8, rng);
    const Matrix w = Matrix::randomNormal(4, 8, rng);

    attn.zeroGrad();
    attn.forward(x);
    attn.backward(w);

    auto loss = [&]() {
        const Matrix y = attn.forward(x);
        double acc = 0.0;
        for (size_t i = 0; i < y.size(); ++i)
            acc += static_cast<double>(w.data()[i]) * y.data()[i];
        return acc;
    };
    std::vector<Parameter *> ps;
    attn.collectParams(ps);
    Rng probe(4);
    for (Parameter *p : ps) {
        auto res = checkGradient(loss, *p, 5, 1e-3, probe);
        EXPECT_LT(res.max_rel_err, 4e-2) << p->name;
    }
}

TEST(Attention, InputGradCheckDense)
{
    Rng rng(91);
    MultiHeadAttention attn("a", 0, 8, 2, rng);
    Matrix x = Matrix::randomNormal(3, 8, rng);
    const Matrix w = Matrix::randomNormal(3, 8, rng);
    attn.forward(x);
    const Matrix dx = attn.backward(w);

    // Central differences on a few input elements.
    Rng probe(5);
    for (int trial = 0; trial < 6; ++trial) {
        const size_t idx = probe.uniformInt(x.size());
        const float saved = x.data()[idx];
        const double eps = 1e-3;
        auto lossAt = [&](float v) {
            x.data()[idx] = v;
            const Matrix y = attn.forward(x);
            double acc = 0.0;
            for (size_t i = 0; i < y.size(); ++i)
                acc += static_cast<double>(w.data()[i]) * y.data()[i];
            return acc;
        };
        const double up = lossAt(saved + static_cast<float>(eps));
        const double down = lossAt(saved - static_cast<float>(eps));
        x.data()[idx] = saved;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(dx.data()[idx], numeric,
                    5e-2 * std::max(1.0, std::abs(numeric)));
    }
}

} // namespace
} // namespace dota
