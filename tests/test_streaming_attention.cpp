/**
 * @file
 * Tests of rowsAttention, the exact row-at-a-time kernel behind the
 * sparse attention path and long contexts (DESIGN.md §13), and of the
 * path selection layer. The kernel replays the dense masked path's
 * per-element operation order, so every comparison with the dense
 * reference here is bitwise: unmasked, causal and DOTA top-k masks,
 * full and empty mask rows, the SIMD micro-tile edges of the score and
 * A*V kernels, and more keys than queries. Then the resolveAttnBackend
 * table and the sparse path through MultiHeadAttention.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/attention.hpp"
#include "nn/attention_backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/rows_attention.hpp"
#include "tensor/topk.hpp"

namespace dota {
namespace {

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Dense reference: softmax(scale * Q K^T [, mask]) V. */
Matrix
denseRef(const Matrix &q, const Matrix &k, const Matrix &v, float sc,
         const Matrix *mask = nullptr)
{
    const Matrix s = scale(matmulBT(q, k), sc);
    const Matrix a = mask ? rowSoftmaxMasked(s, *mask) : rowSoftmax(s);
    return matmul(a, v);
}

/** Keys [0, min(r, cols - 1)] of every row r. */
Matrix
causalOnes(size_t rows, size_t cols)
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c <= r && c < cols; ++c)
            m(r, c) = 1.0f;
    return m;
}

float
attnScale(size_t d)
{
    return 1.0f / std::sqrt(static_cast<float>(d));
}

/** A DOTA-style row-balanced top-k mask over a random proxy score. */
SparseMask
topkProxyMask(size_t rows, size_t cols, size_t keep, Rng &rng)
{
    return SparseMask::fromDense(
        topkMask(Matrix::randomNormal(rows, cols, rng), keep));
}

TEST(StreamingAttention, MatchesDenseUnmasked)
{
    Rng rng(901);
    const size_t n = 37, d = 16;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const float sc = attnScale(d);
    EXPECT_TRUE(bitIdentical(rowsAttention(q, k, v, nullptr, false, sc),
                             denseRef(q, k, v, sc)));
}

TEST(StreamingAttention, MatchesDenseCausal)
{
    Rng rng(902);
    const size_t n = 33, d = 8;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const float sc = attnScale(d);
    const Matrix mask = causalOnes(n, n);
    EXPECT_TRUE(bitIdentical(rowsAttention(q, k, v, nullptr, true, sc),
                             denseRef(q, k, v, sc, &mask)));
}

TEST(StreamingAttention, ComposesWithDotaMask)
{
    Rng rng(903);
    const size_t d = 16;
    const float sc = attnScale(d);
    // Square, then more keys than queries (a mask replaces the causal
    // bound, so `causal` must not change the result).
    for (const auto &[n, m] : {std::pair<size_t, size_t>{48, 48},
                               std::pair<size_t, size_t>{19, 53}}) {
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(m, d, rng);
        const Matrix v = Matrix::randomNormal(m, d, rng);
        const SparseMask mask = topkProxyMask(n, m, 12, rng);
        const Matrix dense_mask = mask.toDense();
        const Matrix ref = denseRef(q, k, v, sc, &dense_mask);
        for (bool causal : {false, true})
            EXPECT_TRUE(
                bitIdentical(rowsAttention(q, k, v, &mask, causal, sc), ref))
                << n << "x" << m << " causal=" << causal;
    }
}

TEST(StreamingAttention, EmptyMaskRowsStayZero)
{
    Rng rng(904);
    const size_t n = 10, d = 4;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    SparseMask mask(n, n);
    for (size_t r = 0; r < n; ++r)
        if (r % 3 != 0) // rows 0, 3, 6, 9 keep nothing
            mask.setRow(r, {0, static_cast<uint32_t>(r)});
    const float sc = attnScale(d);

    const Matrix out = rowsAttention(q, k, v, &mask, false, sc);
    for (size_t r = 0; r < n; r += 3)
        for (size_t c = 0; c < d; ++c)
            EXPECT_EQ(out(r, c), 0.0f) << "row " << r;
    // The dense path's all-masked rows are zero too: bitwise equal.
    const Matrix dense_mask = mask.toDense();
    EXPECT_TRUE(bitIdentical(out, denseRef(q, k, v, sc, &dense_mask)));
}

TEST(StreamingAttention, FullMaskBitIdenticalToNoMask)
{
    Rng rng(905);
    const size_t n = 21, d = 8;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    SparseMask full(n, n);
    std::vector<uint32_t> all(n);
    for (size_t c = 0; c < n; ++c)
        all[c] = static_cast<uint32_t>(c);
    for (size_t r = 0; r < n; ++r)
        full.setRow(r, all);
    const float sc = attnScale(d);

    const Matrix masked = rowsAttention(q, k, v, &full, false, sc);
    EXPECT_TRUE(
        bitIdentical(masked, rowsAttention(q, k, v, nullptr, false, sc)));
    EXPECT_TRUE(bitIdentical(masked, denseRef(q, k, v, sc)));
}

TEST(StreamingAttention, TileBoundaryShapes)
{
    // n around the score kernel's 4-key tile and d around the A*V
    // kernel's 8- and 64-column panels: unmasked, causal and top-k.
    Rng rng(906);
    for (size_t n : {1, 3, 4, 5, 8, 11, 64, 65}) {
        for (size_t d : {8, 65}) {
            const Matrix q = Matrix::randomNormal(n, d, rng);
            const Matrix k = Matrix::randomNormal(n, d, rng);
            const Matrix v = Matrix::randomNormal(n, d, rng);
            const float sc = attnScale(d);
            const Matrix causal_mask = causalOnes(n, n);
            const SparseMask mask =
                topkProxyMask(n, n, std::max<size_t>(1, n / 4), rng);
            const Matrix dense_mask = mask.toDense();
            EXPECT_TRUE(bitIdentical(rowsAttention(q, k, v, nullptr, false, sc),
                                     denseRef(q, k, v, sc)))
                << "unmasked n=" << n << " d=" << d;
            EXPECT_TRUE(bitIdentical(rowsAttention(q, k, v, nullptr, true, sc),
                                     denseRef(q, k, v, sc, &causal_mask)))
                << "causal n=" << n << " d=" << d;
            EXPECT_TRUE(bitIdentical(rowsAttention(q, k, v, &mask, false, sc),
                                     denseRef(q, k, v, sc, &dense_mask)))
                << "top-k n=" << n << " d=" << d;
        }
    }
}

// ------------------------------------------------------- path selection

TEST(AttnBackend, ParseAndNames)
{
    AttnChoice c = AttnChoice::Dense;
    EXPECT_TRUE(parseAttnChoice("auto", c));
    EXPECT_EQ(c, AttnChoice::Auto);
    EXPECT_TRUE(parseAttnChoice("dense", c));
    EXPECT_EQ(c, AttnChoice::Dense);
    EXPECT_TRUE(parseAttnChoice("sparse", c));
    EXPECT_EQ(c, AttnChoice::Sparse);
    EXPECT_FALSE(parseAttnChoice("streaming", c));
    EXPECT_FALSE(parseAttnChoice("flash", c));
    EXPECT_FALSE(parseAttnChoice("int8", c)); // int8 is a plan, not a path
    EXPECT_FALSE(parseAttnChoice("", c));
    EXPECT_EQ(c, AttnChoice::Sparse); // rejected values leave it untouched

    EXPECT_EQ(attnBackendName(AttnBackendKind::Dense), std::string("dense"));
    EXPECT_EQ(attnBackendName(AttnBackendKind::Sparse),
              std::string("sparse"));
    for (AttnChoice choice :
         {AttnChoice::Auto, AttnChoice::Dense, AttnChoice::Sparse}) {
        AttnChoice parsed = AttnChoice::Auto;
        EXPECT_TRUE(parseAttnChoice(attnChoiceName(choice), parsed));
        EXPECT_EQ(parsed, choice);
    }
}

TEST(AttnBackend, ScopedChoiceRestores)
{
    const AttnChoice before = attnChoice();
    {
        ScopedAttnChoice pin(AttnChoice::Sparse);
        EXPECT_EQ(attnChoice(), AttnChoice::Sparse);
        {
            ScopedAttnChoice inner(AttnChoice::Dense);
            EXPECT_EQ(attnChoice(), AttnChoice::Dense);
        }
        EXPECT_EQ(attnChoice(), AttnChoice::Sparse);
    }
    EXPECT_EQ(attnChoice(), before);
}

TEST(AttnBackend, ResolutionTable)
{
    using K = AttnBackendKind;
    using C = AttnChoice;
    const size_t short_n = kLongContextSeqLen - 1, long_n = kLongContextSeqLen;

    // Every choice x hook (none / inference hook without a mask /
    // inference hook with a mask) x n on both sides of the threshold.
    struct Row
    {
        C choice;
        bool hook, mask;
        K short_kind, long_kind;
    };
    const Row rows[] = {
        {C::Auto, false, false, K::Dense, K::Sparse},
        {C::Auto, true, false, K::Dense, K::Sparse},
        {C::Auto, true, true, K::Sparse, K::Sparse},
        {C::Dense, false, false, K::Dense, K::Dense},
        {C::Dense, true, false, K::Dense, K::Dense},
        {C::Dense, true, true, K::Dense, K::Dense},
        // Sparse needs a hook or a long context: short hook-free
        // forwards (training, gradcheck) keep their S/A.
        {C::Sparse, false, false, K::Dense, K::Sparse},
        {C::Sparse, true, false, K::Sparse, K::Sparse},
        {C::Sparse, true, true, K::Sparse, K::Sparse},
    };
    for (const Row &r : rows) {
        EXPECT_EQ(resolveAttnBackend(r.choice, r.hook, false, false, r.mask,
                                     short_n),
                  r.short_kind)
            << attnChoiceName(r.choice) << " hook=" << r.hook
            << " mask=" << r.mask << " short";
        EXPECT_EQ(resolveAttnBackend(r.choice, r.hook, false, false, r.mask,
                                     long_n),
                  r.long_kind)
            << attnChoiceName(r.choice) << " hook=" << r.hook
            << " mask=" << r.mask << " long";
        // Hooks that want full scores and force-dense probes always win.
        for (size_t n : {short_n, long_n}) {
            if (r.hook) {
                EXPECT_EQ(resolveAttnBackend(r.choice, true, true, false,
                                             r.mask, n),
                          K::Dense);
            }
            EXPECT_EQ(resolveAttnBackend(r.choice, r.hook, false, true,
                                         r.mask, n),
                      K::Dense);
        }
    }
}

/** Inference-only hook serving a fixed mask (the sparse path is legal). */
class MaskOnlyHook : public AttentionHook
{
  public:
    explicit MaskOnlyHook(Matrix mask) : mask_(std::move(mask)) {}
    void beginLayer(size_t, const Matrix &) override {}
    Matrix selectMask(size_t, size_t, bool) override { return mask_; }
    void observeScores(size_t, size_t, const Matrix &) override {}
    Matrix scoreGradient(size_t, size_t) override { return {}; }
    bool wantsFullScores() const override { return false; }

  private:
    Matrix mask_;
};

TEST(AttnBackend, SparseThroughMultiHeadAttention)
{
    Rng rng(910);
    const size_t n = 40, dim = 32, heads = 4;
    MultiHeadAttention attn("t", 0, dim, heads, rng);
    const Matrix x = Matrix::randomNormal(n, dim, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    MaskOnlyHook hook(topkMask(proxy, 10));
    attn.setHook(&hook);

    attn.setForceDense(true);
    const Matrix dense = attn.forward(x);
    EXPECT_FALSE(attn.lastForwardSparse());
    attn.setForceDense(false);

    // A masking inference hook takes the row kernel under auto and
    // sparse alike, with the forced-dense bits.
    for (AttnChoice choice : {AttnChoice::Auto, AttnChoice::Sparse}) {
        ScopedAttnChoice pin(choice);
        const Matrix sparse = attn.forward(x);
        EXPECT_TRUE(attn.lastForwardSparse());
        ASSERT_EQ(attn.lastBackends().size(), heads);
        for (AttnBackendKind kind : attn.lastBackends())
            EXPECT_EQ(kind, AttnBackendKind::Sparse);
        EXPECT_TRUE(bitIdentical(sparse, dense)) << attnChoiceName(choice);
    }
}

} // namespace
} // namespace dota
