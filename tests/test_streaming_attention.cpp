/**
 * @file
 * Tests of the tiled streaming (online-softmax) attention kernel and
 * the pluggable backend layer (DESIGN.md §13): tolerance agreement
 * with the dense reference (the streaming recurrence reassociates the
 * softmax, so bit-identity to dense is NOT promised — these pins hold
 * the divergence at float-rounding scale), DOTA-mask composition,
 * tile-boundary and empty-row edge cases, the 1-vs-8-thread bit-
 * identity contract, the single-query decode variant, and the
 * resolveAttnBackend dispatch table.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/attention.hpp"
#include "nn/attention_backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/streaming_attention.hpp"
#include "tensor/topk.hpp"
#include "common/thread_pool.hpp"

namespace dota {
namespace {

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

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/** Dense single-pass reference: softmax(scale * Q K^T [, mask]) V. */
Matrix
denseRef(const Matrix &q, const Matrix &k, const Matrix &v, float sc,
         const Matrix *mask = nullptr)
{
    const Matrix s = scale(matmulBT(q, k), sc);
    const Matrix a = mask ? rowSoftmaxMasked(s, *mask) : rowSoftmax(s);
    return matmul(a, v);
}

Matrix
causalOnes(size_t n)
{
    Matrix m(n, n);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c <= r; ++c)
            m(r, c) = 1.0f;
    return m;
}

float
attnScale(size_t d)
{
    return 1.0f / std::sqrt(static_cast<float>(d));
}

TEST(StreamingAttention, MatchesDenseUnmasked)
{
    Rng rng(901);
    const size_t n = 37, d = 16;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const float sc = attnScale(d);
    // tile = 8 forces several tiles and a ragged last one (37 % 8 != 0).
    const Matrix out =
        streamingAttention(q, k, v, nullptr, false, sc, 8);
    EXPECT_TRUE(Matrix::allClose(out, denseRef(q, k, v, sc), 1e-5f));
}

TEST(StreamingAttention, MatchesDenseCausal)
{
    Rng rng(902);
    const size_t n = 33, d = 8;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const float sc = attnScale(d);
    const Matrix out = streamingAttention(q, k, v, nullptr, true, sc, 8);
    const Matrix mask = causalOnes(n);
    EXPECT_TRUE(
        Matrix::allClose(out, denseRef(q, k, v, sc, &mask), 1e-5f));
}

TEST(StreamingAttention, ComposesWithDotaMask)
{
    Rng rng(903);
    const size_t n = 48, d = 16;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    const Matrix dense_mask = topkMask(proxy, 12);
    const SparseMask mask = SparseMask::fromDense(dense_mask);
    const float sc = attnScale(d);

    const Matrix out = streamingAttention(q, k, v, &mask, false, sc, 8);
    // Same kept coordinates as the CSR sparse-rows path.
    EXPECT_TRUE(Matrix::allClose(
        out, sparseMaskedAttention(q, k, v, mask, sc), 1e-5f));
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

    const Matrix out =
        streamingAttention(q, k, v, &mask, false, attnScale(d), 4);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < d; ++c) {
            if (r % 3 == 0)
                EXPECT_EQ(out(r, c), 0.0f) << "row " << r;
            else
                EXPECT_TRUE(std::isfinite(out(r, c)));
        }
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

    // 100% retention walks exactly the same tile/column sequence as the
    // unmasked path, so the fold is bit-identical, not just close.
    const Matrix masked = streamingAttention(q, k, v, &full, false, sc, 8);
    const Matrix plain = streamingAttention(q, k, v, nullptr, false, sc, 8);
    EXPECT_TRUE(bitIdentical(masked, plain));
}

TEST(StreamingAttention, TileBoundaryShapes)
{
    Rng rng(906);
    const size_t d = 8;
    const size_t tile = 4;
    for (size_t n : {size_t(1), size_t(3), tile, tile + 1, 2 * tile,
                     2 * tile + 3}) {
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(n, d, rng);
        const Matrix v = Matrix::randomNormal(n, d, rng);
        const float sc = attnScale(d);
        for (bool causal : {false, true}) {
            const Matrix out =
                streamingAttention(q, k, v, nullptr, causal, sc, tile);
            const Matrix cm = causalOnes(n);
            const Matrix ref =
                denseRef(q, k, v, sc, causal ? &cm : nullptr);
            EXPECT_TRUE(Matrix::allClose(out, ref, 1e-5f))
                << "n=" << n << " causal=" << causal;
        }
    }
}

TEST(StreamingAttention, BitIdenticalAcrossThreadCounts)
{
    Rng rng(907);
    // Big enough to clear the parallel-crossover MAC threshold.
    const size_t n = 256, d = 32;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    const SparseMask mask = SparseMask::fromDense(topkMask(proxy, 48));
    const float sc = attnScale(d);

    Matrix serial_plain, serial_masked;
    {
        ScopedThreads serial(1);
        serial_plain = streamingAttention(q, k, v, nullptr, true, sc);
        serial_masked = streamingAttention(q, k, v, &mask, false, sc);
    }
    ScopedThreads parallel(8);
    const Matrix par_plain = streamingAttention(q, k, v, nullptr, true, sc);
    const Matrix par_masked = streamingAttention(q, k, v, &mask, false, sc);
    EXPECT_TRUE(bitIdentical(serial_plain, par_plain));
    EXPECT_TRUE(bitIdentical(serial_masked, par_masked));
}

TEST(StreamingAttention, QueryVariantMatchesDenseRow)
{
    Rng rng(908);
    const size_t t = 100, dh = 16;
    const Matrix q = Matrix::randomNormal(1, dh, rng);
    const Matrix k = Matrix::randomNormal(t, dh, rng);
    const Matrix v = Matrix::randomNormal(t, dh, rng);
    const float sc = attnScale(dh);

    Matrix out(1, dh);
    std::vector<float> probs;
    streamingAttentionQuery(q.row(0), k, v, 0, dh, sc, out.row(0),
                            &probs, 16);
    EXPECT_TRUE(Matrix::allClose(out, denseRef(q, k, v, sc), 1e-5f));

    // Probabilities: full softmax row, sums to ~1.
    const Matrix a = rowSoftmax(scale(matmulBT(q, k), sc));
    ASSERT_EQ(probs.size(), t);
    double sum = 0.0;
    for (size_t j = 0; j < t; ++j) {
        EXPECT_NEAR(probs[j], a(0, j), 1e-6) << "key " << j;
        sum += probs[j];
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
}

TEST(StreamingAttention, QueryVariantHandlesHeadSlices)
{
    // KV rows are 2 * dh wide; the second head lives at offset dh.
    Rng rng(909);
    const size_t t = 23, dh = 8;
    const Matrix qfull = Matrix::randomNormal(1, 2 * dh, rng);
    const Matrix kfull = Matrix::randomNormal(t, 2 * dh, rng);
    const Matrix vfull = Matrix::randomNormal(t, 2 * dh, rng);
    const float sc = attnScale(dh);

    Matrix qh(1, dh), kh(t, dh), vh(t, dh);
    for (size_t j = 0; j < dh; ++j)
        qh(0, j) = qfull(0, dh + j);
    for (size_t i = 0; i < t; ++i)
        for (size_t j = 0; j < dh; ++j) {
            kh(i, j) = kfull(i, dh + j);
            vh(i, j) = vfull(i, dh + j);
        }

    Matrix out(1, 2 * dh);
    streamingAttentionQuery(qfull.row(0) + dh, kfull, vfull, dh, dh, sc,
                            out.row(0) + dh, nullptr, 5);
    Matrix sliced(1, dh);
    for (size_t j = 0; j < dh; ++j)
        sliced(0, j) = out(0, dh + j);
    EXPECT_TRUE(
        Matrix::allClose(sliced, denseRef(qh, kh, vh, sc), 1e-5f));
}

TEST(StreamingAttention, ScratchIsTileBoundNotSequenceBound)
{
    // The whole point of the backend: per-thread scratch depends on the
    // tile width and head dim only, never on the sequence length.
    const size_t d = 64, tile = kStreamingAttnTile, threads = 8;
    const size_t bytes = streamingAttnScratchBytes(d, tile, threads);
    EXPECT_EQ(bytes, threads * (tile * 8 + 2 * d * 4));
    EXPECT_LT(bytes, 1u << 20);
}

// ------------------------------------------------------- backend layer

TEST(AttnBackend, ParseAndNames)
{
    AttnChoice c = AttnChoice::Dense;
    EXPECT_TRUE(parseAttnChoice("auto", c));
    EXPECT_EQ(c, AttnChoice::Auto);
    EXPECT_TRUE(parseAttnChoice("streaming", c));
    EXPECT_EQ(c, AttnChoice::Streaming);
    EXPECT_TRUE(parseAttnChoice("dense", c));
    EXPECT_TRUE(parseAttnChoice("sparse", c));
    EXPECT_FALSE(parseAttnChoice("flash", c));
    EXPECT_FALSE(parseAttnChoice("int8", c)); // int8 is a plan, not a backend
    EXPECT_FALSE(parseAttnChoice("", c));

    EXPECT_EQ(attnBackendName(AttnBackendKind::Dense),
              std::string("dense"));
    EXPECT_EQ(attnBackendName(AttnBackendKind::Sparse),
              std::string("sparse"));
    EXPECT_EQ(attnBackendName(AttnBackendKind::Streaming),
              std::string("streaming"));
    for (AttnBackendKind kind :
         {AttnBackendKind::Dense, AttnBackendKind::Sparse,
          AttnBackendKind::Streaming}) {
        EXPECT_EQ(attentionBackend(kind).kind(), kind);
        EXPECT_EQ(attentionBackend(kind).name(), attnBackendName(kind));
    }
}

TEST(AttnBackend, ScopedChoiceRestores)
{
    const AttnChoice before = attnChoice();
    {
        ScopedAttnChoice pin(AttnChoice::Streaming);
        EXPECT_EQ(attnChoice(), AttnChoice::Streaming);
        {
            ScopedAttnChoice inner(AttnChoice::Dense);
            EXPECT_EQ(attnChoice(), AttnChoice::Dense);
        }
        EXPECT_EQ(attnChoice(), AttnChoice::Streaming);
    }
    EXPECT_EQ(attnChoice(), before);
}

TEST(AttnBackend, ResolutionTable)
{
    using K = AttnBackendKind;
    using C = AttnChoice;
    const size_t small_n = 64, big_n = kStreamingAutoSeqLen;

    // Probe-style hooks (wantsFullScores) and forceDense always win.
    EXPECT_EQ(resolveAttnBackend(C::Streaming, true, true, false, true,
                                 big_n),
              K::Dense);
    EXPECT_EQ(resolveAttnBackend(C::Streaming, false, false, true, false,
                                 big_n),
              K::Dense);

    // Auto: hook mask -> sparse; long context -> streaming; else dense.
    EXPECT_EQ(resolveAttnBackend(C::Auto, true, false, false, true,
                                 small_n),
              K::Sparse);
    EXPECT_EQ(resolveAttnBackend(C::Auto, false, false, false, false,
                                 small_n),
              K::Dense);
    EXPECT_EQ(resolveAttnBackend(C::Auto, false, false, false, false,
                                 big_n),
              K::Streaming);
    EXPECT_EQ(resolveAttnBackend(C::Auto, true, false, false, true,
                                 big_n),
              K::Streaming);

    // Explicit dense always honored.
    EXPECT_EQ(resolveAttnBackend(C::Dense, true, false, false, true,
                                 big_n),
              K::Dense);
    // Explicit sparse needs a hook mask to be meaningful.
    EXPECT_EQ(resolveAttnBackend(C::Sparse, true, false, false, true,
                                 small_n),
              K::Sparse);
    EXPECT_EQ(resolveAttnBackend(C::Sparse, false, false, false, false,
                                 small_n),
              K::Dense);
    // Explicit streaming: honored for hooked or long-context forwards;
    // short hookless forwards (training, gradcheck) stay dense.
    EXPECT_EQ(resolveAttnBackend(C::Streaming, true, false, false, false,
                                 small_n),
              K::Streaming);
    EXPECT_EQ(resolveAttnBackend(C::Streaming, false, false, false, false,
                                 big_n),
              K::Streaming);
    EXPECT_EQ(resolveAttnBackend(C::Streaming, false, false, false, false,
                                 small_n),
              K::Dense);
}

/** Inference-only hook serving a fixed mask (non-dense paths legal). */
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

TEST(AttnBackend, StreamingThroughMultiHeadAttention)
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
    attn.setForceDense(false);

    ScopedAttnChoice pin(AttnChoice::Streaming);
    const Matrix streamed = attn.forward(x);
    EXPECT_TRUE(attn.lastForwardSparse());
    ASSERT_EQ(attn.lastBackends().size(), heads);
    for (AttnBackendKind kind : attn.lastBackends())
        EXPECT_EQ(kind, AttnBackendKind::Streaming);
    // Same masked attention, tolerance-level numerics.
    EXPECT_TRUE(Matrix::allClose(streamed, dense, 1e-4f));
    EXPECT_FALSE(bitIdentical(streamed, dense));
}

} // namespace
} // namespace dota
