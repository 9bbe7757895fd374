/**
 * @file
 * Tests of rowsAttention, the exact row-at-a-time kernel behind the
 * sparse attention path and long contexts (DESIGN.md §13), and of the
 * path selection layer. The kernel replays the dense masked path's
 * per-element operation order, so every comparison with the dense
 * reference here is bitwise: unmasked, causal and DOTA top-k masks,
 * full and empty mask rows, the SIMD micro-tile edges of the score and
 * A*V kernels, more keys than queries (end-aligned causal rows) and
 * heads read in place from strided blocks. Then the resolveAttnBackend
 * table and the sparse path through MultiHeadAttention.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "nn/attention.hpp"
#include "nn/attention_backend.hpp"
#include "tensor/gemm_kernels.hpp"
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

/** Keys [0, cols - rows + r] of every row r: the end-aligned triangle. */
Matrix
causalOnes(size_t rows, size_t cols)
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c <= cols - rows + r; ++c)
            m(r, c) = 1.0f;
    return m;
}

/** Columns [off, off + w) of @p m: one head of an n x d matrix. */
Matrix
headCols(const Matrix &m, size_t off, size_t w)
{
    Matrix out(m.rows(), w);
    for (size_t r = 0; r < m.rows(); ++r)
        std::copy(m.row(r) + off, m.row(r) + off + w, out.row(r));
    return out;
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
    // Square, then more keys than queries, as a block step calls the
    // kernel against its cache. Each head is read in place from the
    // n x d / m x d matrices and written into its columns of Z. Unmasked
    // causal rows see the end-aligned keys [0, m - n + r]; a mask
    // replaces that bound, so `causal` must not change a masked result.
    // The row stages are also replayed on each kernel table.
    Rng rng(903);
    const size_t heads = 3, dh = 16, d = heads * dh;
    const float sc = attnScale(dh);
    const GemmKernelTable *portable = &detail::portableGemmKernels();
    for (const auto &[n, m] : {std::pair<size_t, size_t>{48, 48},
                               std::pair<size_t, size_t>{19, 53}}) {
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(m, d, rng);
        const Matrix v = Matrix::randomNormal(m, d, rng);
        const SparseMask mask = topkProxyMask(n, m, 12, rng);
        const Matrix dense_mask = mask.toDense();
        const Matrix causal_mask = causalOnes(n, m);
        std::vector<uint32_t> all(m);
        std::iota(all.begin(), all.end(), 0u);
        for (const auto &[keep, causal] :
             {std::pair<const SparseMask *, bool>{nullptr, true},
              {&mask, false},
              {&mask, true}}) {
            Matrix z(n, d);
            for (size_t h = 0; h < heads; ++h) {
                const size_t off = h * dh;
                const Matrix ref =
                    denseRef(headCols(q, off, dh), headCols(k, off, dh),
                             headCols(v, off, dh), sc,
                             keep ? &dense_mask : &causal_mask);
                rowsAttention(q, k, v, off, dh, z, keep, causal, sc);
                EXPECT_TRUE(bitIdentical(headCols(z, off, dh), ref))
                    << n << "x" << m << " head " << h
                    << " masked=" << (keep != nullptr)
                    << " causal=" << causal;

                for (const GemmKernelTable *kt :
                     {portable, &gemmKernels(SimdIsa::Avx2)}) {
                    Matrix out(n, dh);
                    std::vector<float> p(m);
                    for (size_t r = 0; r < n; ++r) {
                        const uint32_t *ids =
                            keep ? keep->row(r).data() : all.data();
                        const size_t cnt =
                            keep ? keep->row(r).size() : m - n + r + 1;
                        kt->sparseScoreRow(q.row(r) + off, k.data() + off,
                                           d, dh, ids, cnt, p.data());
                        for (size_t t = 0; t < cnt; ++t)
                            p[t] *= sc;
                        softmaxInPlace(p.data(), cnt);
                        kt->sparseAvRow(p.data(), ids, cnt, v.data() + off,
                                        d, dh, out.row(r));
                    }
                    EXPECT_TRUE(bitIdentical(out, ref))
                        << n << "x" << m << " head " << h
                        << " masked=" << (keep != nullptr)
                        << (kt == portable ? " portable" : " avx2");
                }
            }
        }
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

TEST(AttnBackend, ResolutionTable)
{
    using K = AttnBackendKind;
    const size_t short_n = kLongContextSeqLen - 1, long_n = kLongContextSeqLen;

    // The one rule over capture x masked x n on both sides of the
    // threshold: capturing S/A wins, then a mask or a long context takes
    // the row kernel, and a short unmasked head stays on the GEMMs.
    struct Row
    {
        bool capture, masked;
        size_t n;
        K kind;
    };
    const Row rows[] = {
        {false, false, short_n, K::Dense}, {false, false, long_n, K::Sparse},
        {false, true, short_n, K::Sparse}, {false, true, long_n, K::Sparse},
        {true, false, short_n, K::Dense},  {true, false, long_n, K::Dense},
        {true, true, short_n, K::Dense},   {true, true, long_n, K::Dense},
    };
    for (const Row &r : rows)
        EXPECT_EQ(resolveAttnBackend(r.capture, r.masked, r.n), r.kind)
            << "capture=" << r.capture << " masked=" << r.masked
            << " n=" << r.n;
    // The benchmark's context line names the one policy.
    EXPECT_STREQ(attnChoiceName(attnChoice()), "auto");
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
    ASSERT_EQ(attn.lastBackends().size(), heads);
    for (AttnBackendKind kind : attn.lastBackends())
        EXPECT_EQ(kind, AttnBackendKind::Dense);
    attn.setForceDense(false);

    // A masking inference hook takes the row kernel, with the
    // forced-dense bits.
    const Matrix sparse = attn.forward(x);
    ASSERT_EQ(attn.lastBackends().size(), heads);
    for (AttnBackendKind kind : attn.lastBackends())
        EXPECT_EQ(kind, AttnBackendKind::Sparse);
    EXPECT_TRUE(bitIdentical(sparse, dense));

    // An empty mask ("no omission") or no hook at all keeps a short
    // context on the GEMMs.
    MaskOnlyHook no_omission{Matrix()};
    for (AttentionHook *h : {static_cast<AttentionHook *>(&no_omission),
                             static_cast<AttentionHook *>(nullptr)}) {
        attn.setHook(h);
        attn.forward(x);
        ASSERT_EQ(attn.lastBackends().size(), heads);
        for (AttnBackendKind kind : attn.lastBackends())
            EXPECT_EQ(kind, AttnBackendKind::Dense) << (h ? "empty" : "none");
    }
}

} // namespace
} // namespace dota
