/**
 * @file
 * Property tests for the vectorized kernel layer (DESIGN.md §11):
 *
 *  - every GEMM variant against a naive double-accumulator reference
 *    (tolerance), over random shapes including ragged, single-row and
 *    empty extremes;
 *  - bit-exact equivalence of the portable and AVX2 kernel tables (the
 *    per-element reduction contract in tensor/gemm_kernels.hpp);
 *  - the row attention kernel's stages (sparseScoreRow, the masked
 *    softmax over kept scores, sparseAvRow) on both kernel tables and the
 *    whole kernel against the dense masked computation, bitwise;
 *  - the MultiHeadAttention sparse inference path against its forced
 *    dense path, bitwise.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "nn/attention.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/rows_attention.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/topk.hpp"

namespace dota {
namespace {

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

/** Naive matmul with double accumulation — the accuracy yardstick. */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < a.cols(); ++p)
                acc += static_cast<double>(a(i, p)) *
                       static_cast<double>(b(p, j));
            c(i, j) = static_cast<float>(acc);
        }
    return c;
}

Matrix
naiveMatmulBT(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < a.cols(); ++p)
                acc += static_cast<double>(a(i, p)) *
                       static_cast<double>(b(j, p));
            c(i, j) = static_cast<float>(acc);
        }
    return c;
}

Matrix
naiveMatmulAT(const Matrix &a, const Matrix &b)
{
    Matrix c(a.cols(), b.cols());
    for (size_t i = 0; i < a.cols(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < a.rows(); ++p)
                acc += static_cast<double>(a(p, i)) *
                       static_cast<double>(b(p, j));
            c(i, j) = static_cast<float>(acc);
        }
    return c;
}

/** Relative-tolerance comparison scaled to the reduction depth. */
void
expectClose(const Matrix &got, const Matrix &ref, size_t depth,
            const char *what)
{
    ASSERT_EQ(got.rows(), ref.rows()) << what;
    ASSERT_EQ(got.cols(), ref.cols()) << what;
    const double tol =
        1e-5 * std::sqrt(static_cast<double>(depth) + 1.0);
    for (size_t i = 0; i < got.size(); ++i) {
        const double g = got.data()[i], r = ref.data()[i];
        EXPECT_NEAR(g, r, tol * (1.0 + std::abs(r)))
            << what << " flat index " << i;
    }
}

TEST(SimdKernels, GemmVariantsMatchNaiveReference)
{
    Rng shape_rng(41);
    for (int trial = 0; trial < 16; ++trial) {
        // Ragged shapes spanning the micro-kernel edge cases: below one
        // register tile, non-multiples of 8/16, and tall-skinny.
        const size_t m = 1 + shape_rng.uniformInt(70);
        const size_t k = 1 + shape_rng.uniformInt(70);
        const size_t n = 1 + shape_rng.uniformInt(70);
        Rng data_rng(1000 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        const Matrix bt = Matrix::randomNormal(n, k, data_rng);
        const Matrix at = Matrix::randomNormal(k, m, data_rng);
        expectClose(matmul(a, b), naiveMatmul(a, b), k, "matmul");
        expectClose(matmulBT(a, bt), naiveMatmulBT(a, bt), k, "matmulBT");
        expectClose(matmulAT(at, b), naiveMatmulAT(at, b), k, "matmulAT");
    }
}

TEST(SimdKernels, DegenerateShapes)
{
    Rng rng(42);
    // Single row/column and empty reduction (k = 0) or empty output
    // (m = 0 / n = 0) must all be well-defined.
    const Matrix a1 = Matrix::randomNormal(1, 17, rng);
    const Matrix b1 = Matrix::randomNormal(17, 1, rng);
    expectClose(matmul(a1, b1), naiveMatmul(a1, b1), 17, "1x17x1");

    const Matrix ak0(5, 0);
    const Matrix bk0(0, 7);
    const Matrix ck0 = matmul(ak0, bk0);
    ASSERT_EQ(ck0.rows(), 5u);
    ASSERT_EQ(ck0.cols(), 7u);
    for (size_t i = 0; i < ck0.size(); ++i)
        EXPECT_EQ(ck0.data()[i], 0.0f);

    const Matrix am0(0, 9);
    const Matrix bm0 = Matrix::randomNormal(9, 4, rng);
    EXPECT_EQ(matmul(am0, bm0).rows(), 0u);
    EXPECT_EQ(matmulBT(am0, Matrix::randomNormal(6, 9, rng)).rows(), 0u);
}

TEST(SimdKernels, PortableAndAvx2TablesBitIdentical)
{
    const GemmKernelTable &portable = detail::portableGemmKernels();
    const GemmKernelTable &avx2 = gemmKernels(SimdIsa::Avx2);
    if (&portable == &avx2)
        GTEST_SKIP() << "AVX2 table unavailable on this build/machine";

    Rng shape_rng(43);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t m = 1 + shape_rng.uniformInt(53);
        const size_t k = 1 + shape_rng.uniformInt(53);
        const size_t n = 1 + shape_rng.uniformInt(53);
        Rng data_rng(2000 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        const Matrix bt = Matrix::randomNormal(n, k, data_rng);

        Matrix c_p(m, n), c_v(m, n);
        portable.matmulRows(a, b, c_p, 0, m);
        avx2.matmulRows(a, b, c_v, 0, m);
        EXPECT_TRUE(bitIdentical(c_p, c_v))
            << "matmulRows " << m << "x" << k << "x" << n;

        Matrix d_p(m, n), d_v(m, n);
        portable.matmulBTRows(a, bt, d_p, 0, m);
        avx2.matmulBTRows(a, bt, d_v, 0, m);
        EXPECT_TRUE(bitIdentical(d_p, d_v))
            << "matmulBTRows " << m << "x" << k << "x" << n;

        const Matrix at = Matrix::randomNormal(k, m, data_rng);
        Matrix e_p(m, n), e_v(m, n);
        portable.matmulATRows(at, b, e_p, 0, m);
        avx2.matmulATRows(at, b, e_v, 0, m);
        EXPECT_TRUE(bitIdentical(e_p, e_v))
            << "matmulATRows " << m << "x" << k << "x" << n;

        // One query row against every key row of bt, descending ids:
        // the 4-key tiles, the tail, and the matmulBT elements.
        std::vector<uint32_t> ids(n);
        for (size_t j = 0; j < n; ++j)
            ids[j] = static_cast<uint32_t>(n - 1 - j);
        std::vector<float> s_p(n), s_v(n);
        portable.sparseScoreRow(a.row(0), bt.data(), k, k, ids.data(), n,
                                s_p.data());
        avx2.sparseScoreRow(a.row(0), bt.data(), k, k, ids.data(), n,
                            s_v.data());
        EXPECT_EQ(s_p, s_v) << "sparseScoreRow " << k << "x" << n;
        for (size_t j = 0; j < n; ++j)
            EXPECT_EQ(s_p[j], d_p(0, ids[j])) << "key " << ids[j];
    }
}

/** The portable kernel table, plus AVX2 when built and usable. */
std::vector<const GemmKernelTable *>
kernelTables()
{
    const GemmKernelTable *portable = &detail::portableGemmKernels();
    const GemmKernelTable *avx2 = &gemmKernels(SimdIsa::Avx2);
    if (avx2 == portable)
        return {portable};
    return {portable, avx2};
}

TEST(SimdKernels, SparseScoresMatchDenseAtKeptCoordinates)
{
    Rng rng(44);
    for (size_t n : {5u, 33u, 64u}) {
        const size_t d = 24;
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(n, d, rng);
        const Matrix proxy = Matrix::randomNormal(n, n, rng);
        const SparseMask mask =
            SparseMask::fromDense(topkMask(proxy, std::max<size_t>(1, n / 4)));
        const Matrix dense = matmulBT(q, k);
        for (const GemmKernelTable *kt : kernelTables()) {
            std::vector<float> s(n);
            for (size_t r = 0; r < n; ++r) {
                const std::vector<uint32_t> &ids = mask.row(r);
                kt->sparseScoreRow(q.row(r), k.data(), d, d, ids.data(),
                                   ids.size(), s.data());
                for (size_t t = 0; t < ids.size(); ++t)
                    EXPECT_EQ(s[t], dense(r, ids[t]))
                        << "row " << r << " col " << ids[t];
            }
        }
    }
}

/**
 * The row kernel's softmax step over @p mask's kept scores: each row's
 * kept entries of @p scores gathered, scaled once and soft-maxed in
 * place, then scattered back (zeros elsewhere).
 */
Matrix
keptRowSoftmax(const Matrix &scores, const SparseMask &mask, float sc)
{
    Matrix p(scores.rows(), scores.cols());
    std::vector<float> row;
    for (size_t r = 0; r < scores.rows(); ++r) {
        const std::vector<uint32_t> &ids = mask.row(r);
        row.resize(ids.size());
        for (size_t t = 0; t < ids.size(); ++t)
            row[t] = scores(r, ids[t]) * sc;
        softmaxInPlace(row.data(), row.size());
        for (size_t t = 0; t < ids.size(); ++t)
            p(r, ids[t]) = row[t];
    }
    return p;
}

TEST(SimdKernels, MaskedSoftmaxMatchesDenseIncludingEmptyRows)
{
    Rng rng(45);
    const size_t n = 29;
    const Matrix scores = Matrix::randomNormal(n, n, rng);
    Matrix dense_mask = topkMask(scores, 6);
    // Force one fully-omitted row: the dense path yields an all-zero
    // probability row there, the kept-score softmax an empty one.
    for (size_t c = 0; c < n; ++c)
        dense_mask(3, c) = 0.0f;
    const SparseMask mask = SparseMask::fromDense(dense_mask);
    const float sc = 0.125f;

    const Matrix ref = rowSoftmaxMasked(scale(scores, sc), dense_mask);
    EXPECT_TRUE(bitIdentical(keptRowSoftmax(scores, mask, sc), ref));
    for (size_t c = 0; c < n; ++c)
        EXPECT_EQ(ref(3, c), 0.0f);
}

TEST(SimdKernels, MaskedSoftmaxOnFullMaskMatchesRowSoftmax)
{
    Rng rng(46);
    const size_t n = 21;
    const Matrix scores = Matrix::randomNormal(n, n, rng);
    Matrix full(n, n);
    for (size_t i = 0; i < full.size(); ++i)
        full.data()[i] = 1.0f;
    const float sc = 0.25f;
    const SparseMask mask = SparseMask::fromDense(full);
    EXPECT_TRUE(bitIdentical(keptRowSoftmax(scores, mask, sc),
                             rowSoftmax(scale(scores, sc))));
}

TEST(SimdKernels, SparseAvMatchesDenseMatmul)
{
    Rng rng(47);
    const size_t n = 37, d = 19;
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    const SparseMask mask = SparseMask::fromDense(topkMask(proxy, 9));
    const Matrix v = Matrix::randomNormal(n, d, rng);

    // Positive kept values (softmax-like) with zeros elsewhere in the
    // dense twin: the sparse kernel skips exactly the zero terms, so the
    // results are bitwise equal.
    std::vector<std::vector<float>> vals(n);
    Matrix a_dense(n, n);
    Rng val_rng(48);
    for (size_t r = 0; r < n; ++r)
        for (uint32_t c : mask.row(r)) {
            const float x =
                0.05f + std::abs(static_cast<float>(val_rng.normal()));
            vals[r].push_back(x);
            a_dense(r, c) = x;
        }
    const Matrix ref = matmul(a_dense, v);
    for (const GemmKernelTable *kt : kernelTables()) {
        Matrix out(n, d);
        for (size_t r = 0; r < n; ++r)
            kt->sparseAvRow(vals[r].data(), mask.row(r).data(),
                            mask.row(r).size(), v.data(), d, d, out.row(r));
        EXPECT_TRUE(bitIdentical(out, ref));
    }
}

TEST(SimdKernels, SparseMaskedAttentionMatchesDenseMaskedPath)
{
    Rng rng(49);
    for (size_t n : {16u, 57u}) {
        const size_t d = 16;
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(n, d, rng);
        const Matrix v = Matrix::randomNormal(n, d, rng);
        const Matrix proxy = Matrix::randomNormal(n, n, rng);
        const Matrix dense_mask =
            topkMask(proxy, std::max<size_t>(1, n / 4));
        const SparseMask mask = SparseMask::fromDense(dense_mask);
        const float sc = 1.0f / std::sqrt(static_cast<float>(d));

        const Matrix sparse = rowsAttention(q, k, v, &mask, false, sc);
        const Matrix dense = matmul(
            rowSoftmaxMasked(scale(matmulBT(q, k), sc), dense_mask), v);
        EXPECT_TRUE(bitIdentical(sparse, dense)) << "n=" << n;
    }
}

/** Inference-only hook serving a fixed mask (sparse path permitted). */
class FixedMaskHook : public AttentionHook
{
  public:
    explicit FixedMaskHook(Matrix mask) : mask_(std::move(mask)) {}
    void beginLayer(size_t, const Matrix &) override {}
    Matrix selectMask(size_t, size_t, bool) override { return mask_; }
    void observeScores(size_t, size_t, const Matrix &) override
    {
        ++observe_calls;
    }
    Matrix scoreGradient(size_t, size_t) override { return {}; }
    bool wantsFullScores() const override { return false; }

    int observe_calls = 0;

  private:
    Matrix mask_;
};

TEST(SimdKernels, AttentionSparsePathBitIdenticalToForcedDense)
{
    Rng rng(50);
    const size_t n = 40, dim = 32, heads = 4;
    MultiHeadAttention attn("t", 0, dim, heads, rng);
    const Matrix x = Matrix::randomNormal(n, dim, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    FixedMaskHook hook(topkMask(proxy, 10));
    attn.setHook(&hook);

    attn.setForceDense(true);
    const Matrix dense = attn.forward(x);
    ASSERT_EQ(attn.lastBackends().size(), heads);
    for (AttnBackendKind kind : attn.lastBackends())
        EXPECT_EQ(kind, AttnBackendKind::Dense);
    const int observe_dense = hook.observe_calls;
    EXPECT_EQ(observe_dense, static_cast<int>(heads));

    // A masking inference hook takes every head to the row kernel...
    attn.setForceDense(false);
    const Matrix sparse = attn.forward(x);
    ASSERT_EQ(attn.lastBackends().size(), heads);
    for (AttnBackendKind kind : attn.lastBackends())
        EXPECT_EQ(kind, AttnBackendKind::Sparse);
    // ...observeScores is skipped there...
    EXPECT_EQ(hook.observe_calls, observe_dense);
    // ...the score/probability caches stay empty...
    for (size_t h = 0; h < heads; ++h) {
        EXPECT_TRUE(attn.lastScores()[h].empty());
        EXPECT_TRUE(attn.lastAttention()[h].empty());
        EXPECT_FALSE(attn.lastMasks()[h].empty());
    }
    // ...and the output is bitwise the dense masked result.
    EXPECT_TRUE(bitIdentical(sparse, dense));
}

} // namespace
} // namespace dota
