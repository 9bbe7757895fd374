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
 *  - the elementwise family (the softmax exp, GELU and its backward):
 *    per-element purity at every length and offset, and the stated
 *    error bounds against double-precision references;
 *  - the MultiHeadAttention sparse inference path against its forced
 *    dense path, bitwise.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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

/**
 * Every @p stride-th float by bit pattern in [-lim, lim] (both signs),
 * then the special values: ±0, ±inf, NaN, denormals, ±FLT_MAX, and the
 * exp kernel's two range thresholds with their neighbours.
 */
std::vector<float>
elementwiseInputs(float lim, uint32_t stride)
{
    std::vector<float> x;
    for (uint32_t u = 0; u <= std::bit_cast<uint32_t>(lim); u += stride) {
        x.push_back(std::bit_cast<float>(u));
        x.push_back(-std::bit_cast<float>(u));
    }
    const float inf = std::numeric_limits<float>::infinity();
    const float big = std::numeric_limits<float>::max();
    const float tiny = std::numeric_limits<float>::denorm_min();
    for (float v : {0.0f, -0.0f, inf, -inf,
                    std::numeric_limits<float>::quiet_NaN(), tiny, -tiny,
                    1e-40f, -1e-40f, big, -big})
        x.push_back(v);
    for (float t : {88.72283172607421875f, -87.33654022216796875f})
        for (float v : {std::nextafter(t, -inf), t, std::nextafter(t, inf)})
            x.push_back(v);
    return x;
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

    // The elementwise family on ~1.1M floats over [-12, 12] plus the
    // special values; the exp also over [64, 88] and [-88, -64] by
    // shifting. NaN outputs must match in their bits too.
    const std::vector<float> x = elementwiseInputs(12.0f, 2048);
    ASSERT_GE(x.size(), 1000000u);
    std::vector<float> dy(x.size());
    Rng dy_rng(2100);
    for (float &v : dy)
        v = static_cast<float>(dy_rng.normal());
    const size_t bytes = x.size() * sizeof(float);
    std::vector<float> o_p(x.size()), o_v(x.size());
    for (float shift : {0.0f, -76.0f, 76.0f}) {
        portable.expRow(x.data(), shift, x.size(), o_p.data());
        avx2.expRow(x.data(), shift, x.size(), o_v.data());
        EXPECT_EQ(std::memcmp(o_p.data(), o_v.data(), bytes), 0)
            << "expRow, shift " << shift;
    }
    portable.geluRow(x.data(), x.size(), o_p.data());
    avx2.geluRow(x.data(), x.size(), o_v.data());
    EXPECT_EQ(std::memcmp(o_p.data(), o_v.data(), bytes), 0) << "geluRow";
    portable.geluBackwardRow(x.data(), dy.data(), x.size(), o_p.data());
    avx2.geluBackwardRow(x.data(), dy.data(), x.size(), o_v.data());
    EXPECT_EQ(std::memcmp(o_p.data(), o_v.data(), bytes), 0)
        << "geluBackwardRow";
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

TEST(SimdKernels, ElementwiseOutputDependsOnItsInputAlone)
{
    // Every run length 0..17 at every offset 0..7, against one call per
    // element: the vector body and the tail give each element the same
    // bits, wherever it sits.
    Rng rng(2200);
    std::vector<float> x(32), dy(32);
    for (size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(4.0 * rng.normal());
        dy[i] = static_cast<float>(rng.normal());
    }
    x[5] = std::numeric_limits<float>::quiet_NaN();
    x[11] = -std::numeric_limits<float>::infinity();
    x[12] = 100.0f;
    const float shift = 0.75f;
    for (const GemmKernelTable *kt : kernelTables()) {
        std::vector<float> e1(x.size()), g1(x.size()), d1(x.size());
        for (size_t i = 0; i < x.size(); ++i) {
            kt->expRow(&x[i], shift, 1, &e1[i]);
            kt->geluRow(&x[i], 1, &g1[i]);
            kt->geluBackwardRow(&x[i], &dy[i], 1, &d1[i]);
        }
        for (size_t off = 0; off < 8; ++off)
            for (size_t len = 0; len <= 17; ++len) {
                std::vector<float> e(len), g(len), d(len);
                kt->expRow(&x[off], shift, len, e.data());
                kt->geluRow(&x[off], len, g.data());
                kt->geluBackwardRow(&x[off], &dy[off], len, d.data());
                for (size_t i = 0; i < len; ++i) {
                    const uint32_t want[3] = {
                        std::bit_cast<uint32_t>(e1[off + i]),
                        std::bit_cast<uint32_t>(g1[off + i]),
                        std::bit_cast<uint32_t>(d1[off + i])};
                    const uint32_t got[3] = {std::bit_cast<uint32_t>(e[i]),
                                             std::bit_cast<uint32_t>(g[i]),
                                             std::bit_cast<uint32_t>(d[i])};
                    for (int f = 0; f < 3; ++f)
                        EXPECT_EQ(got[f], want[f])
                            << "kernel " << f << " offset " << off
                            << " length " << len << " element " << i;
                }
            }
        // In place (the softmax's use) gives the same bits.
        std::vector<float> inplace = x;
        kt->expRow(inplace.data(), shift, inplace.size(), inplace.data());
        for (size_t i = 0; i < x.size(); ++i)
            EXPECT_EQ(std::bit_cast<uint32_t>(inplace[i]),
                      std::bit_cast<uint32_t>(e1[i]));
    }
}

TEST(SimdKernels, ExpWithinStatedErrorOnNegativeRange)
{
    // The softmax exp sees x - max <= 0. Relative error <= 8.3e-8 on
    // [-87, 0] (gemm_kernels.hpp), on ~1.1M floats by bit pattern.
    std::vector<float> x;
    for (uint32_t u = 0; u <= std::bit_cast<uint32_t>(87.0f); u += 1024)
        x.push_back(-std::bit_cast<float>(u));
    ASSERT_GE(x.size(), 1000000u);
    std::vector<float> y(x.size());
    for (const GemmKernelTable *kt : kernelTables()) {
        kt->expRow(x.data(), 0.0f, x.size(), y.data());
        double worst = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            const double ref = std::exp(static_cast<double>(x[i]));
            worst = std::max(worst, std::abs(y[i] - ref) / ref);
        }
        EXPECT_LE(worst, 8.3e-8);
    }
}

TEST(SimdKernels, GeluWithinStatedErrorOfTanhForm)
{
    // Against 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))) in double:
    // relative error <= 1e-6 for x >= -3 (normal results) and absolute
    // error <= 1e-6 for every finite x (ops.hpp).
    std::vector<float> x = elementwiseInputs(12.0f, 2048);
    for (float m = 12.0f; m < 3e38f; m *= 1.7f) {
        x.push_back(m);
        x.push_back(-m);
    }
    std::vector<float> y(x.size());
    const double c = std::sqrt(2.0 / 3.14159265358979323846);
    for (const GemmKernelTable *kt : kernelTables()) {
        kt->geluRow(x.data(), x.size(), y.data());
        double worst_rel = 0.0, worst_abs = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            if (!std::isfinite(x[i]))
                continue;
            const double v = x[i];
            const double ref =
                0.5 * v * (1.0 + std::tanh(c * (v + 0.044715 * v * v * v)));
            const double err = std::abs(y[i] - ref);
            worst_abs = std::max(worst_abs, err);
            if (v >= -3.0 &&
                std::abs(ref) >= std::numeric_limits<float>::min())
                worst_rel = std::max(worst_rel, err / std::abs(ref));
        }
        EXPECT_LE(worst_rel, 1e-6);
        EXPECT_LE(worst_abs, 1e-6);
    }
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

/** Same length and the same bits in every element. */
bool
sameFloatBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SimdKernels, KeysTScoreRowMatchesSparseScoreRow)
{
    // Scores of a contiguous key prefix against K~ transposed equal the
    // dot family's bits (sparseScoreRow, matmulBT) key by key on every
    // table, and no score is written past out[m). ldt == m reads the
    // last vector of each row through the masked tail.
    Rng rng(2300);
    const std::vector<const GemmKernelTable *> tables = kernelTables();
    std::vector<size_t> counts;
    for (size_t m = 0; m <= 17; ++m)
        counts.push_back(m);
    counts.push_back(2048);
    for (size_t k : {1u, 7u, 8u, 9u, 16u, 17u, 33u}) {
        const Matrix q = Matrix::randomNormal(1, k, rng);
        const Matrix keys = Matrix::randomNormal(2048, k, rng);
        const Matrix wide = transpose(keys);
        std::vector<uint32_t> ids(2048);
        for (size_t j = 0; j < ids.size(); ++j)
            ids[j] = static_cast<uint32_t>(j);
        for (size_t m : counts) {
            const Matrix tight =
                transpose(Matrix(m, k, std::vector<float>(
                                           keys.data(), keys.data() + m * k)));
            std::vector<float> first;
            for (const GemmKernelTable *kt : tables) {
                std::vector<float> want(m);
                kt->sparseScoreRow(q.row(0), keys.data(), k, k, ids.data(), m,
                                   want.data());
                for (const Matrix *t : {&wide, &tight}) {
                    const float kSentinel = -1234.5f;
                    std::vector<float> got(m + 9, kSentinel);
                    kt->keysTScoreRow(q.row(0), t->data(), t->cols(), k, m,
                                      got.data());
                    for (size_t j = m; j < got.size(); ++j)
                        ASSERT_EQ(got[j], kSentinel) << "k=" << k << " m=" << m;
                    got.resize(m);
                    ASSERT_TRUE(sameFloatBits(got, want))
                        << "k=" << k << " m=" << m << " ldt=" << t->cols();
                }
                if (kt == tables.front())
                    first = want;
                ASSERT_TRUE(sameFloatBits(first, want))
                    << "tables differ, k=" << k << " m=" << m;
            }
        }
    }
}

TEST(SimdKernels, TopkSweepsIdenticalOnBothTables)
{
    // The keys, histogram, range and packed ids of the top-k sweeps are
    // the same on every table, at every length around the vector width,
    // and no pack writes past out[limit).
    Rng rng(2400);
    const std::vector<const GemmKernelTable *> tables = kernelTables();
    std::vector<size_t> lengths = {2048, 2049};
    for (size_t n = 1; n <= 40; ++n)
        lengths.push_back(n);
    constexpr uint32_t kSentinel = 0xdeadbeefu;
    for (size_t n : lengths) {
        std::vector<float> x(n);
        for (float &v : x) {
            const uint64_t u = rng.uniformInt(16);
            v = u == 0   ? std::numeric_limits<float>::quiet_NaN()
                : u == 1 ? -std::numeric_limits<float>::infinity()
                : u == 2 ? -0.0f
                         : std::round(static_cast<float>(rng.normal()) * 2.0f);
        }
        std::vector<std::vector<int32_t>> keys;
        std::vector<std::vector<uint32_t>> hists;
        std::vector<std::vector<uint32_t>> packs;
        for (const GemmKernelTable *kt : tables) {
            std::vector<int32_t> kk(n);
            std::vector<uint32_t> hist(kTopkBins, 0u);
            const TopkKeyRange r =
                kt->topkKeysRow(x.data(), n, kk.data(), hist.data());
            for (size_t j = 0; j < n; ++j)
                ASSERT_EQ(kk[j], topkOrderKey(x[j])) << "n=" << n;
            EXPECT_EQ(r.lo, *std::min_element(kk.begin(), kk.end()));
            EXPECT_EQ(r.hi, *std::max_element(kk.begin(), kk.end()));
            std::vector<uint32_t> all;
            const int32_t mid = kk[n / 2];
            const int32_t lim = std::numeric_limits<int32_t>::max();
            const size_t half = n / 2;
            const int32_t thrs[][2] = {{mid, lim}, {mid, mid + 4}, {r.lo, lim}};
            for (const auto &th : thrs)
                for (size_t ties : {size_t{0}, size_t{1}, size_t{3}, SIZE_MAX})
                    for (size_t limit : {size_t{1}, size_t{7}, half, n}) {
                        std::vector<uint32_t> out(limit + 9, kSentinel);
                        const size_t c = kt->topkPackRow(
                            kk.data(), n, th[0], th[1], ties, limit,
                            out.data());
                        ASSERT_LE(c, limit);
                        for (size_t j = c; j < out.size(); ++j)
                            ASSERT_EQ(out[j], j < limit ? out[j] : kSentinel)
                                << "write past out[limit) n=" << n;
                        all.push_back(static_cast<uint32_t>(c));
                        all.insert(all.end(), out.begin(), out.begin() + c);
                    }
            keys.push_back(kk);
            hists.push_back(hist);
            packs.push_back(all);
        }
        for (size_t t = 1; t < tables.size(); ++t) {
            EXPECT_EQ(keys[t], keys[0]) << "n=" << n;
            EXPECT_EQ(hists[t], hists[0]) << "n=" << n;
            EXPECT_EQ(packs[t], packs[0]) << "n=" << n;
        }
    }
}

TEST(SimdKernels, SoftmaxWithZeroMaximumKeepsItsBits)
{
    // maxRow may return +0 or -0 when a row's maximum is a zero; expRow
    // takes x - max, which then differs only for x = -0, and
    // exp(+-0) = 1, so softmaxInPlace gives the bits of the
    // std::max-fold softmax on every table. NaNs are skipped by the max
    // as std::max skips them.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<const GemmKernelTable *> tables = kernelTables();
    Rng rng(2500);
    for (size_t n = 1; n <= 40; ++n) {
        for (int pattern = 0; pattern < 4; ++pattern) {
            std::vector<float> x(n);
            for (size_t j = 0; j < n; ++j)
                x[j] = -1.0f - static_cast<float>(rng.uniformInt(100)) / 16.0f;
            // Both zeros in both orders, at the front, the back and the
            // last vector's tail, with NaNs among them.
            x[pattern % 2 ? n - 1 : 0] = pattern < 2 ? -0.0f : 0.0f;
            x[(pattern % 2 ? 0 : n - 1) % n] = pattern < 2 ? 0.0f : -0.0f;
            x[n / 2] = rng.uniformInt(2) ? -0.0f : 0.0f;
            if (n > 3)
                x[n / 3] = nan;
            float mx = -std::numeric_limits<float>::infinity();
            for (float v : x)
                mx = std::max(mx, v);
            for (const GemmKernelTable *kt : tables)
                EXPECT_EQ(kt->maxRow(x.data(), n), mx) << "n=" << n;
            std::vector<float> want(n);
            detail::portableGemmKernels().expRow(x.data(), mx, n, want.data());
            double denom = 0.0;
            for (float v : want)
                denom += v;
            const float inv = static_cast<float>(1.0 / denom);
            for (float &v : want)
                v *= inv;
            std::vector<float> got = x;
            softmaxInPlace(got.data(), n);
            EXPECT_TRUE(sameFloatBits(got, want))
                << "n=" << n << " pattern " << pattern;
        }
    }
}

} // namespace
} // namespace dota
