/**
 * @file
 * Unit tests for the SparseMask representation and edge cases of the
 * row attention kernel that consumes it.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/rows_attention.hpp"
#include "tensor/topk.hpp"

namespace dota {
namespace {

TEST(SparseMask, DenseRoundTrip)
{
    Rng rng(61);
    Matrix scores = Matrix::randomNormal(12, 12, rng);
    const Matrix dense = topkMask(scores, 3);
    const SparseMask sparse = SparseMask::fromDense(dense);
    EXPECT_EQ(sparse.nnz(), 36u);
    EXPECT_TRUE(Matrix::allClose(sparse.toDense(), dense));
}

TEST(SparseMask, SetRowSortsAndDedups)
{
    SparseMask m(2, 10);
    m.setRow(0, {5, 1, 5, 3});
    const auto &row = m.row(0);
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row[0], 1u);
    EXPECT_EQ(row[1], 3u);
    EXPECT_EQ(row[2], 5u);
}

TEST(SparseMask, AddConnectionThenSort)
{
    SparseMask m(1, 8);
    m.addConnection(0, 7);
    m.addConnection(0, 2);
    m.addConnection(0, 7);
    m.sortRows();
    ASSERT_EQ(m.row(0).size(), 2u);
    EXPECT_EQ(m.row(0)[0], 2u);
}

TEST(SparseMask, DensityAndBalance)
{
    SparseMask m(4, 10);
    for (size_t r = 0; r < 4; ++r)
        m.setRow(r, {0, static_cast<uint32_t>(r + 1)});
    EXPECT_DOUBLE_EQ(m.density(), 8.0 / 40.0);
    EXPECT_TRUE(m.rowBalanced());
    m.setRow(3, {1, 2, 3});
    EXPECT_FALSE(m.rowBalanced());
}

TEST(SparseMask, DistinctKeys)
{
    SparseMask m(3, 10);
    m.setRow(0, {1, 2});
    m.setRow(1, {2, 3});
    m.setRow(2, {3, 4});
    EXPECT_EQ(m.distinctKeys(), 4u);
}

TEST(SparseMask, Contains)
{
    SparseMask m(1, 100);
    m.setRow(0, {10, 50, 90});
    EXPECT_TRUE(m.contains(0, 50));
    EXPECT_FALSE(m.contains(0, 51));
}

TEST(SparseMask, EmptyMask)
{
    SparseMask m(5, 5);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_DOUBLE_EQ(m.density(), 0.0);
    EXPECT_TRUE(m.rowBalanced());
    EXPECT_EQ(m.distinctKeys(), 0u);
}

// --------------------------------------------- sparse-kernel edge cases

TEST(SparseKernels, EmptyRowsProduceZeroOutput)
{
    // A row that keeps nothing must yield a zero output row (the
    // all-masked convention of rowSoftmaxMasked), not NaN from 0/0.
    Rng rng(66);
    const size_t n = 9, d = 4;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    SparseMask m(n, n);
    for (size_t r = 0; r < n; ++r)
        if (r != 0 && r != 4)
            m.setRow(r, {static_cast<uint32_t>(r)});

    const Matrix out = rowsAttention(q, k, v, &m, false, 0.5f);
    for (size_t c = 0; c < d; ++c) {
        EXPECT_EQ(out(0, c), 0.0f);
        EXPECT_EQ(out(4, c), 0.0f);
    }
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < d; ++c)
            EXPECT_TRUE(std::isfinite(out(r, c)));
}

TEST(SparseKernels, FullRetentionBitIdenticalToDenseSoftmax)
{
    // 100% retention: the row kernel must reproduce the dense masked
    // softmax bit-for-bit (the kernels share reduction contracts).
    Rng rng(67);
    const size_t n = 12, d = 8;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    SparseMask full(n, n);
    std::vector<uint32_t> all(n);
    for (size_t c = 0; c < n; ++c)
        all[c] = static_cast<uint32_t>(c);
    for (size_t r = 0; r < n; ++r)
        full.setRow(r, all);
    const float sc = 1.0f / std::sqrt(static_cast<float>(d));

    const Matrix sparse = rowsAttention(q, k, v, &full, false, sc);
    const Matrix dense = matmul(
        rowSoftmaxMasked(scale(matmulBT(q, k), sc), full.toDense()), v);
    ASSERT_EQ(sparse.rows(), dense.rows());
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < d; ++c)
            EXPECT_EQ(sparse(r, c), dense(r, c))
                << "(" << r << ", " << c << ")";
}

TEST(SparseKernels, SingleTokenSequence)
{
    // n = 1: one query, one key, softmax over a single kept score.
    Rng rng(68);
    const Matrix q = Matrix::randomNormal(1, 6, rng);
    const Matrix k = Matrix::randomNormal(1, 6, rng);
    const Matrix v = Matrix::randomNormal(1, 6, rng);
    SparseMask m(1, 1);
    m.setRow(0, {0});
    const Matrix out = rowsAttention(q, k, v, &m, false, 1.0f);
    // The lone probability is 1: output == value row.
    for (size_t c = 0; c < 6; ++c)
        EXPECT_NEAR(out(0, c), v(0, c), 1e-6f);
}

TEST(SparseKernels, SingleConnectionPerRowCopiesValues)
{
    // Each row keeps exactly one key: softmax collapses to 1 and the
    // output row must equal that key's value row.
    Rng rng(69);
    const size_t n = 7, d = 5;
    const Matrix q = Matrix::randomNormal(n, d, rng);
    const Matrix k = Matrix::randomNormal(n, d, rng);
    const Matrix v = Matrix::randomNormal(n, d, rng);
    SparseMask m(n, n);
    for (size_t r = 0; r < n; ++r)
        m.setRow(r, {static_cast<uint32_t>((r + 3) % n)});
    const Matrix out = rowsAttention(q, k, v, &m, false, 0.25f);
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < d; ++c)
            EXPECT_NEAR(out(r, c), v((r + 3) % n, c), 1e-6f);
}

} // namespace
} // namespace dota
