/**
 * @file
 * Unit tests for the Matrix type.
 */
#include <gtest/gtest.h>

#include "tensor/matrix.hpp"

namespace dota {
namespace {

TEST(Matrix, ConstructAndFill)
{
    Matrix m(3, 4, 2.0f);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    EXPECT_FLOAT_EQ(m(2, 3), 2.0f);
    m.zero();
    EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(Matrix, FromData)
{
    Matrix m(2, 2, std::vector<float>{1, 2, 3, 4});
    EXPECT_FLOAT_EQ(m(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m(1, 0), 3.0f);
}

TEST(Matrix, RowAccess)
{
    Matrix m(2, 3);
    m(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
    Matrix r = m.rowCopy(1);
    EXPECT_EQ(r.rows(), 1u);
    EXPECT_FLOAT_EQ(r(0, 2), 5.0f);
}

TEST(Matrix, Reshape)
{
    Matrix m(2, 6, 1.0f);
    m.reshape(3, 4);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
}

TEST(Matrix, AppendRows)
{
    Matrix m;
    m.appendRows(Matrix(2, 3, std::vector<float>{1, 2, 3, 4, 5, 6}));
    m.appendRows(Matrix(1, 3, 7.0f));
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_FLOAT_EQ(m(1, 2), 6.0f);
    EXPECT_FLOAT_EQ(m(2, 0), 7.0f);
    m.appendRows(Matrix(0, 3));
    EXPECT_EQ(m.rows(), 3u);
}

TEST(Matrix, Identity)
{
    Matrix id = Matrix::identity(3);
    EXPECT_FLOAT_EQ(id(1, 1), 1.0f);
    EXPECT_FLOAT_EQ(id(0, 1), 0.0f);
    EXPECT_DOUBLE_EQ(id.sum(), 3.0);
}

TEST(Matrix, RandomNormalMoments)
{
    Rng rng(5);
    Matrix m = Matrix::randomNormal(100, 100, rng, 1.0f, 2.0f);
    double mean = m.sum() / m.size();
    EXPECT_NEAR(mean, 1.0, 0.1);
}

TEST(Matrix, RandomUniformRange)
{
    Rng rng(5);
    Matrix m = Matrix::randomUniform(50, 50, rng, -2.0f, 3.0f);
    for (size_t i = 0; i < m.size(); ++i) {
        EXPECT_GE(m.data()[i], -2.0f);
        EXPECT_LT(m.data()[i], 3.0f);
    }
}

TEST(Matrix, XavierBounds)
{
    Rng rng(5);
    Matrix m = Matrix::xavier(64, 64, rng);
    const float limit = std::sqrt(6.0f / 128.0f);
    for (size_t i = 0; i < m.size(); ++i)
        EXPECT_LE(std::abs(m.data()[i]), limit);
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix m(1, 2, std::vector<float>{3, 4});
    EXPECT_DOUBLE_EQ(m.frobeniusNorm(), 5.0);
}

TEST(Matrix, AllCloseAndMaxDiff)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
    EXPECT_TRUE(Matrix::allClose(a, b));
    b(1, 1) = 1.01f;
    EXPECT_NEAR(Matrix::maxAbsDiff(a, b), 0.01, 1e-6);
    EXPECT_FALSE(Matrix::allClose(a, b, 1e-5));
    EXPECT_FALSE(Matrix::allClose(a, Matrix(2, 3)));
}

TEST(Matrix, ShapeStr)
{
    EXPECT_EQ(Matrix(3, 7).shapeStr(), "Matrix(3x7)");
}

} // namespace
} // namespace dota
