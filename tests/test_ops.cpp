/**
 * @file
 * Unit tests for the dense kernels (forward semantics).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace dota {
namespace {

Matrix
m22(float a, float b, float c, float d)
{
    return Matrix(2, 2, std::vector<float>{a, b, c, d});
}

TEST(Ops, MatmulKnown)
{
    const Matrix a = m22(1, 2, 3, 4);
    const Matrix b = m22(5, 6, 7, 8);
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 50.0f);
}

TEST(Ops, MatmulIdentity)
{
    Rng rng(1);
    const Matrix a = Matrix::randomNormal(5, 5, rng);
    EXPECT_TRUE(Matrix::allClose(matmul(a, Matrix::identity(5)), a));
    EXPECT_TRUE(Matrix::allClose(matmul(Matrix::identity(5), a), a));
}

TEST(Ops, MatmulVariantsAgree)
{
    Rng rng(2);
    const Matrix a = Matrix::randomNormal(4, 6, rng);
    const Matrix b = Matrix::randomNormal(6, 3, rng);
    const Matrix ref = matmul(a, b);
    EXPECT_TRUE(Matrix::allClose(matmulBT(a, transpose(b)), ref, 1e-4));
    EXPECT_TRUE(Matrix::allClose(matmulAT(transpose(a), b), ref, 1e-4));
}

TEST(Ops, TransposeInvolution)
{
    Rng rng(3);
    const Matrix a = Matrix::randomNormal(3, 7, rng);
    EXPECT_TRUE(Matrix::allClose(transpose(transpose(a)), a));
}

TEST(Ops, Elementwise)
{
    const Matrix a = m22(1, 2, 3, 4);
    const Matrix b = m22(5, 6, 7, 8);
    EXPECT_FLOAT_EQ(add(a, b)(1, 1), 12.0f);
    EXPECT_FLOAT_EQ(sub(b, a)(0, 0), 4.0f);
    EXPECT_FLOAT_EQ(hadamard(a, b)(1, 0), 21.0f);
    EXPECT_FLOAT_EQ(scale(a, 0.5f)(0, 1), 1.0f);
}

TEST(Ops, AddRowBroadcast)
{
    const Matrix a = m22(1, 2, 3, 4);
    const Matrix bias(1, 2, std::vector<float>{10, 20});
    const Matrix c = addRowBroadcast(a, bias);
    EXPECT_FLOAT_EQ(c(0, 0), 11.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 24.0f);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(4);
    const Matrix x = Matrix::randomNormal(6, 9, rng, 0.0f, 3.0f);
    const Matrix y = rowSoftmax(x);
    for (size_t r = 0; r < y.rows(); ++r) {
        double sum = 0.0;
        for (size_t c = 0; c < y.cols(); ++c) {
            sum += y(r, c);
            EXPECT_GT(y(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxShiftInvariant)
{
    Rng rng(5);
    const Matrix x = Matrix::randomNormal(3, 5, rng);
    Matrix shifted = x;
    for (size_t i = 0; i < shifted.size(); ++i)
        shifted.data()[i] += 100.0f;
    EXPECT_TRUE(Matrix::allClose(rowSoftmax(x), rowSoftmax(shifted),
                                 1e-5));
}

TEST(Ops, MaskedSoftmaxZeroesOmitted)
{
    const Matrix x(1, 4, std::vector<float>{1, 2, 3, 4});
    Matrix mask(1, 4);
    mask(0, 1) = 1.0f;
    mask(0, 3) = 1.0f;
    const Matrix y = rowSoftmaxMasked(x, mask);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 2), 0.0f);
    EXPECT_NEAR(y(0, 1) + y(0, 3), 1.0, 1e-6);
    // Kept entries renormalize: exp(2)/(exp(2)+exp(4)).
    EXPECT_NEAR(y(0, 1), std::exp(2.0) / (std::exp(2.0) + std::exp(4.0)),
                1e-6);
}

TEST(Ops, MaskedSoftmaxEmptyRowStaysZero)
{
    const Matrix x(2, 3, 1.0f);
    Matrix mask(2, 3);
    mask(0, 0) = 1.0f; // row 1 fully masked
    const Matrix y = rowSoftmaxMasked(x, mask);
    EXPECT_FLOAT_EQ(y(0, 0), 1.0f);
    for (size_t c = 0; c < 3; ++c)
        EXPECT_FLOAT_EQ(y(1, c), 0.0f);
}

TEST(Ops, MaskedSoftmaxFullMaskEqualsDense)
{
    Rng rng(6);
    const Matrix x = Matrix::randomNormal(4, 6, rng);
    const Matrix ones(4, 6, 1.0f);
    EXPECT_TRUE(
        Matrix::allClose(rowSoftmaxMasked(x, ones), rowSoftmax(x), 1e-6));
}

TEST(Ops, ReluAndGelu)
{
    const Matrix x(1, 4, std::vector<float>{-2, -0.5, 0.5, 2});
    const Matrix r = relu(x);
    EXPECT_FLOAT_EQ(r(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(r(0, 3), 2.0f);
    const Matrix g = gelu(x);
    EXPECT_NEAR(g(0, 3), 1.954, 5e-3); // gelu(2)
    EXPECT_NEAR(g(0, 0), -0.0455, 5e-3);
    EXPECT_LT(g(0, 1), 0.0f);
}

TEST(Ops, LayerNormStats)
{
    Rng rng(7);
    const Matrix x = Matrix::randomNormal(5, 32, rng, 3.0f, 2.0f);
    const Matrix gamma(1, 32, 1.0f);
    const Matrix beta(1, 32, 0.0f);
    Matrix mean, rstd;
    const Matrix y = layerNorm(x, gamma, beta, mean, rstd);
    for (size_t r = 0; r < y.rows(); ++r) {
        double mu = 0.0, var = 0.0;
        for (size_t c = 0; c < y.cols(); ++c)
            mu += y(r, c);
        mu /= y.cols();
        for (size_t c = 0; c < y.cols(); ++c)
            var += (y(r, c) - mu) * (y(r, c) - mu);
        var /= y.cols();
        EXPECT_NEAR(mu, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-3);
    }
}

TEST(Ops, LayerNormGammaBeta)
{
    const Matrix x(1, 4, std::vector<float>{1, 2, 3, 4});
    const Matrix gamma(1, 4, 2.0f);
    const Matrix beta(1, 4, 5.0f);
    Matrix mean, rstd;
    const Matrix y = layerNorm(x, gamma, beta, mean, rstd);
    double sum = 0.0;
    for (size_t c = 0; c < 4; ++c)
        sum += y(0, c);
    EXPECT_NEAR(sum / 4.0, 5.0, 1e-5); // beta shifts the mean
}

TEST(Ops, Mse)
{
    const Matrix a(1, 2, std::vector<float>{0, 0});
    const Matrix b(1, 2, std::vector<float>{3, 4});
    EXPECT_DOUBLE_EQ(mse(a, b), 12.5);
}

TEST(Ops, GemmMacs)
{
    EXPECT_EQ(gemmMacs(2, 3, 4), 24u);
}

TEST(Ops, MatmulPropagatesNonFiniteOperands)
{
    // Regression: the scalar kernels used to skip zero multiplicands,
    // silently turning 0 * Inf (= NaN per IEEE 754) into 0. The
    // vectorized kernels must propagate non-finite values faithfully.
    const float inf = std::numeric_limits<float>::infinity();
    const Matrix a(1, 2, std::vector<float>{0.0f, 1.0f});
    const Matrix b(2, 2, std::vector<float>{inf, 2.0f, 3.0f, 4.0f});

    const Matrix c = matmul(a, b); // c00 = 0*Inf + 1*3 -> NaN
    EXPECT_TRUE(std::isnan(c(0, 0)));
    EXPECT_FLOAT_EQ(c(0, 1), 4.0f);

    // Same contract for the A^T variant (and its zero-skip removal).
    const Matrix at(2, 1, std::vector<float>{0.0f, 1.0f});
    const Matrix cat = matmulAT(at, b); // c00 = 0*Inf + 1*3 -> NaN
    EXPECT_TRUE(std::isnan(cat(0, 0)));

    // NaN inputs survive every variant.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Matrix an(1, 2, std::vector<float>{nan, 1.0f});
    EXPECT_TRUE(std::isnan(matmulBT(an, Matrix(1, 2, 1.0f))(0, 0)));
}

/** True when @p v is +0 or -0 with the sign bit @p negative. */
bool
isZero(float v, bool negative)
{
    return v == 0.0f && std::signbit(v) == negative;
}

TEST(Ops, ElementwisePropagatesNonFinite)
{
    // The elementwise kernel family follows std::exp on non-finite
    // input: NaN stays NaN, exp(-inf) = +0, exp(+inf) = +inf, and
    // exp(0) = 1 exactly. GELU keeps the sign of zero, gelu(+inf) =
    // +inf, and gelu(-inf) = -inf / (1 + e^{+inf}) = NaN, as the
    // std::tanh form gave (-inf * 0).
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float big = std::numeric_limits<float>::max();
    const std::vector<float> x = {nan, -inf, inf, 0.0f, -0.0f, -big, big};
    std::vector<const GemmKernelTable *> tables = {
        &detail::portableGemmKernels()};
    if (&gemmKernels(SimdIsa::Avx2) != tables[0])
        tables.push_back(&gemmKernels(SimdIsa::Avx2));
    for (const GemmKernelTable *kt : tables) {
        std::vector<float> e(x.size()), g(x.size()), dg(x.size());
        const std::vector<float> dy(x.size(), 1.0f);
        kt->expRow(x.data(), 0.0f, x.size(), e.data());
        kt->geluRow(x.data(), x.size(), g.data());
        kt->geluBackwardRow(x.data(), dy.data(), x.size(), dg.data());
        EXPECT_TRUE(std::isnan(e[0]));
        EXPECT_TRUE(isZero(e[1], false));
        EXPECT_EQ(e[2], inf);
        EXPECT_EQ(e[3], 1.0f);
        EXPECT_EQ(e[4], 1.0f);
        EXPECT_TRUE(isZero(e[5], false));
        EXPECT_EQ(e[6], inf);

        EXPECT_TRUE(std::isnan(g[0]));
        EXPECT_TRUE(std::isnan(g[1]));
        EXPECT_EQ(g[2], inf);
        EXPECT_TRUE(isZero(g[3], false));
        EXPECT_TRUE(isZero(g[4], true));
        EXPECT_TRUE(isZero(g[5], true)); // gelu(-FLT_MAX) = -0
        EXPECT_EQ(g[6], big);

        EXPECT_TRUE(std::isnan(dg[0]));
        EXPECT_EQ(dg[3], 0.5f);
        EXPECT_EQ(dg[4], 0.5f);
    }

    // The ops on the active table: the softmax of a row with a NaN is
    // NaN, a -inf score gets probability +0, and one key gets exactly 1.
    std::vector<float> row = {1.0f, nan, 2.0f};
    softmaxInPlace(row.data(), row.size());
    for (float v : row)
        EXPECT_TRUE(std::isnan(v));
    row = {-inf, 0.5f};
    softmaxInPlace(row.data(), row.size());
    EXPECT_TRUE(isZero(row[0], false));
    EXPECT_EQ(row[1], 1.0f);
    row = {-3.5f};
    softmaxInPlace(row.data(), row.size());
    EXPECT_EQ(row[0], 1.0f);

    const Matrix s = rowSoftmax(
        Matrix(2, 2, std::vector<float>{nan, 0.0f, 4.0f, -inf}));
    EXPECT_TRUE(std::isnan(s(0, 0)));
    EXPECT_TRUE(std::isnan(s(0, 1)));
    EXPECT_EQ(s(1, 0), 1.0f);
    EXPECT_TRUE(isZero(s(1, 1), false));

    const Matrix gx(1, 5, std::vector<float>{nan, 0.0f, -0.0f, inf, -inf});
    const Matrix g = gelu(gx);
    EXPECT_TRUE(std::isnan(g(0, 0)));
    EXPECT_TRUE(isZero(g(0, 1), false));
    EXPECT_TRUE(isZero(g(0, 2), true));
    EXPECT_EQ(g(0, 3), inf);
    EXPECT_TRUE(std::isnan(g(0, 4)));
    const Matrix dg = geluBackward(gx, Matrix(1, 5, 2.0f));
    EXPECT_TRUE(std::isnan(dg(0, 0)));
    EXPECT_EQ(dg(0, 1), 1.0f);
    EXPECT_EQ(dg(0, 2), 1.0f);
}

} // namespace
} // namespace dota
