/**
 * @file
 * Unit tests for the u8 x s8 integer GEMM kernel family
 * (tensor/int8_gemm.hpp, tensor/gemm_kernels.hpp) and the ITA-style
 * integer softmax (tensor/int_softmax.hpp). The headline property under
 * test is exactness: every kernel instantiation computes the same s32
 * sums, so portable vs AVX2 vs naive reference agree bit-for-bit — no
 * tolerance, EXPECT_EQ throughout the integer sections.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"
#include "tensor/ops.hpp"

namespace dota {
namespace {

/** Random quantized operand pair with realistic code distributions. */
struct OperandPair
{
    U8Tensor a;
    Int8Tensor b;
};

OperandPair
randomOperands(size_t m, size_t n, size_t k, uint64_t seed)
{
    Rng rng(seed);
    const Matrix fa = Matrix::randomNormal(m, k, rng);
    const Matrix fb = Matrix::randomNormal(n, k, rng);
    OperandPair p;
    p.a = quantizeU8(fa, 2.5f / kU8ActQmax);
    p.b = quantizeS8(fb, 2.5f / kS8Qmax);
    return p;
}

/** Naive reference of the raw (uncompensated) integer GEMM. */
std::vector<int32_t>
naiveRawGemm(const U8Tensor &a, const Int8Tensor &b)
{
    std::vector<int32_t> c(a.rows * b.rows, 0);
    for (size_t i = 0; i < a.rows; ++i)
        for (size_t j = 0; j < b.rows; ++j) {
            int32_t acc = 0;
            for (size_t p = 0; p < a.k; ++p)
                acc += static_cast<int32_t>(a.row(i)[p]) *
                       static_cast<int32_t>(b.row(j)[p]);
            c[i * b.rows + j] = acc;
        }
    return c;
}

TEST(Int8Kernels, ActiveMatchesPortableExactly)
{
    // Odd k exercises the AVX2 remainder loop; the saturation-free
    // operand ranges make the two instantiations identical by
    // arithmetic, so this is EXPECT_EQ, not EXPECT_NEAR.
    for (size_t k : {1u, 31u, 32u, 37u, 128u, 200u}) {
        const OperandPair p = randomOperands(5, 7, k, 100 + k);
        std::vector<int32_t> active(5 * 7), portable(5 * 7);
        activeGemmKernels().int8GemmBTRows(p.a.codes.data(),
                                           p.b.codes.data(), active.data(),
                                           k, 7, 0, 5);
        detail::portableGemmKernels().int8GemmBTRows(
            p.a.codes.data(), p.b.codes.data(), portable.data(), k, 7, 0, 5);
        EXPECT_EQ(active, portable) << "k=" << k;
        EXPECT_EQ(activeGemmKernels().int8Dot(p.a.row(2), p.b.row(3), k),
                  detail::portableGemmKernels().int8Dot(p.a.row(2),
                                                        p.b.row(3), k))
            << "k=" << k;
    }
}

TEST(Int8Kernels, MatchesNaiveReference)
{
    const OperandPair p = randomOperands(6, 9, 53, 41);
    const std::vector<int32_t> ref = naiveRawGemm(p.a, p.b);
    std::vector<int32_t> got(6 * 9);
    activeGemmKernels().int8GemmBTRows(p.a.codes.data(), p.b.codes.data(),
                                       got.data(), 53, 9, 0, 6);
    EXPECT_EQ(got, ref);
    // Row-range dispatch covers partial strips too.
    std::vector<int32_t> strip(6 * 9, -1);
    activeGemmKernels().int8GemmBTRows(p.a.codes.data(), p.b.codes.data(),
                                       strip.data(), 53, 9, 2, 4);
    for (size_t j = 0; j < 9; ++j)
        EXPECT_EQ(strip[2 * 9 + j], ref[2 * 9 + j]);
    EXPECT_EQ(strip[0], -1); // rows outside [i0, i1) untouched
}

TEST(Int8Kernels, ZeroPointCompensationIsExact)
{
    // int8GemmBT must equal the naive sum over *recentred* codes
    // (a_code - 64) * b_code — i.e. the raw GEMM minus zp * row_sums.
    const OperandPair p = randomOperands(4, 6, 24, 7);
    std::vector<int32_t> got(4 * 6);
    int8GemmBT(p.a, p.b, got.data());
    for (size_t i = 0; i < 4; ++i)
        for (size_t j = 0; j < 6; ++j) {
            int32_t ref = 0;
            for (size_t q = 0; q < 24; ++q)
                ref += (static_cast<int32_t>(p.a.row(i)[q]) - kU8ZeroPoint) *
                       static_cast<int32_t>(p.b.row(j)[q]);
            EXPECT_EQ(got[i * 6 + j], ref) << i << "," << j;
        }
}

TEST(Int8Kernels, DotCompensatedMatchesGemmRow)
{
    const OperandPair p = randomOperands(3, 5, 40, 8);
    std::vector<int32_t> c(3 * 5);
    int8GemmBT(p.a, p.b, c.data());
    for (size_t j = 0; j < 5; ++j)
        EXPECT_EQ(int8DotCompensated(p.a.row(1), p.a.zero_point,
                                     p.b.row(j), p.b.row_sums[j], 40),
                  c[1 * 5 + j]);
}

TEST(Int8Kernels, MatmulBTMatchesDequantizedFloatProduct)
{
    // The dequantized GEMM is scale_a * scale_b * exact-integer-sums, so
    // it matches the float product of the dequantized operands up to
    // fp32 rounding of the final multiply.
    const OperandPair p = randomOperands(5, 4, 32, 9);
    const Matrix ref = matmulBT(dequantize(p.a), dequantize(p.b));
    const Matrix got = int8MatmulBT(p.a, p.b);
    EXPECT_LE(Matrix::maxAbsDiff(ref, got), 1e-4);

    Rng rng(10);
    const Matrix bias = Matrix::randomNormal(1, 4, rng);
    const Matrix with_bias = int8MatmulBT(p.a, p.b, &bias);
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = 0; j < 4; ++j)
            EXPECT_NEAR(with_bias(i, j), got(i, j) + bias(0, j),
                        1e-5);
}

TEST(Int8Kernels, TransposedQuantizationEncodesColumns)
{
    Rng rng(12);
    const Matrix m = Matrix::randomNormal(5, 3, rng);
    const float scale = 2.5f / kS8Qmax;
    const Int8Tensor t = quantizeS8Transposed(m, scale);
    const Int8Tensor direct = quantizeS8(m, scale);
    ASSERT_EQ(t.rows, 3u);
    ASSERT_EQ(t.k, 5u);
    for (size_t c = 0; c < 3; ++c)
        for (size_t r = 0; r < 5; ++r)
            EXPECT_EQ(t.row(c)[r], direct.row(r)[c]);
}

// ---------------------------------------------------------------------
// Integer softmax
// ---------------------------------------------------------------------

TEST(IntSoftmax, ApproximatesFloatSoftmax)
{
    const float score_scale = 0.05f;
    IntSoftmaxLut lut(score_scale);
    Rng rng(20);
    std::vector<int32_t> scores(16);
    for (auto &s : scores)
        s = static_cast<int32_t>(rng.uniform(-400.0, 400.0));

    std::vector<uint8_t> probs(scores.size());
    lut.softmaxRow(scores.data(), scores.size(), nullptr, probs.data());

    // Float reference.
    double mx = -1e30;
    for (int32_t s : scores)
        mx = std::max(mx, double(s) * score_scale);
    double denom = 0.0;
    std::vector<double> ref(scores.size());
    for (size_t j = 0; j < scores.size(); ++j) {
        ref[j] = std::exp(double(scores[j]) * score_scale - mx);
        denom += ref[j];
    }
    for (size_t j = 0; j < scores.size(); ++j)
        EXPECT_NEAR(probs[j] * lut.probScale(), ref[j] / denom, 2.0 / 127.0)
            << "j=" << j;
}

TEST(IntSoftmax, ArgmaxPreservedAndRowSumNormalized)
{
    IntSoftmaxLut lut(0.1f);
    const std::vector<int32_t> scores{-50, 120, 30, 119, -200};
    std::vector<uint8_t> probs(scores.size());
    lut.softmaxRow(scores.data(), scores.size(), nullptr, probs.data());
    size_t arg = 0;
    int sum = 0;
    for (size_t j = 0; j < probs.size(); ++j) {
        if (probs[j] > probs[arg])
            arg = j;
        sum += probs[j];
    }
    EXPECT_EQ(arg, 1u);
    // Renormalization targets sum(probs) ~= 127 (probability mass 1);
    // per-element rounding can drift it by at most n/2 codes.
    EXPECT_NEAR(sum, 127, static_cast<int>(probs.size() + 1) / 2);
}

TEST(IntSoftmax, MaskRemovesEntriesFromNormalizer)
{
    IntSoftmaxLut lut(0.1f);
    const std::vector<int32_t> scores{100, 500, 100, 100};
    const std::vector<float> mask{1.0f, 0.0f, 1.0f, 1.0f};
    std::vector<uint8_t> probs(4);
    lut.softmaxRow(scores.data(), 4, mask.data(), probs.data());
    // The masked max (500) contributes nothing; the three kept equal
    // scores split the mass evenly.
    EXPECT_EQ(probs[1], 0);
    EXPECT_EQ(probs[0], probs[2]);
    EXPECT_EQ(probs[0], probs[3]);
    EXPECT_NEAR(probs[0] * lut.probScale(), 1.0 / 3.0, 2.0 / 127.0);
}

TEST(IntSoftmax, AllMaskedAndEmptyRowsAreZero)
{
    IntSoftmaxLut lut(0.1f);
    const std::vector<int32_t> scores{10, 20, 30};
    const std::vector<float> mask{0.0f, 0.0f, 0.0f};
    std::vector<uint8_t> probs{1, 2, 3};
    lut.softmaxRow(scores.data(), 3, mask.data(), probs.data());
    EXPECT_EQ(probs, (std::vector<uint8_t>{0, 0, 0}));
    lut.softmaxRow(scores.data(), 0, nullptr, probs.data()); // no crash
}

TEST(IntSoftmax, UniformScoresGiveUniformProbs)
{
    IntSoftmaxLut lut(0.02f);
    const std::vector<int32_t> scores(8, 42);
    std::vector<uint8_t> probs(8);
    lut.softmaxRow(scores.data(), 8, nullptr, probs.data());
    for (uint8_t p : probs)
        EXPECT_EQ(p, probs[0]);
    EXPECT_NEAR(probs[0] * lut.probScale(), 1.0 / 8.0, 1.5 / 127.0);
}

} // namespace
} // namespace dota
