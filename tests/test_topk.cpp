/**
 * @file
 * Unit and property tests for row-wise selection (the Detector's
 * selection step and the row-balance constraint).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include "tensor/ops.hpp"
#include "tensor/topk.hpp"

namespace dota {
namespace {

TEST(TopK, RowTopKPicksLargest)
{
    Matrix s(1, 5, std::vector<float>{0.1f, 0.9f, 0.5f, 0.7f, 0.2f});
    auto ids = rowTopK(s, 0, 2);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], 3u);
}

TEST(TopK, DeterministicTieBreak)
{
    Matrix s(1, 4, 1.0f);
    auto a = rowTopK(s, 0, 2);
    auto b = rowTopK(s, 0, 2);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a[0], 0u); // lowest indices win ties
    EXPECT_EQ(a[1], 1u);
}

TEST(TopK, KLargerThanColsClamps)
{
    Matrix s(1, 3, 1.0f);
    EXPECT_EQ(rowTopK(s, 0, 10).size(), 3u);
}

/** Row of heavy ties: a 5-value set with both zeros, plus some +-inf. */
std::vector<float>
tiedRow(Rng &rng, size_t n)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float values[5] = {-1.5f, -0.0f, 0.0f, 0.25f, 2.0f};
    std::vector<float> row(n);
    for (float &v : row) {
        const uint64_t u = rng.uniformInt(20);
        v = u == 0 ? inf : u == 1 ? -inf : values[u % 5];
    }
    return row;
}

/**
 * The selection rule by a stable sort: larger value first, lower column
 * on ties, -0 equal to +0. Returns the kept columns in ascending order.
 */
std::vector<uint32_t>
sortReferenceTopK(const float *row, size_t n, size_t k)
{
    std::vector<uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    std::stable_sort(idx.begin(), idx.end(), [row](uint32_t a, uint32_t b) {
        return row[a] > row[b];
    });
    idx.resize(std::min(k, n));
    std::sort(idx.begin(), idx.end());
    return idx;
}

/** Columns of mask row @p r that are set, ascending. */
std::vector<uint32_t>
maskRowIds(const Matrix &mask, size_t r)
{
    std::vector<uint32_t> ids;
    for (size_t c = 0; c < mask.cols(); ++c)
        if (mask(r, c) != 0.0f)
            ids.push_back(static_cast<uint32_t>(c));
    return ids;
}

/**
 * The documented order as an integer: floats by value with -0 equal to
 * +0; a NaN by its bits, above +inf with the sign bit clear and below
 * -inf with it set.
 */
int64_t
orderRank(float v)
{
    const uint32_t b = std::bit_cast<uint32_t>(v);
    return (b >> 31) ? -static_cast<int64_t>(b & 0x7fffffffu)
                     : static_cast<int64_t>(b);
}

/** sortReferenceTopK on orderRank, so rows may hold NaNs. */
std::vector<uint32_t>
rankReferenceTopK(const float *row, size_t n, size_t k)
{
    std::vector<uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    std::stable_sort(idx.begin(), idx.end(), [row](uint32_t a, uint32_t b) {
        return orderRank(row[a]) > orderRank(row[b]);
    });
    idx.resize(std::min(k, n));
    std::sort(idx.begin(), idx.end());
    return idx;
}

/**
 * Long-row inputs for the vector sweeps. kind 0: normals quantized to
 * steps of 1/4 (many ties at the k-th value); kind 1: normals among
 * quiet NaNs of both signs, +-inf, +-0 and denormals; kind 2: the top
 * quarter (ceil) in one histogram bin, [1, 1.25), over smaller values,
 * so at k = ceil(n/4) the k-th bin is kept whole.
 */
std::vector<float>
longRow(Rng &rng, size_t n, int kind)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {
        std::bit_cast<float>(0x7fc00000u), std::bit_cast<float>(0xffc00000u),
        std::bit_cast<float>(0x7fc00005u), std::bit_cast<float>(0xffc00003u),
        inf, -inf, 0.0f, -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::bit_cast<float>(0x00400000u), -std::bit_cast<float>(0x00000007u)};
    std::vector<float> row(n);
    for (size_t j = 0; j < n; ++j) {
        const float g = static_cast<float>(rng.normal());
        if (kind == 0)
            row[j] = std::round(g * 4.0f) / 4.0f;
        else if (kind == 1)
            row[j] = rng.uniformInt(3) == 0 ? specials[rng.uniformInt(12)] : g;
        else
            row[j] = j < (n + 3) / 4 ? 1.0f + 0.2f * static_cast<float>(
                                                     rng.uniformInt(1000)) /
                                                 1000.0f
                                     : std::min(g, 0.99f);
    }
    if (kind == 2)
        std::shuffle(row.begin(), row.end(), std::mt19937(7));
    return row;
}

TEST(TopK, MatchesSortReference)
{
    Rng rng(4242);
    const auto ks = [](size_t n) {
        return std::vector<size_t>{0, 1, n / 4, n - 1, n, n + 1};
    };
    for (size_t n = 1; n <= 300; ++n) {
        const Matrix s(1, n, tiedRow(rng, n));
        for (size_t k : ks(n)) {
            std::vector<uint32_t> got = rowTopK(s, 0, k);
            std::sort(got.begin(), got.end());
            ASSERT_EQ(got, sortReferenceTopK(s.row(0), n, k))
                << "rowTopK n=" << n << " k=" << k;
        }
    }
    for (size_t n : {1u, 2u, 3u, 4u, 7u, 16u, 33u, 63u, 64u, 65u, 130u, 300u}) {
        std::vector<float> data;
        for (size_t r = 0; r < n; ++r) {
            const std::vector<float> row = tiedRow(rng, n);
            data.insert(data.end(), row.begin(), row.end());
        }
        const Matrix s(n, n, std::move(data));
        for (size_t k : ks(n)) {
            const Matrix full = topkMask(s, k);
            const Matrix causal = topkMaskCausal(s, k);
            for (size_t r = 0; r < n; ++r) {
                ASSERT_EQ(maskRowIds(full, r),
                          sortReferenceTopK(s.row(r), n, k))
                    << "topkMask n=" << n << " k=" << k << " row " << r;
                ASSERT_EQ(maskRowIds(causal, r),
                          sortReferenceTopK(s.row(r), r + 1, k))
                    << "topkMaskCausal n=" << n << " k=" << k << " row "
                    << r;
            }
        }
    }
    // Long rows through the vector sweeps: lengths around the 8-lane
    // width and at the model's lengths; nothing is written past
    // out[min(k, n)), which callers size exactly.
    std::vector<size_t> lengths = {255,  256,  257,  511,  512,
                                   1023, 1024, 2047, 2048, 4097};
    for (size_t n = 1; n <= 25; ++n)
        lengths.push_back(n);
    constexpr uint32_t kSentinel = 0xdeadbeefu;
    for (size_t n : lengths) {
        for (int kind = 0; kind < 3; ++kind) {
            const std::vector<float> row = longRow(rng, n, kind);
            for (size_t k : {size_t{0}, size_t{1}, n / 4, (n + 3) / 4, n - 1,
                             n}) {
                std::vector<uint32_t> got(std::min(k, n) + 16, kSentinel);
                const size_t kept = topkRow(row.data(), n, k, got.data());
                ASSERT_EQ(kept, std::min(k, n)) << "n=" << n << " k=" << k;
                for (size_t i = kept; i < got.size(); ++i)
                    ASSERT_EQ(got[i], kSentinel)
                        << "write past out[" << kept << ") n=" << n
                        << " k=" << k << " kind " << kind;
                got.resize(kept);
                ASSERT_EQ(got, rankReferenceTopK(row.data(), n, k))
                    << "topkRow n=" << n << " k=" << k << " kind " << kind;
            }
        }
    }
}

class TopkMaskProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{};

TEST_P(TopkMaskProperty, ExactlyKPerRow)
{
    const auto [n, k] = GetParam();
    Rng rng(41);
    const Matrix s = Matrix::randomNormal(n, n, rng);
    const Matrix mask = topkMask(s, k);
    for (size_t r = 0; r < n; ++r)
        EXPECT_EQ(maskRowCount(mask, r), std::min(k, n))
            << "row " << r;
}

TEST_P(TopkMaskProperty, SelectedDominateOmitted)
{
    const auto [n, k] = GetParam();
    Rng rng(42);
    const Matrix s = Matrix::randomNormal(n, n, rng);
    const Matrix mask = topkMask(s, k);
    for (size_t r = 0; r < n; ++r) {
        float min_kept = 1e30f, max_omitted = -1e30f;
        for (size_t c = 0; c < n; ++c) {
            if (mask(r, c) != 0.0f)
                min_kept = std::min(min_kept, s(r, c));
            else
                max_omitted = std::max(max_omitted, s(r, c));
        }
        if (k < n) {
            EXPECT_GE(min_kept, max_omitted) << "row " << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopkMaskProperty,
    ::testing::Values(std::make_tuple(8, 1), std::make_tuple(16, 3),
                      std::make_tuple(32, 8), std::make_tuple(17, 5),
                      std::make_tuple(10, 10)));

TEST(TopK, CausalMaskLowerTriangular)
{
    Rng rng(43);
    const Matrix s = Matrix::randomNormal(12, 12, rng);
    const Matrix mask = topkMaskCausal(s, 4);
    for (size_t r = 0; r < 12; ++r) {
        for (size_t c = r + 1; c < 12; ++c)
            EXPECT_FLOAT_EQ(mask(r, c), 0.0f);
        EXPECT_EQ(maskRowCount(mask, r), std::min<size_t>(4, r + 1));
    }
}

TEST(TopK, ThresholdMask)
{
    Matrix s(1, 4, std::vector<float>{-1, 0, 1, 2});
    const Matrix mask = thresholdMask(s, 0.5f);
    EXPECT_FLOAT_EQ(mask(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(mask(0, 2), 1.0f);
    EXPECT_FLOAT_EQ(mask(0, 3), 1.0f);
}

TEST(TopK, ThresholdForRetentionHitsTarget)
{
    Rng rng(44);
    const Matrix s = Matrix::randomNormal(64, 64, rng);
    for (double retention : {0.05, 0.1, 0.25, 0.5}) {
        const float thr = thresholdForRetention(s, retention);
        const Matrix mask = thresholdMask(s, thr);
        EXPECT_NEAR(maskDensity(mask), retention, 0.01);
    }
}

TEST(TopK, MaskDensity)
{
    Matrix mask(2, 4);
    mask(0, 0) = 1.0f;
    mask(1, 3) = 1.0f;
    EXPECT_DOUBLE_EQ(maskDensity(mask), 0.25);
    EXPECT_DOUBLE_EQ(maskDensity(Matrix()), 0.0);
}

TEST(TopK, RecallPerfectWhenMaskIsTopk)
{
    Rng rng(45);
    const Matrix s = Matrix::randomNormal(10, 10, rng);
    const Matrix mask = topkMask(s, 3);
    EXPECT_DOUBLE_EQ(topkRecall(s, mask, 3), 1.0);
}

TEST(TopK, RecallZeroWhenMaskIsBottomk)
{
    Rng rng(46);
    const Matrix s = Matrix::randomNormal(10, 10, rng);
    const Matrix inverted = scale(s, -1.0f);
    const Matrix mask = topkMask(inverted, 3);
    EXPECT_LT(topkRecall(s, mask, 3), 0.05);
}

TEST(TopK, MassRecallBounds)
{
    Rng rng(47);
    const Matrix s = Matrix::randomNormal(8, 8, rng);
    const Matrix full(8, 8, 1.0f);
    EXPECT_NEAR(attentionMassRecall(s, full), 1.0, 1e-6);
    const Matrix none(8, 8, 0.0f);
    EXPECT_NEAR(attentionMassRecall(s, none), 0.0, 1e-9);
    const Matrix top = topkMask(s, 2);
    const double mass = attentionMassRecall(s, top);
    EXPECT_GT(mass, 2.0 / 8.0); // top-k beats uniform share
    EXPECT_LE(mass, 1.0);
}

TEST(TopK, MassRecallMonotoneInK)
{
    Rng rng(48);
    const Matrix s = Matrix::randomNormal(16, 16, rng);
    double prev = 0.0;
    for (size_t k : {1u, 2u, 4u, 8u, 16u}) {
        const double mass = attentionMassRecall(s, topkMask(s, k));
        EXPECT_GE(mass, prev);
        prev = mass;
    }
}

} // namespace
} // namespace dota
