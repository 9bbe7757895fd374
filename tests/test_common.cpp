/**
 * @file
 * Unit tests for the common runtime: formatting, RNG, statistics, tables.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "common/table.hpp"

namespace dota {
namespace {

TEST(Format, SubstitutesPlaceholders)
{
    EXPECT_EQ(format("a {} b {}", 1, "x"), "a 1 b x");
    EXPECT_EQ(format("no args"), "no args");
    EXPECT_EQ(format("{} leading", 7), "7 leading");
}

TEST(Format, ExtraPlaceholdersLeftVerbatim)
{
    EXPECT_EQ(format("one {} two {}", 1), "one 1 two {}");
}

TEST(Format, ExtraArgumentsIgnored)
{
    EXPECT_EQ(format("just {}", 1, 2, 3), "just 1");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(9);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(13);
    auto picks = rng.sampleWithoutReplacement(50, 20);
    std::set<size_t> s(picks.begin(), picks.end());
    EXPECT_EQ(s.size(), 20u);
    for (size_t v : picks)
        EXPECT_LT(v, 50u);
}

TEST(Rng, SampleWithoutReplacementClampsK)
{
    Rng rng(13);
    auto picks = rng.sampleWithoutReplacement(5, 99);
    std::set<size_t> s(picks.begin(), picks.end());
    EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, ForkIndependent)
{
    Rng a(1);
    Rng b = a.fork();
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Stats, DistributionWelford)
{
    Distribution d("lat");
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
    EXPECT_NEAR(d.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, DistributionEmpty)
{
    Distribution d("x");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Table, AlignsAndCounts)
{
    Table t("demo");
    t.header({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("333"), std::string::npos);
}

TEST(Table, Csv)
{
    Table t;
    t.header({"x", "y"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Fmt, Numbers)
{
    EXPECT_EQ(fmtNum(1.5), "1.5");
    EXPECT_EQ(fmtNum(2.0), "2");
    EXPECT_EQ(fmtNum(0.125, 2), "0.12"); // round-half-even
    EXPECT_EQ(fmtNum(0.126, 2), "0.13");
    EXPECT_EQ(fmtSpeedup(152.64), "152.6x");
    EXPECT_EQ(fmtPct(0.914), "91.4%");
}

TEST(Fmt, Bytes)
{
    EXPECT_EQ(fmtBytes(512), "512B");
    EXPECT_EQ(fmtBytes(2048), "2KB");
    EXPECT_EQ(fmtBytes(3.5 * 1024 * 1024), "3.5MB");
}

TEST(Strutil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
    auto kept = split("a,b,,c", ',', true);
    EXPECT_EQ(kept.size(), 4u);
}

TEST(Strutil, TrimLowerStartsJoin)
{
    EXPECT_EQ(trim("  x y  "), "x y");
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_TRUE(startsWith("detector", "det"));
    EXPECT_FALSE(startsWith("det", "detector"));
    EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
}

} // namespace
} // namespace dota
