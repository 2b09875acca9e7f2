// Unit tests for the string helpers and the deterministic PRNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"

namespace ysmart {
namespace {

TEST(Strings, ToLowerUpper) {
  EXPECT_EQ(to_lower("AbC_1"), "abc_1");
  EXPECT_EQ(to_upper("AbC_1"), "ABC_1");
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "+"), "a+b+c");
  EXPECT_EQ(join({}, "+"), "");
  EXPECT_EQ(join({"only"}, "+"), "only");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("/tables/x", "/tables/"));
  EXPECT_FALSE(starts_with("/t", "/tables/"));
}

TEST(Strings, Strf) {
  EXPECT_EQ(strf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strf("%.2f", 1.5), "1.50");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng r(7);
  EXPECT_EQ(r.uniform(5, 5), 5);
}

// Ranges whose width or offsets overflow int64: the full range returns
// the raw draw, and the others stay inside their bounds (these ran into
// signed overflow when computed in int64).
TEST(Rng, UniformFullAndWideRanges) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng r(13), twin(13);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(r.uniform(kMin, kMax), static_cast<std::int64_t>(twin.next()));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(r.uniform(kMin, kMax - 1), kMax - 1);
    EXPECT_LE(r.uniform(kMin, 0), 0);
    EXPECT_GE(r.uniform(-1, kMax), -1);
    EXPECT_GE(r.uniform(kMax - 1, kMax), kMax - 1);
  }
}

// Narrow ranges draw lo + next() % width, the values the data
// generators have always produced.
TEST(Rng, UniformNarrowRangeValuesAreStable) {
  Rng r(7), twin(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(r.uniform(-3, 9), -3 + static_cast<std::int64_t>(twin.next() % 13));
}

TEST(Rng, UniformRejectsInverted) {
  Rng r(7);
  EXPECT_THROW(r.uniform(2, 1), InternalError);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 2000, 0.5, 0.05);  // law of large numbers, loose
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 1.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(13);
  EXPECT_THROW(r.exponential(0), InternalError);
}

TEST(Zipf, SkewFavorsLowRanks) {
  Rng r(17);
  const Zipf zipf(10, 1.2);
  int ones = 0, tens = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto v = zipf(r);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 10);
    if (v == 1) ++ones;
    if (v == 10) ++tens;
  }
  EXPECT_GT(ones, tens * 3);
}

TEST(Zipf, ZeroSkewIsUniformish) {
  Rng r(19);
  const Zipf zipf(4, 0);
  int low = 0;
  for (int i = 0; i < 4000; ++i)
    if (zipf(r) <= 2) ++low;
  EXPECT_NEAR(low / 4000.0, 0.5, 0.06);
}

TEST(Zipf, RejectsEmptyRange) {
  EXPECT_THROW(Zipf(0, 1.0), InternalError);
}

// The inverse-CDF draw as it was computed per call before the CDF was
// built once: the harmonic total, then a scan of the running sum.
std::int64_t zipf_per_draw(Rng& rng, std::int64_t n, double s) {
  if (s <= 0) return rng.uniform(1, n);
  double h = 0;
  for (std::int64_t i = 1; i <= n; ++i) h += 1.0 / std::pow(double(i), s);
  double u = rng.uniform01() * h;
  double acc = 0;
  for (std::int64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    if (acc >= u) return i;
  }
  return n;
}

// Every draw equals the per-draw formula's, and both consume the same
// generator state, over 1M draws per (n, s) spread across four seeds.
TEST(Zipf, DrawsEqualThePerDrawFormula) {
  const struct {
    std::int64_t n;
    double s;
  } cases[] = {{20, 0.8}, {1, 0.8}, {7, 1.3}, {100, 0.5},
               {9, 0.9},  {5, 0.0}, {5, -1.0}};
  constexpr int kSeeds = 4;
  constexpr int kDrawsPerSeed = 250000;
  for (const auto& c : cases) {
    const Zipf zipf(c.n, c.s);
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      Rng a(seed * 7919), b(seed * 7919);
      int mismatches = 0;
      for (int i = 0; i < kDrawsPerSeed; ++i)
        if (zipf(a) != zipf_per_draw(b, c.n, c.s)) ++mismatches;
      EXPECT_EQ(mismatches, 0) << "n=" << c.n << " s=" << c.s << " seed=" << seed;
      EXPECT_EQ(a.next(), b.next()) << "n=" << c.n << " s=" << c.s;
    }
  }
}

TEST(Rng, IdentLengthAndAlphabet) {
  Rng r(23);
  const auto s = r.ident(12);
  EXPECT_EQ(s.size(), 12u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

}  // namespace
}  // namespace ysmart
