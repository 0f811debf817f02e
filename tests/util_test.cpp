#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <set>

#include "src/util/combinatorics.hpp"
#include "src/util/parse.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace qcongest::util {
namespace {

TEST(Rng, UniformIntRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Mix64IsTheSplitmix64Finalizer) {
  // The first outputs of splitmix64 seeded with 0 and 1.
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ULL);
}

TEST(Rng, UniformIntThrowsOnBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, IndexCoversAllValues) {
  Rng rng(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Forked streams should differ from each other with overwhelming probability.
  int differ = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.uniform_int(0, 1 << 30) != child2.uniform_int(0, 1 << 30)) ++differ;
  }
  EXPECT_GT(differ, 32);
}

TEST(Rng, SampleWithoutReplacementIsValidSubset) {
  Rng rng(3);
  for (std::size_t n : {1u, 5u, 20u, 100u}) {
    for (std::size_t z = 0; z <= n; z += std::max<std::size_t>(1, n / 4)) {
      auto s = rng.sample_without_replacement(n, z);
      EXPECT_EQ(s.size(), z);
      std::set<std::size_t> unique(s.begin(), s.end());
      EXPECT_EQ(unique.size(), z);
      for (auto v : s) EXPECT_LT(v, n);
    }
  }
}

TEST(Rng, SampleWithoutReplacementThrowsWhenTooLarge) {
  Rng rng(4);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementApproxUniform) {
  // Each element of [0, 10) should appear in a size-5 sample about half the time.
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    for (auto v : rng.sample_without_replacement(10, 5)) counts[v]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.5, 0.05);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(6);
  auto p = rng.permutation(50);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ChoicePicksFromSpan) {
  Rng rng(8);
  const std::vector<int> items{10, 20, 30};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.choice(std::span<const int>(items)));
  }
  EXPECT_EQ(seen, (std::set<int>{10, 20, 30}));
  const std::vector<int> empty;
  EXPECT_THROW(rng.choice(std::span<const int>(empty)), std::invalid_argument);
}

TEST(Rng, GeometricAndExponentialBasics) {
  Rng rng(9);
  EXPECT_EQ(rng.geometric(1.0), 0u);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  double total = 0;
  for (int i = 0; i < 2000; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / 2000.0, 0.5, 0.08);  // mean 1/lambda
}

TEST(Combinatorics, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(Combinatorics, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Combinatorics, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(Combinatorics, BinomialExactSmall) {
  EXPECT_EQ(binomial_exact(5, 2), 10u);
  EXPECT_EQ(binomial_exact(10, 0), 1u);
  EXPECT_EQ(binomial_exact(10, 10), 1u);
  EXPECT_EQ(binomial_exact(10, 11), 0u);
  EXPECT_EQ(binomial_exact(52, 5), 2598960u);
}

TEST(Combinatorics, BinomialMatchesExact) {
  for (std::uint64_t n = 0; n <= 30; ++n) {
    for (std::uint64_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(binomial(n, k), static_cast<double>(binomial_exact(n, k)),
                  1e-6 * binomial(n, k) + 1e-9);
    }
  }
}

TEST(Combinatorics, LogBinomialLarge) {
  // C(1e6, 2) = 1e6 * (1e6 - 1) / 2.
  double expected = std::log(1e6 * (1e6 - 1) / 2.0);
  EXPECT_NEAR(log_binomial(1000000, 2), expected, 1e-6);
}

TEST(Combinatorics, AllSubsetsCount) {
  auto subsets = all_subsets(6, 3);
  EXPECT_EQ(subsets.size(), binomial_exact(6, 3));
  std::set<std::vector<std::size_t>> unique(subsets.begin(), subsets.end());
  EXPECT_EQ(unique.size(), subsets.size());
  for (const auto& s : subsets) {
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

TEST(Combinatorics, AllSubsetsEdgeCases) {
  EXPECT_EQ(all_subsets(4, 0).size(), 1u);
  EXPECT_EQ(all_subsets(4, 4).size(), 1u);
  EXPECT_TRUE(all_subsets(3, 5).empty());
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
}

/// Inputs every strict parser rejects: empty, signs, whitespace, trailing
/// characters, exponents, a lone dot.
constexpr const char* kMalformed[] = {"", "-1", "+1", " 1", "1x", "1e3", "."};

TEST(Parse, U64AndSizeTakeDigitsOnly) {
  std::uint64_t v = 7;
  std::size_t n = 7;
  for (const char* text : kMalformed) {
    EXPECT_FALSE(parse_u64(text, &v)) << '"' << text << '"';
    EXPECT_FALSE(parse_size(text, &n)) << '"' << text << '"';
  }
  for (const char* text : {"18446744073709551616", "0.05"}) {
    EXPECT_FALSE(parse_u64(text, &v)) << text;
    EXPECT_FALSE(parse_size(text, &n)) << text;
  }
  EXPECT_EQ(v, 7u);  // a reject leaves the output alone
  EXPECT_EQ(n, 7u);
  ASSERT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  ASSERT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(parse_size("0042", &n));
  EXPECT_EQ(n, 42u);
}

TEST(Parse, DecimalAndProbability) {
  double x = 7.0;
  for (const char* text : kMalformed) {
    EXPECT_FALSE(parse_decimal(text, &x)) << '"' << text << '"';
    EXPECT_FALSE(parse_prob(text, &x)) << '"' << text << '"';
  }
  for (const char* text : {"18446744073709551616", "1..2", "0.5.", "1,5"}) {
    EXPECT_FALSE(parse_decimal(text, &x)) << text;
  }
  EXPECT_EQ(x, 7.0);
  ASSERT_TRUE(parse_decimal("0.05", &x));
  EXPECT_EQ(x, 0.05);
  ASSERT_TRUE(parse_decimal("1.25", &x));
  EXPECT_EQ(x, 1.25);
  ASSERT_TRUE(parse_decimal("1000000", &x));
  EXPECT_EQ(x, 1e6);
  ASSERT_TRUE(parse_decimal("3.", &x));
  EXPECT_EQ(x, 3.0);
  ASSERT_TRUE(parse_decimal(".5", &x));
  EXPECT_EQ(x, 0.5);
  ASSERT_TRUE(parse_prob("0.05", &x));
  EXPECT_EQ(x, 0.05);
  ASSERT_TRUE(parse_prob("1", &x));
  EXPECT_EQ(x, 1.0);
  EXPECT_FALSE(parse_prob("1.5", &x));
  EXPECT_FALSE(parse_prob("2", &x));
  EXPECT_EQ(x, 1.0);
}

}  // namespace
}  // namespace qcongest::util
