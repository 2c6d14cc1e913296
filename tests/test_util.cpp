// Unit tests for the utility layer: RNG, math, stats, table, contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace lcs {
namespace {

// --- check macros ------------------------------------------------------------

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(LCS_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(LCS_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsLogicError) {
  EXPECT_THROW(LCS_CHECK(false, "bug"), std::logic_error);
  EXPECT_NO_THROW(LCS_CHECK(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    LCS_REQUIRE(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(r.uniform(17), 17u);
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng r(7);
  EXPECT_THROW(r.uniform(0), std::invalid_argument);
}

TEST(Rng, UniformCoversAllResidues) {
  Rng r(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInRange) {
  Rng r(11);
  for (int i = 0; i < 500; ++i) {
    const auto v = r.uniform_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform_real();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesBias) {
  Rng r(19);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleDistinctProducesDistinct) {
  Rng r(29);
  for (const std::size_t count : {1u, 5u, 50u}) {
    const auto s = r.sample_distinct(100, count);
    EXPECT_EQ(s.size(), count);
    std::set<std::uint64_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), count);
    for (const auto x : s) EXPECT_LT(x, 100u);
  }
}

TEST(Rng, SampleDistinctFullRange) {
  Rng r(31);
  const auto s = r.sample_distinct(10, 10);
  std::set<std::uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(Rng, SampleDistinctRejectsOverdraw) {
  Rng r(37);
  EXPECT_THROW(r.sample_distinct(5, 6), std::invalid_argument);
}

TEST(Rng, ForkIsIndependentOfParentUse) {
  Rng a(99);
  const Rng f1 = a.fork(1);
  // Forking must not consume parent state.
  Rng b(99);
  const Rng f2 = b.fork(1);
  Rng c1 = f1, c2 = f2;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, HashIsStable) {
  EXPECT_EQ(hash64(12345), hash64(12345));
  EXPECT_NE(hash64(12345), hash64(12346));
}

TEST(Rng, BinomialExtremes) {
  Rng r(41);
  EXPECT_EQ(r.binomial(0, 0.5), 0u);
  EXPECT_EQ(r.binomial(100, 0.0), 0u);
  EXPECT_EQ(r.binomial(100, 1.0), 100u);
  EXPECT_EQ(r.binomial(100, -0.3), 0u);
  EXPECT_EQ(r.binomial(100, 1.7), 100u);
  for (int i = 0; i < 200; ++i) EXPECT_LE(r.binomial(7, 0.9), 7u);
}

TEST(Rng, BinomialDeterministicForSameSeed) {
  Rng a(43), b(43);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.binomial(1000, 0.37), b.binomial(1000, 0.37));
}

TEST(Rng, BinomialMatchesMomentsInBothRegimes) {
  // Small n*p exercises the geometric-skip inversion, large n*p the BTRS
  // rejection; both must track mean n*p and variance n*p*(1-p).  p > 0.5
  // additionally exercises the complement reflection.
  struct Case {
    std::uint64_t n;
    double p;
  };
  Rng r(47);
  const int draws = 20000;
  for (const Case c : {Case{40, 0.05}, Case{12, 0.5}, Case{400, 0.2}, Case{1000, 0.85}}) {
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < draws; ++i) {
      const double k = static_cast<double>(r.binomial(c.n, c.p));
      ASSERT_LE(k, static_cast<double>(c.n));
      sum += k;
      sum_sq += k * k;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    const double want_mean = static_cast<double>(c.n) * c.p;
    const double want_var = want_mean * (1.0 - c.p);
    EXPECT_NEAR(mean, want_mean, 5.0 * std::sqrt(want_var / draws) + 0.05)
        << "n=" << c.n << " p=" << c.p;
    EXPECT_NEAR(var, want_var, 0.12 * want_var + 0.1) << "n=" << c.n << " p=" << c.p;
  }
}

namespace {

/// Exact Binomial(n, p) log-pmf via log-gamma (stable for the small n used
/// in the chi-square checks).
double binomial_log_pmf(std::uint64_t n, std::uint64_t k, double p) {
  const double dn = static_cast<double>(n), dk = static_cast<double>(k);
  return std::lgamma(dn + 1) - std::lgamma(dk + 1) - std::lgamma(dn - dk + 1) +
         dk * std::log(p) + (dn - dk) * std::log1p(-p);
}

}  // namespace

TEST(Rng, BinomialChiSquareAgainstExactPmfBothRegimes) {
  // Goodness of fit against the exact distribution, one case per sampler
  // regime: n*p < 10 exercises the geometric-skip inversion, n*p >= 10 the
  // BTRS rejection.  Outcomes with tiny expectation pool into tail bins so
  // every cell has expectation >= ~5; the thresholds sit far above the
  // 99.99th chi-square percentile for the respective degrees of freedom,
  // and the draws are a fixed deterministic stream (no flakes).
  struct Case {
    std::uint64_t n;
    double p;
    double threshold;
  };
  const int draws = 20000;
  for (const Case c : {Case{8, 0.3, 45.0},       // inversion, 9 outcomes
                       Case{60, 0.5, 80.0}}) {   // BTRS, binned center + tails
    Rng r(53);
    std::vector<std::uint64_t> counts(c.n + 1, 0);
    for (int i = 0; i < draws; ++i) {
      const std::uint64_t k = r.binomial(c.n, c.p);
      ASSERT_LE(k, c.n);
      ++counts[k];
    }
    std::vector<double> expected(c.n + 1, 0.0);
    for (std::uint64_t k = 0; k <= c.n; ++k)
      expected[k] = draws * std::exp(binomial_log_pmf(c.n, k, c.p));
    // Pool cells with expectation < 5 into their neighbour toward the mode.
    double chi2 = 0.0, pooled_obs = 0.0, pooled_exp = 0.0;
    for (std::uint64_t k = 0; k <= c.n; ++k) {
      pooled_obs += static_cast<double>(counts[k]);
      pooled_exp += expected[k];
      if (pooled_exp >= 5.0) {
        chi2 += (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
        pooled_obs = pooled_exp = 0.0;
      }
    }
    if (pooled_exp > 0.0)
      chi2 += (pooled_obs - pooled_exp) * (pooled_obs - pooled_exp) / pooled_exp;
    EXPECT_LT(chi2, c.threshold) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(Rng, BinomialCrossoverRegimeKeepsMoments) {
  // n*min(p,1-p) straddling the inversion/BTRS switch at 10: both sides of
  // the crossover (and the reflected p > 0.5 variants) must track mean and
  // variance — a regression in either sampler's acceptance logic shows up
  // here first.
  struct Case {
    std::uint64_t n;
    double p;
  };
  const int draws = 20000;
  for (const Case c : {Case{100, 0.095}, Case{100, 0.105}, Case{20, 0.5}, Case{21, 0.5},
                       Case{100, 0.905}, Case{100, 0.895}}) {
    Rng r(59);
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < draws; ++i) {
      const double k = static_cast<double>(r.binomial(c.n, c.p));
      ASSERT_LE(k, static_cast<double>(c.n));
      sum += k;
      sum_sq += k * k;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    const double want_mean = static_cast<double>(c.n) * c.p;
    const double want_var = want_mean * (1.0 - c.p);
    EXPECT_NEAR(mean, want_mean, 5.0 * std::sqrt(want_var / draws) + 0.05)
        << "n=" << c.n << " p=" << c.p;
    EXPECT_NEAR(var, want_var, 0.15 * want_var + 0.1) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(Rng, BinomialLargeNStaysExpectedScale) {
  // Huge n with small p: the samplers must stay O(1)-ish (inversion is
  // O(n*p), BTRS O(1)) and keep the first two moments — a naive n-trial
  // loop would time out here long before the assertions could fail.
  struct Case {
    std::uint64_t n;
    double p;
  };
  const int draws = 4000;
  for (const Case c : {Case{1'000'000, 2e-5},        // np = 20: BTRS
                       Case{1'000'000'000, 5e-9},    // np = 5: inversion skips
                       Case{100'000'000, 2e-7}}) {   // np = 20 at large n
    Rng r(61);
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < draws; ++i) {
      const double k = static_cast<double>(r.binomial(c.n, c.p));
      ASSERT_LE(k, static_cast<double>(c.n));
      sum += k;
      sum_sq += k * k;
    }
    const double mean = sum / draws;
    const double var = sum_sq / draws - mean * mean;
    const double want_mean = static_cast<double>(c.n) * c.p;
    EXPECT_NEAR(mean, want_mean, 6.0 * std::sqrt(want_mean / draws) + 0.05)
        << "n=" << c.n << " p=" << c.p;
    EXPECT_NEAR(var, want_mean, 0.2 * want_mean + 0.1) << "n=" << c.n << " p=" << c.p;
  }
}

TEST(Rng, BinomialExtremeProbabilityTails) {
  // p so close to 0 or 1 that successes (or failures) are rare events: the
  // draw must stay in range, hit the all-or-nothing values almost always,
  // and keep the rare-event rate near n*min(p, 1-p).
  Rng r(67);
  const int draws = 5000;
  std::uint64_t nonzero = 0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = r.binomial(1000, 1e-7);  // np = 1e-4
    ASSERT_LE(k, 1000u);
    nonzero += k > 0 ? 1 : 0;
  }
  EXPECT_LE(nonzero, 5u);  // P(any success) ~ 1e-4 per draw

  std::uint64_t not_full = 0;
  double shortfall = 0.0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = r.binomial(1000, 1.0 - 1e-5);  // n*(1-p) = 0.01
    ASSERT_LE(k, 1000u);
    not_full += k < 1000 ? 1 : 0;
    shortfall += static_cast<double>(1000 - k);
  }
  // ~draws * 0.01 = 50 expected misses; allow a wide deterministic margin.
  EXPECT_LT(not_full, 120u);
  EXPECT_GT(not_full, 10u);
  EXPECT_NEAR(shortfall / draws, 0.01, 0.008);
}

// --- math --------------------------------------------------------------------

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_THROW(ceil_div(1, 0), std::invalid_argument);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2(1025), 10u);
  EXPECT_THROW(floor_log2(0), std::invalid_argument);
}

TEST(Math, KdMatchesPaperExponent) {
  // k_D = n^((D-2)/(2D-2)): spot checks from the paper's table of regimes.
  EXPECT_NEAR(k_d_of(10000, 3), std::pow(10000.0, 0.25), 1e-9);   // n^(1/4)
  EXPECT_NEAR(k_d_of(10000, 4), std::pow(10000.0, 1.0 / 3.0), 1e-9);  // n^(1/3)
  EXPECT_NEAR(k_d_of(10000, 6), std::pow(10000.0, 0.4), 1e-9);    // n^(2/5)
}

TEST(Math, KdTrivialForSmallDiameter) {
  EXPECT_DOUBLE_EQ(k_d_of(10000, 1), 1.0);
  EXPECT_DOUBLE_EQ(k_d_of(10000, 2), 1.0);
}

TEST(Math, KdApproachesSqrtNForLargeD) {
  // (D-2)/(2D-2) -> 1/2: k_D approaches sqrt(n) from below.
  const double kd = k_d_of(1 << 20, 50);
  EXPECT_LT(kd, std::sqrt(double(1 << 20)));
  EXPECT_GT(kd, 0.8 * std::sqrt(double(1 << 20)));
}

TEST(Math, KdIsMonotoneInDiameter) {
  double prev = 0;
  for (unsigned d = 3; d <= 12; ++d) {
    const double cur = k_d_of(4096, d);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(Math, ShortcutParamsBasic) {
  const auto p = ShortcutParams::make(4096, 4);
  EXPECT_EQ(p.n, 4096u);
  EXPECT_EQ(p.diameter, 4u);
  EXPECT_NEAR(p.k_d, std::pow(4096.0, 1.0 / 3.0), 1e-9);
  EXPECT_EQ(p.large_threshold, 16u);
  EXPECT_EQ(p.max_large_parts, 256u);
  EXPECT_EQ(p.repetitions, 4u);
  // p = k_D ln n / N = 16 * ln(4096) / 256.
  EXPECT_NEAR(p.sample_prob, 16.0 * std::log(4096.0) / 256.0, 1e-9);
}

TEST(Math, ShortcutParamsBetaScalesProbability) {
  const auto p1 = ShortcutParams::make(4096, 4, 1.0);
  const auto p2 = ShortcutParams::make(4096, 4, 0.5);
  EXPECT_NEAR(p2.sample_prob, p1.sample_prob / 2.0, 1e-12);
}

TEST(Math, ShortcutParamsProbabilityClamped) {
  // Tiny n with big D: raw p > 1 must clamp.
  const auto p = ShortcutParams::make(64, 8, 10.0);
  EXPECT_LE(p.sample_prob, 1.0);
  EXPECT_GE(p.sample_prob, 0.0);
}

TEST(Math, ShortcutParamsValidation) {
  EXPECT_THROW(ShortcutParams::make(1, 4), std::invalid_argument);
  EXPECT_THROW(ShortcutParams::make(100, 0), std::invalid_argument);
  EXPECT_THROW(ShortcutParams::make(100, 4, 0.0), std::invalid_argument);
}

TEST(Math, LogLogSlopeRecoversExponent) {
  // y = 3 x^0.4
  std::vector<double> xs, ys;
  for (double x : {10.0, 100.0, 1000.0, 10000.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 0.4));
  }
  EXPECT_NEAR(log_log_slope(xs.data(), ys.data(), 4), 0.4, 1e-9);
}

TEST(Math, LogLogSlopeIgnoresNonPositive) {
  std::vector<double> xs{0.0, 10.0, 100.0};
  std::vector<double> ys{5.0, 10.0, 100.0};
  EXPECT_NEAR(log_log_slope(xs.data(), ys.data(), 3), 1.0, 1e-9);
}

TEST(Math, LogLogSlopeNeedsTwoPoints) {
  std::vector<double> xs{10.0};
  std::vector<double> ys{1.0};
  EXPECT_THROW(log_log_slope(xs.data(), ys.data(), 1), std::invalid_argument);
}

// --- stats -------------------------------------------------------------------

TEST(Stats, BasicMoments) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(Stats, Percentiles) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  // Rank 0.9 * 99 = 89.1 lies a tenth of the way from 90 to 91.
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Stats, SingleSample) {
  Stats s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, EmptyThrows) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::invalid_argument);
  EXPECT_THROW(s.percentile(50), std::invalid_argument);
}

TEST(Stats, AddAfterQueryKeepsOrdering) {
  Stats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  s.add(10.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::uint64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("=== demo ==="), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsOverfilledRow) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::invalid_argument);
}

TEST(Table, RejectsCellWithoutRow) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

}  // namespace
}  // namespace lcs
