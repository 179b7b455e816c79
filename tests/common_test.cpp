#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "snapshot/archive.h"
#include "snapshot/visit.h"

namespace r2c2 {
namespace {

// --- Rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(42.0));
  EXPECT_NEAR(s.mean(), 42.0, 0.5);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  // Pareto samples are never below the scale parameter xm = mean*(a-1)/a.
  Rng rng(13);
  const double alpha = 1.05, mean = 100e3;
  const double xm = mean * (alpha - 1.0) / alpha;
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto_with_mean(alpha, mean), xm);
}

TEST(Rng, ParetoHeavyTail) {
  // With shape 1.05 most flows are small: the median is far below the mean
  // (the paper's "95% of flows are less than 100 KB" regime).
  Rng rng(13);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(rng.pareto_with_mean(1.05, 100e3));
  EXPECT_LT(percentile(v, 50), 15e3);
  EXPECT_GT(percentile(v, 99.9), 100e3);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

// --- Stats ---

TEST(Stats, PercentileBasics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 9.9);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

TEST(Stats, PercentileSingleElement) { EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0); }

TEST(Stats, PercentileRejectsEmpty) {
  EXPECT_THROW(percentile(std::vector<double>{}, 50), std::invalid_argument);
}

TEST(Stats, PercentileRejectsBadQ) {
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, PercentileSpanMatchesVectorOverload) {
  // Regression pin for the span overload (now one copy instead of two
  // through the by-value overload): results must be bit-identical to the
  // vector path at the edges and in between.
  const std::vector<double> v{9, 7, 5, 3, 1};
  const std::span<const double> s(v);
  EXPECT_DOUBLE_EQ(percentile(s, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(s, 100), 9.0);
  EXPECT_DOUBLE_EQ(percentile(s, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(s, 25), 3.0);
  for (double q : {0.0, 12.5, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile(s, q), percentile(v, q)) << "q=" << q;
  }
  // The span overload must not mutate the caller's storage.
  EXPECT_EQ(v, (std::vector<double>{9, 7, 5, 3, 1}));
}

TEST(Stats, PercentileSpanSingleElement) {
  const std::vector<double> v{42.0};
  const std::span<const double> s(v);
  EXPECT_DOUBLE_EQ(percentile(s, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(s, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(s, 100), 42.0);
}

TEST(Stats, PercentileSpanRejectsEmptyAndBadQ) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(percentile(std::span<const double>{}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(std::span<const double>(v), -0.5), std::invalid_argument);
  EXPECT_THROW(percentile(std::span<const double>(v), 100.5), std::invalid_argument);
}

TEST(Stats, EmpiricalCdfMonotone) {
  std::vector<double> v;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) v.push_back(rng.uniform());
  const auto cdf = empirical_cdf(v, 50);
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].cum_prob, cdf[i - 1].cum_prob);
  }
  EXPECT_DOUBLE_EQ(cdf.back().cum_prob, 1.0);
}

TEST(Stats, EmpiricalCdfEmpty) { EXPECT_TRUE(empirical_cdf({}).empty()); }

TEST(Stats, EmpiricalCdfTiedMaximaEndExactlyAtOne) {
  // Tied maxima under downsampling used to emit the maximum twice with
  // different cum_prob (the strided point said e.g. 0.97, the tail fix-up
  // appended another at 1.0). Now a tie run collapses to one point whose
  // cum_prob is the rank of its last occurrence.
  std::vector<double> v(100, 5.0);
  for (int i = 0; i < 60; ++i) v[i] = static_cast<double>(i);  // 40 tied maxima
  const auto cdf = empirical_cdf(v, 7);  // stride > 1 lands inside the run
  ASSERT_FALSE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.back().value, 59.0);
  EXPECT_DOUBLE_EQ(cdf.back().cum_prob, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].value, cdf[i - 1].value) << "duplicate abscissa at " << i;
    EXPECT_GE(cdf[i].cum_prob, cdf[i - 1].cum_prob);
  }
}

TEST(Stats, EmpiricalCdfStrideSweepInvariants) {
  // Invariants must hold for every downsampling factor, including ties in
  // the middle and at both ends, and the degenerate all-equal sample.
  Rng rng(31);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(std::floor(rng.uniform() * 20.0));  // many ties
  for (std::size_t max_points : {1, 2, 3, 5, 7, 10, 33, 100, 499, 500, 1000}) {
    const auto cdf = empirical_cdf(v, max_points);
    ASSERT_FALSE(cdf.empty()) << "max_points=" << max_points;
    const double expected_max = *std::max_element(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(cdf.back().value, expected_max) << "max_points=" << max_points;
    EXPECT_DOUBLE_EQ(cdf.back().cum_prob, 1.0) << "max_points=" << max_points;
    for (std::size_t i = 1; i < cdf.size(); ++i) {
      EXPECT_GT(cdf[i].value, cdf[i - 1].value)
          << "duplicate/regressing abscissa, max_points=" << max_points << " i=" << i;
      EXPECT_GT(cdf[i].cum_prob, cdf[i - 1].cum_prob)
          << "non-increasing cum_prob, max_points=" << max_points << " i=" << i;
    }
  }
}

TEST(Stats, EmpiricalCdfAllEqual) {
  const auto cdf = empirical_cdf(std::vector<double>(17, 3.25), 4);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 3.25);
  EXPECT_DOUBLE_EQ(cdf[0].cum_prob, 1.0);
}

TEST(Stats, EmpiricalCdfExactProbabilities) {
  // Undownsampled, every point's cum_prob is the exact empirical
  // P(X <= x) — ties included.
  const auto cdf = empirical_cdf({1.0, 2.0, 2.0, 3.0}, 100);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].cum_prob, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].value, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].cum_prob, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].cum_prob, 1.0);
}

TEST(Stats, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, EwmaConverges) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.update(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);  // first sample adopted directly
  for (int i = 0; i < 50; ++i) e.update(2.0);
  EXPECT_NEAR(e.value(), 2.0, 1e-9);
}

TEST(Stats, EwmaRejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
}

// --- Checksum ---

TEST(Checksum, KnownValue) {
  // RFC 1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t even[] = {0xab, 0x00};
  const std::uint8_t odd[] = {0xab};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(Checksum, DetectsSingleByteCorruption) {
  Rng rng(23);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint16_t sum = internet_checksum(data);
  // Flipping any single byte to a different value must change the checksum
  // (one's-complement sums detect all single-unit errors).
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::vector<std::uint8_t> corrupted = data;
    corrupted[i] ^= 0x5a;
    EXPECT_NE(internet_checksum(corrupted), sum) << "undetected corruption at byte " << i;
  }
}

TEST(Checksum, EmptyInput) { EXPECT_EQ(internet_checksum({}), 0xffff); }

// --- Generator state capture/restore (snapshot support) ---

// Saves `rng` through Rng::visit into a one-section archive and loads it
// back into a generator constructed from `other_seed`.
Rng archive_round_trip(const Rng& rng, std::uint64_t other_seed) {
  snapshot::ArchiveWriter w;
  snapshot::Writer out(w);
  out.section("rng", [&] { out(rng); });
  snapshot::ArchiveReader r(w.finish());
  snapshot::Reader in(r);
  Rng restored(other_seed);
  in.section("rng", [&] { in(restored); });
  return restored;
}

TEST(Rng, StateRoundTripReproducesExactStream) {
  Rng source(12345);
  // Burn an arbitrary prefix mixing every draw type, so the archived state
  // is mid-stream, not a fresh seed expansion.
  for (int i = 0; i < 1000; ++i) {
    source();
    source.uniform();
    source.uniform_int(97);
    source.bernoulli(0.3);
    source.exponential(5.0);
  }

  // A generator seeded differently, then loaded from the archive, must
  // continue the exact raw 64-bit stream of the saved one...
  Rng restored = archive_round_trip(source, 999);
  Rng reference = source;
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(restored(), reference()) << "raw stream diverged at draw " << i;
  }

  // ...and the derived draws (which consume different numbers of raw words,
  // e.g. rejection sampling in uniform_int) track bit for bit too.
  Rng a = archive_round_trip(source, 7);
  Rng b = source;
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(a.uniform_int(1000), b.uniform_int(1000)) << i;
    ASSERT_EQ(a.uniform(), b.uniform()) << i;
    ASSERT_EQ(a.exponential(2.0), b.exponential(2.0)) << i;
  }
  // And the original keeps producing that same continuation.
  Rng c = archive_round_trip(source, 5);
  ASSERT_EQ(source(), c());
}

// --- Units ---

TEST(Types, TransmissionTime) {
  // 1500 bytes at 10 Gbps = 1.2 us.
  EXPECT_EQ(transmission_time_ns(1500, 10 * kGbps), 1200);
  // 16 bytes at 10 Gbps = 12.8 ns, rounded up.
  EXPECT_EQ(transmission_time_ns(16, 10 * kGbps), 13);
  EXPECT_EQ(transmission_time_ns(0, 10 * kGbps), 0);
}

}  // namespace
}  // namespace r2c2
