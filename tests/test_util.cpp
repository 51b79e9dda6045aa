// Unit tests for src/util: strong ids, rng, packed symmetric matrix,
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "util/env.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/sym_matrix.h"

namespace hfc {
namespace {

TEST(Ids, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), -1);
}

TEST(Ids, ValueRoundTrip) {
  NodeId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42);
  EXPECT_EQ(id.idx(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(NodeId(1), NodeId(2));
  EXPECT_EQ(NodeId(3), NodeId(3));
  EXPECT_NE(NodeId(3), NodeId(4));
}

TEST(Ids, Hashable) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId(1));
  set.insert(NodeId(1));
  set.insert(NodeId(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, ClusterId>);
  static_assert(!std::is_same_v<ServiceId, RouterId>);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  // Different tags give different streams.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform_int(0, 1 << 20) == c2.uniform_int(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsStableUnderParentUse) {
  Rng p1(9);
  Rng p2(9);
  (void)p2.uniform_int(0, 10);  // consuming numbers must not change forks
  Rng f1 = p1.fork(5);
  Rng f2 = p2.fork(5);
  EXPECT_EQ(f1.uniform_int(0, 1 << 20), f2.uniform_int(0, 1 << 20));
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_THROW((void)rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, UniformRealBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(1.0, 2.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
  EXPECT_THROW((void)rng.chance(1.5), std::invalid_argument);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(11);
  const auto sample = rng.sample_indices(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t s : sample) EXPECT_LT(s, 50u);
}

TEST(Rng, SampleIndicesFullPopulation) {
  Rng rng(11);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  EXPECT_THROW((void)rng.sample_indices(5, 6), std::invalid_argument);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.3);
}

TEST(SymMatrix, SymmetricStorage) {
  SymMatrix<double> m(4, 0.0);
  m.at(1, 3) = 7.5;
  EXPECT_DOUBLE_EQ(m.at(3, 1), 7.5);
  m.at(2, 2) = 1.0;
  EXPECT_DOUBLE_EQ(m.at(2, 2), 1.0);
}

TEST(SymMatrix, InitialValue) {
  SymMatrix<int> m(3, 9);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m.at(i, j), 9);
  }
}

TEST(SymMatrix, OutOfRangeThrows) {
  SymMatrix<double> m(3, 0.0);
  EXPECT_THROW((void)m.at(3, 0), std::invalid_argument);
  EXPECT_THROW((void)m.at(0, 3), std::invalid_argument);
}

TEST(SymMatrix, IndependentCells) {
  SymMatrix<int> m(5, 0);
  int value = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j <= i; ++j) m.at(i, j) = value++;
  }
  value = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j <= i; ++j) EXPECT_EQ(m.at(i, j), value++);
  }
}

TEST(Stats, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_THROW((void)percentile(v, 101), std::invalid_argument);
}

TEST(Stats, Summary) {
  const Summary s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, RunningStatMatchesSummary) {
  Rng rng(23);
  std::vector<double> values;
  RunningStat rs;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_real(-10, 10);
    values.push_back(v);
    rs.add(v);
  }
  const Summary s = summarize(values);
  EXPECT_NEAR(rs.mean(), s.mean, 1e-9);
  EXPECT_NEAR(rs.stddev(), s.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
}

TEST(Stats, RunningStatEmpty) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

// ------------------------------------------------------------ env knobs ----
// Negative paths of the HFC_* environment parsing (HFC_THREADS,
// HFC_TRACE_BUF and the bench knobs all route through these): malformed
// input falls back to the documented default with exactly one warning
// per variable name.

class EnvKnobTest : public ::testing::Test {
 protected:
  static constexpr const char* kName = "HFC_TEST_KNOB";
  void SetUp() override {
    ::unsetenv(kName);
    reset_env_warnings();
  }
  void TearDown() override { ::unsetenv(kName); }
};

TEST_F(EnvKnobTest, UnsetYieldsFallbackWithoutWarning) {
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_u64(kName, 42), 42u);
  EXPECT_EQ(env_warning_count(), 0u);
}

TEST_F(EnvKnobTest, ValidValueParses) {
  ::setenv(kName, "12", 1);
  EXPECT_EQ(env_size_t(kName, 7), 12u);
  EXPECT_EQ(env_u64(kName, 42), 12u);
  EXPECT_EQ(env_warning_count(), 0u);
}

TEST_F(EnvKnobTest, NonNumericFallsBackWithOneWarning) {
  ::setenv(kName, "abc", 1);
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_warning_count(), 1u);
  // Same name again: the warning is not repeated.
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_u64(kName, 42), 42u);
  EXPECT_EQ(env_warning_count(), 1u);
  // reset re-arms it (the test hook).
  reset_env_warnings();
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_warning_count(), 1u);
}

TEST_F(EnvKnobTest, TrailingGarbageFallsBack) {
  ::setenv(kName, "12abc", 1);
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_warning_count(), 1u);
}

TEST_F(EnvKnobTest, NegativeFallsBack) {
  ::setenv(kName, "-3", 1);
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_warning_count(), 1u);
}

TEST_F(EnvKnobTest, BelowMinimumFallsBack) {
  // HFC_THREADS-style knobs need >= 1: "0" is rejected, not misapplied.
  ::setenv(kName, "0", 1);
  EXPECT_EQ(env_size_t(kName, 7, /*min_value=*/1), 7u);
  EXPECT_EQ(env_warning_count(), 1u);
  // With min_value 0 (for knobs where 0 means disabled) it is accepted.
  reset_env_warnings();
  EXPECT_EQ(env_size_t(kName, 7, /*min_value=*/0), 0u);
  EXPECT_EQ(env_u64(kName, 42), 0u);
  EXPECT_EQ(env_warning_count(), 0u);
}

TEST_F(EnvKnobTest, OverflowFallsBack) {
  ::setenv(kName, "99999999999999999999999999", 1);  // > 2^64
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_u64(kName, 42), 42u);
  EXPECT_EQ(env_warning_count(), 1u);
}

TEST_F(EnvKnobTest, EmptyWarnsWhitespaceIsTrimmed) {
  ::setenv(kName, "", 1);
  EXPECT_EQ(env_size_t(kName, 7), 7u);
  EXPECT_EQ(env_warning_count(), 1u);
  ::setenv(kName, " 12 ", 1);
  reset_env_warnings();
  EXPECT_EQ(env_size_t(kName, 7), 12u);  // surrounding whitespace is fine
  EXPECT_EQ(env_warning_count(), 0u);
}

}  // namespace
}  // namespace hfc
