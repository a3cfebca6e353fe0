// Algorithm 2's victim selection: select_victims (one stable sort per
// iteration) against the per-victim min-scan + erase it replaced
// (support/selection_oracle), on crafted scores that probe every ordering
// rule — ties, signed zeros, NaN, infinities — and on random ones.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/interpreter.hpp"
#include "support/selection_oracle.hpp"
#include "util/rng.hpp"

namespace cfgx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNan = std::nan("");

Matrix score_column(const std::vector<double>& values) {
  Matrix scores(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) scores(i, 0) = values[i];
  return scores;
}

std::vector<std::uint32_t> all_nodes(std::size_t n) {
  std::vector<std::uint32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0u);
  return nodes;
}

// Every n_step from 0 to remaining.size() must pick the oracle's victims in
// the oracle's order.
void expect_matches_min_scan(const std::vector<std::uint32_t>& remaining,
                             const Matrix& scores) {
  for (std::size_t n_step = 0; n_step <= remaining.size(); ++n_step) {
    std::vector<std::uint32_t> scan_remaining = remaining;
    const std::vector<std::uint32_t> expected =
        oracle::min_scan_select_victims(scan_remaining, scores, n_step);
    EXPECT_EQ(select_victims(remaining, scores, n_step), expected)
        << "n_step " << n_step;
  }
}

TEST(SelectVictims, TiesGoToTheLowerIndex) {
  const Matrix scores = score_column({0.5, 0.2, 0.2, 0.5, 0.1, 0.2});
  EXPECT_EQ(select_victims(all_nodes(6), scores, 4),
            (std::vector<std::uint32_t>{4, 1, 2, 5}));
  expect_matches_min_scan(all_nodes(6), scores);
}

TEST(SelectVictims, SignedZerosTie) {
  const Matrix scores = score_column({0.0, -0.0, 0.3, -0.0, 0.0});
  EXPECT_EQ(select_victims(all_nodes(5), scores, 4),
            (std::vector<std::uint32_t>{0, 1, 3, 4}));
  expect_matches_min_scan(all_nodes(5), scores);
}

TEST(SelectVictims, NanNeverBeatsAFiniteScore) {
  const Matrix scores = score_column({kNan, 0.4, kNan, 0.1, 0.9});
  EXPECT_EQ(select_victims(all_nodes(5), scores, 3),
            (std::vector<std::uint32_t>{3, 1, 4}));
  expect_matches_min_scan(all_nodes(5), scores);
}

TEST(SelectVictims, NanAndPositiveInfinityGoInIndexOrder) {
  const Matrix scores = score_column({kInf, 0.2, kNan, kInf, kNan, 7.0});
  EXPECT_EQ(select_victims(all_nodes(6), scores, 6),
            (std::vector<std::uint32_t>{1, 5, 0, 2, 3, 4}));
  expect_matches_min_scan(all_nodes(6), scores);
}

TEST(SelectVictims, NegativeInfinityGoesFirst) {
  const Matrix scores = score_column({0.1, -kInf, kNan, -kInf, -1e300});
  EXPECT_EQ(select_victims(all_nodes(5), scores, 3),
            (std::vector<std::uint32_t>{1, 3, 4}));
  expect_matches_min_scan(all_nodes(5), scores);
}

TEST(SelectVictims, AllNanDrainsInIndexOrder) {
  const Matrix scores = score_column({kNan, kNan, kNan, kNan});
  EXPECT_EQ(select_victims(all_nodes(4), scores, 4), all_nodes(4));
  expect_matches_min_scan(all_nodes(4), scores);
}

TEST(SelectVictims, FullDrainAndSubsetOfSurvivors) {
  // `remaining` is a strict subset in index order, as after earlier
  // iterations; scores of pruned nodes (here 0 and -1) are never read.
  const Matrix scores =
      score_column({-1.0, 0.3, -1.0, 0.3, kNan, 0.0, -0.0, 2.0});
  const std::vector<std::uint32_t> remaining = {1, 3, 4, 5, 6, 7};
  EXPECT_EQ(select_victims(remaining, scores, remaining.size()),
            (std::vector<std::uint32_t>{5, 6, 1, 3, 7, 4}));
  expect_matches_min_scan(remaining, scores);
}

TEST(SelectVictims, EmptyAndOversizedRequests) {
  const Matrix scores = score_column({0.5, 0.25});
  EXPECT_TRUE(select_victims({}, scores, 0).empty());
  EXPECT_TRUE(select_victims(all_nodes(2), scores, 0).empty());
  EXPECT_THROW(select_victims(all_nodes(2), scores, 3), std::invalid_argument);
}

TEST(SelectVictims, RandomScoresMatchMinScan) {
  // Draw from a small value set so ties, signed zeros and non-finite scores
  // are common, over random surviving subsets.
  const std::vector<double> pool = {kNan, kInf, -kInf, 0.0, -0.0, 0.25,
                                    0.5,  -0.5, 1e-300, 0.75};
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(40);
    std::vector<double> values(n);
    for (double& v : values) v = pool[rng.uniform_index(pool.size())];
    std::vector<std::uint32_t> remaining;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (rng.uniform_index(4) != 0) remaining.push_back(v);
    }
    expect_matches_min_scan(remaining, score_column(values));
  }
}

}  // namespace
}  // namespace cfgx
