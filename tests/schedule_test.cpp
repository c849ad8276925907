// Tests of the broadcast scheduling substrate: Birkhoff decomposition,
// regular padding, and transformation transfer plans (collision-freedom and
// the König round bound R <= m).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <utility>

#include "sched/edge_coloring.hpp"
#include "sched/schedule.hpp"
#include "util/random.hpp"

namespace mcb::sched {
namespace {

CountMatrix random_regular(std::size_t k, std::uint64_t r,
                           std::uint64_t seed) {
  // Sum of r random permutation matrices is r-regular.
  util::Xoshiro256StarStar rng(seed);
  CountMatrix m(k, std::vector<std::uint64_t>(k, 0));
  std::vector<std::size_t> perm(k);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::uint64_t t = 0; t < r; ++t) {
    rng.shuffle(perm);
    for (std::size_t i = 0; i < k; ++i) ++m[i][perm[i]];
  }
  return m;
}

void expect_decomposes(const CountMatrix& m) {
  const auto k = m.size();
  auto terms = birkhoff_decompose(m);
  CountMatrix sum(k, std::vector<std::uint64_t>(k, 0));
  std::uint64_t total = 0;
  for (const auto& t : terms) {
    ASSERT_EQ(t.perm.size(), k);
    // each term is a permutation
    std::vector<bool> seen(k, false);
    for (auto v : t.perm) {
      ASSERT_LT(v, k);
      ASSERT_FALSE(seen[v]);
      seen[v] = true;
    }
    for (std::size_t i = 0; i < k; ++i) sum[i][t.perm[i]] += t.count;
    total += t.count;
  }
  EXPECT_EQ(sum, m);
  EXPECT_EQ(total, max_degree(m));
}

TEST(EdgeColoringTest, DecomposesRandomRegularMatrices) {
  for (std::size_t k : {2u, 3u, 5u, 8u}) {
    for (std::uint64_t r : {1u, 2u, 7u, 100u}) {
      expect_decomposes(random_regular(k, r, k * 1000 + r));
    }
  }
}

// --- the scan-based Kuhn oracle ---------------------------------------------
// The decomposition as it was first written: counts scanned column by column
// in every DFS step. birkhoff_decompose keeps the support as bit rows but must
// peel off the very same terms, in the same order, for any k.

bool scan_kuhn(const CountMatrix& counts, std::size_t row,
               std::vector<bool>& visited,
               std::vector<std::size_t>& match_col) {
  for (std::size_t j = 0; j < counts.size(); ++j) {
    if (counts[row][j] == 0 || visited[j]) continue;
    visited[j] = true;
    if (match_col[j] == SIZE_MAX ||
        scan_kuhn(counts, match_col[j], visited, match_col)) {
      match_col[j] = row;
      return true;
    }
  }
  return false;
}

std::vector<PermTerm> scan_birkhoff(CountMatrix counts) {
  const std::size_t k = counts.size();
  std::uint64_t remaining = 0;  // the regular degree: row 0's sum
  if (k > 0) {
    for (auto v : counts[0]) remaining += v;
  }
  std::vector<PermTerm> result;
  while (remaining > 0) {
    std::vector<std::size_t> match_col(k, SIZE_MAX);
    for (std::size_t row = 0; row < k; ++row) {
      std::vector<bool> visited(k, false);
      if (!scan_kuhn(counts, row, visited, match_col)) return {};
    }
    PermTerm term;
    term.perm.resize(k);
    std::uint64_t lambda = UINT64_MAX;
    for (std::size_t j = 0; j < k; ++j) {
      term.perm[match_col[j]] = static_cast<std::uint32_t>(j);
      lambda = std::min(lambda, counts[match_col[j]][j]);
    }
    term.count = lambda;
    for (std::size_t j = 0; j < k; ++j) counts[match_col[j]][j] -= lambda;
    remaining -= lambda;
    result.push_back(std::move(term));
  }
  return result;
}

CountMatrix random_weighted_regular(std::size_t k, std::size_t perms,
                                    std::uint64_t seed) {
  // Sum of random permutation matrices with random weights: regular, with a
  // support that mixes dense and sparse rows and counts that reach zero at
  // different terms.
  util::Xoshiro256StarStar rng(seed);
  CountMatrix m(k, std::vector<std::uint64_t>(k, 0));
  std::vector<std::size_t> perm(k);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t t = 0; t < perms; ++t) {
    rng.shuffle(perm);
    const auto w = static_cast<std::uint64_t>(rng.uniform(1, 9));
    for (std::size_t i = 0; i < k; ++i) m[i][perm[i]] += w;
  }
  return m;
}

TEST(EdgeColoringTest, MatchesScanKuhnTermByTerm) {
  // k straddles the 64-bit word boundaries of the bit rows.
  for (std::size_t k : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    for (std::size_t perms : {1u, 3u, 12u}) {
      const auto m = random_weighted_regular(k, perms, k * 131 + perms);
      const auto want = scan_birkhoff(m);
      const auto got = birkhoff_decompose(m);
      ASSERT_FALSE(want.empty()) << "k=" << k;
      ASSERT_EQ(got.size(), want.size()) << "k=" << k << " perms=" << perms;
      for (std::size_t t = 0; t < want.size(); ++t) {
        ASSERT_EQ(got[t].perm, want[t].perm) << "k=" << k << " term " << t;
        ASSERT_EQ(got[t].count, want[t].count) << "k=" << k << " term " << t;
      }
      expect_decomposes(m);
    }
  }
}

TEST(EdgeColoringTest, SingleVertex) {
  expect_decomposes(CountMatrix{{5}});
}

TEST(EdgeColoringTest, RejectsIrregular) {
  CountMatrix bad{{1, 0}, {1, 0}};  // column sums 2 and 0
  EXPECT_THROW(birkhoff_decompose(bad), std::invalid_argument);
}

TEST(EdgeColoringTest, RejectsNonSquare) {
  CountMatrix bad{{1, 0, 0}, {0, 1, 0}};
  EXPECT_THROW(birkhoff_decompose(bad), std::invalid_argument);
}

TEST(EdgeColoringTest, PadToRegularBalances) {
  util::Xoshiro256StarStar rng(11);
  for (std::size_t k : {2u, 4u, 7u}) {
    CountMatrix m(k, std::vector<std::uint64_t>(k, 0));
    for (auto& row : m) {
      for (auto& v : row) {
        v = static_cast<std::uint64_t>(rng.uniform(0, 9));
      }
    }
    const auto r = max_degree(m);
    auto dummy = pad_to_regular(m);
    for (std::size_t i = 0; i < k; ++i) {
      std::uint64_t rs = 0, cs = 0;
      for (std::size_t j = 0; j < k; ++j) {
        rs += m[i][j] + dummy[i][j];
        cs += m[j][i] + dummy[j][i];
      }
      EXPECT_EQ(rs, r) << "row " << i;
      EXPECT_EQ(cs, r) << "col " << i;
    }
  }
}

// --- Euler-split edge coloring ----------------------------------------------

void expect_valid_coloring(std::size_t l, std::size_t r,
                           const std::vector<BipEdge>& edges) {
  auto ec = euler_color(l, r, edges);
  ASSERT_EQ(ec.colors.size(), edges.size());
  // No two same-colored edges share an endpoint.
  std::vector<std::vector<bool>> seen_l(ec.num_colors,
                                        std::vector<bool>(l, false));
  std::vector<std::vector<bool>> seen_r(ec.num_colors,
                                        std::vector<bool>(r, false));
  std::size_t delta = 0;
  std::vector<std::size_t> dl(l, 0), dr(r, 0);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto c = ec.colors[e];
    ASSERT_LT(c, ec.num_colors);
    ASSERT_FALSE(seen_l[c][edges[e].left]) << "left clash, color " << c;
    ASSERT_FALSE(seen_r[c][edges[e].right]) << "right clash, color " << c;
    seen_l[c][edges[e].left] = true;
    seen_r[c][edges[e].right] = true;
    delta = std::max({delta, ++dl[edges[e].left], ++dr[edges[e].right]});
  }
  // Color budget: 2^ceil(log2(delta)) < 2*delta.
  if (delta > 0) {
    EXPECT_LT(ec.num_colors, 2 * delta);
  }
}

TEST(EulerColorTest, RandomMultigraphs) {
  util::Xoshiro256StarStar rng(23);
  for (auto [l, r, e] : std::vector<std::array<std::size_t, 3>>{
           {1, 1, 5}, {2, 3, 10}, {4, 16, 64}, {8, 64, 500}, {16, 128, 2000},
           {3, 7, 1}}) {
    std::vector<BipEdge> edges(e);
    for (auto& ed : edges) {
      ed.left = static_cast<std::uint32_t>(
          rng.uniform(0, static_cast<std::int64_t>(l) - 1));
      ed.right = static_cast<std::uint32_t>(
          rng.uniform(0, static_cast<std::int64_t>(r) - 1));
    }
    expect_valid_coloring(l, r, edges);
  }
}

TEST(EulerColorTest, EmptyAndParallelEdges) {
  expect_valid_coloring(3, 3, {});
  // 6 parallel edges between one pair: needs >= 6 colors.
  std::vector<BipEdge> par(6, BipEdge{1, 2});
  auto ec = euler_color(3, 3, par);
  std::vector<bool> used(ec.num_colors, false);
  for (auto c : ec.colors) {
    ASSERT_FALSE(used[c]);
    used[c] = true;
  }
}

TEST(EulerColorTest, PerfectMatchingNeedsOneColor) {
  std::vector<BipEdge> edges{{0, 2}, {1, 1}, {2, 0}};
  auto ec = euler_color(3, 3, edges);
  EXPECT_EQ(ec.num_colors, 1u);
}

TEST(EulerColorTest, OutOfRangeRejected) {
  EXPECT_THROW(euler_color(2, 2, {BipEdge{2, 0}}), std::invalid_argument);
}

// --- transfer plans ----------------------------------------------------------

class PlanTest : public ::testing::TestWithParam<
                     std::tuple<Transform, std::size_t, std::size_t>> {};

TEST_P(PlanTest, ValidAndWithinKoenigBound) {
  auto [t, m, k] = GetParam();
  auto table = permutation_table(t, m, k);
  auto plan = plan_transform(t, m, k, &table);
  EXPECT_TRUE(plan_is_valid(plan, table))
      << to_string(t) << " m=" << m << " k=" << k;
  EXPECT_LE(plan.cycles(), m) << "more rounds than the Koenig bound";
  // Messages = cross-column moves <= m*k.
  EXPECT_LE(plan.messages(), m * k);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, PlanTest,
    ::testing::Combine(::testing::Values(Transform::kTranspose,
                                         Transform::kUndiagonalize,
                                         Transform::kUpShift,
                                         Transform::kDownShift,
                                         Transform::kUntranspose),
                       ::testing::Values<std::size_t>(4, 8, 16, 24),
                       ::testing::Values<std::size_t>(2, 4)),
    [](const auto& pinfo) {
      return std::string(1,
                         "TUSDN"[static_cast<int>(std::get<0>(pinfo.param))]) +
             "_m" + std::to_string(std::get<1>(pinfo.param)) + "_k" +
             std::to_string(std::get<2>(pinfo.param));
    });

TEST(PlanTest, TransposeUsesExactlyMCyclesAtUniformLoad) {
  // Transpose moves m - m/k elements out of each column, spread uniformly
  // over destinations; the plan should need at most m rounds and at least
  // m - m/k (each column sends at most one element per round).
  const std::size_t m = 16, k = 4;
  auto plan = plan_transform(Transform::kTranspose, m, k);
  EXPECT_GE(plan.cycles(), m - m / k);
  EXPECT_LE(plan.cycles(), m);
  EXPECT_EQ(plan.messages(), (m - m / k) * k);
}

TEST(PlanTest, UpShiftUsesHalfColumnCycles) {
  const std::size_t m = 12, k = 3;
  auto plan = plan_transform(Transform::kUpShift, m, k);
  EXPECT_EQ(plan.cycles(), m / 2);  // only the bottom half crosses columns
  EXPECT_EQ(plan.messages(), (m / 2) * k);
}

// --- schedule pin ------------------------------------------------------------
// plan_is_valid accepts any collision-free schedule, so a change to the
// decomposition that reorders rounds would pass it. This grid pins the exact
// rounds instead: cycles, messages and an FNV-1a digest of every round's dst
// and src, hard-coded from a known good build. Any rewrite of the matching
// or of the plan layout must reproduce them. (Untranspose has the same
// count matrix as transpose, hence the same plan.)

std::uint64_t plan_digest(const TransferPlan& plan) {
  // FNV-1a over 64-bit words, byte by byte (little end first).
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto add = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t r = 0; r < plan.cycles(); ++r) {
    for (std::size_t c = 0; c < plan.k; ++c) add(plan.dst_of(r, c));
    for (std::size_t c = 0; c < plan.k; ++c) add(plan.src_of(r, c));
  }
  return h;
}

struct PlanPin {
  Transform t;
  std::size_t m, k, cycles;
  std::uint64_t messages, digest;
};

// clang-format off
constexpr PlanPin kPlanPins[] = {
    {Transform::kTranspose, 12, 4, 9, 36, 0x4f688e1321664825ull},
    {Transform::kUndiagonalize, 12, 4, 9, 34, 0x1b5750cd01e9c815ull},
    {Transform::kUpShift, 12, 4, 6, 24, 0xd629bd338c898425ull},
    {Transform::kDownShift, 12, 4, 6, 24, 0x3d8fac22f7e30425ull},
    {Transform::kTranspose, 64, 8, 56, 448, 0x3505ecfc427bff25ull},
    {Transform::kUndiagonalize, 64, 8, 56, 442, 0x17774acad4e9845dull},
    {Transform::kUpShift, 64, 8, 32, 256, 0xb77993e9c3eb0325ull},
    {Transform::kDownShift, 64, 8, 32, 256, 0x628574f6a9cb0325ull},
    {Transform::kTranspose, 240, 6, 200, 1200, 0xfebd07413de90525ull},
    {Transform::kUndiagonalize, 240, 6, 200, 1196, 0x5b0934a35dbb82f5ull},
    {Transform::kUpShift, 240, 6, 120, 720, 0x1edcf26903f5a125ull},
    {Transform::kDownShift, 240, 6, 120, 720, 0x0f96d7b03cc1a125ull},
    {Transform::kTranspose, 1024, 16, 960, 15360, 0x3de1369c228d7325ull},
    {Transform::kUndiagonalize, 1024, 16, 960, 15346, 0xa3b893958c7871cdull},
    {Transform::kUpShift, 1024, 16, 512, 8192, 0x45c5472d395e2325ull},
    {Transform::kDownShift, 1024, 16, 512, 8192, 0x6bf2efc4d15e2325ull},
    {Transform::kTranspose, 4160, 65, 4096, 266240, 0xc2143747f0808325ull},
    {Transform::kUndiagonalize, 4160, 65, 4096, 266176, 0xea51e89f47254665ull},
    {Transform::kUpShift, 4160, 65, 2080, 135200, 0xf25d7bb3492d4b25ull},
    {Transform::kDownShift, 4160, 65, 2080, 135200, 0xbe8e3ddcf54b4b25ull},
    {Transform::kTranspose, 16384, 64, 16128, 1032192, 0x4a98491493c66325ull},
    {Transform::kUndiagonalize, 16384, 64, 16128, 1032130, 0xbd2a19116f47616dull},
    {Transform::kUpShift, 16384, 64, 8192, 524288, 0x67a56251e3222325ull},
    {Transform::kDownShift, 16384, 64, 8192, 524288, 0xb9e9ec25e3222325ull},
};
// clang-format on

TEST(PlanTest, SchedulePinnedAcrossShapesAndTransforms) {
  std::size_t checked = 0;
  for (auto [m, k] : std::vector<std::pair<std::size_t, std::size_t>>{
           {12, 4}, {64, 8}, {240, 6}, {1024, 16}, {4160, 65}, {16384, 64}}) {
    for (auto t : {Transform::kTranspose, Transform::kUndiagonalize,
                   Transform::kUpShift, Transform::kDownShift}) {
      ASSERT_LT(checked, std::size(kPlanPins)) << "grid outgrew the pins";
      const PlanPin& want = kPlanPins[checked++];
      ASSERT_EQ(want.t, t);
      ASSERT_EQ(want.m, m);
      ASSERT_EQ(want.k, k);
      SCOPED_TRACE(::testing::Message()
                   << to_string(t) << " m=" << m << " k=" << k);
      const auto plan = plan_transform(t, m, k);
      EXPECT_EQ(plan.cycles(), want.cycles);
      EXPECT_EQ(plan.messages(), want.messages);
      EXPECT_EQ(plan_digest(plan), want.digest);
    }
  }
  EXPECT_EQ(checked, std::size(kPlanPins));
}

TEST(PlanTest, SingleColumnPlanIsEmpty) {
  auto plan = plan_transform(Transform::kUpShift, 8, 1);
  EXPECT_EQ(plan.cycles(), 0u);
  EXPECT_EQ(plan.messages(), 0u);
}

}  // namespace
}  // namespace mcb::sched
