// Tests of the distributed selection algorithm (Section 8): correctness for
// all ranks and distributions, the >= 1/4 purge guarantee (via the
// O(log(kn/p)) phase count), the Corollary 7 cycle/message bounds, the
// termination-phase threshold, and a pin of the exact schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "algo/common.hpp"
#include "algo/multi_select.hpp"
#include "algo/selection.hpp"
#include "mcb/stats.hpp"
#include "trace_digest.hpp"
#include "util/workload.hpp"

namespace mcb::algo {
namespace {

Word oracle_rank(const std::vector<std::vector<Word>>& inputs,
                 std::size_t d) {
  std::vector<Word> all;
  for (const auto& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::sort(all.begin(), all.end(), std::greater<Word>{});
  return all[d - 1];
}

struct Shape {
  std::size_t p, k, n;
  util::Shape dist;
};

class SelectionSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(SelectionSweep, SelectsSampledRanks) {
  const auto& prm = GetParam();
  auto w = util::make_workload(prm.n, prm.p, prm.dist, 42);
  for (std::size_t d : {std::size_t{1}, prm.n / 4, (prm.n + 1) / 2,
                        3 * prm.n / 4, prm.n}) {
    if (d == 0) continue;
    auto res = select_rank({.p = prm.p, .k = prm.k}, w.inputs, d);
    EXPECT_EQ(res.value, oracle_rank(w.inputs, d))
        << "d=" << d << " n=" << prm.n;
  }
}

TEST_P(SelectionSweep, PhaseCountIsLogarithmic) {
  const auto& prm = GetParam();
  auto w = util::make_workload(prm.n, prm.p, prm.dist, 7);
  auto res = select_median({.p = prm.p, .k = prm.k}, w.inputs);
  // Each phase purges >= ~1/4 of the candidates, so the number of phases is
  // at most log_{4/3}(n / threshold) + O(1).
  const double threshold =
      std::max<double>(double(prm.p) / double(prm.k), 1.0);
  const double bound =
      std::log(double(prm.n) / threshold) / std::log(4.0 / 3.0) + 2.0;
  EXPECT_LE(double(res.filter_phases), bound)
      << "n=" << prm.n << " p=" << prm.p << " k=" << prm.k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectionSweep,
    ::testing::ValuesIn(std::vector<Shape>{
        {4, 2, 64, util::Shape::kEven},
        {4, 2, 64, util::Shape::kZipf},
        {8, 4, 512, util::Shape::kEven},
        {8, 4, 512, util::Shape::kOneHot},
        {8, 2, 200, util::Shape::kRandom},
        {16, 4, 1024, util::Shape::kEven},
        {16, 4, 1024, util::Shape::kZipf},
        {16, 4, 999, util::Shape::kRandom},
        {32, 4, 4096, util::Shape::kEven},
        {5, 1, 100, util::Shape::kStaircase},
        {1, 1, 50, util::Shape::kEven},
        {3, 3, 99, util::Shape::kRandom},
    }),
    [](const auto& pinfo) {
      return "p" + std::to_string(pinfo.param.p) + "_k" +
             std::to_string(pinfo.param.k) + "_n" +
             std::to_string(pinfo.param.n) + "_" +
             util::to_string(pinfo.param.dist);
    });

TEST(SelectionTest, AllRanksSmallNetwork) {
  auto w = util::make_workload(48, 4, util::Shape::kRandom, 3);
  for (std::size_t d = 1; d <= 48; ++d) {
    auto res = select_rank({.p = 4, .k = 2}, w.inputs, d);
    ASSERT_EQ(res.value, oracle_rank(w.inputs, d)) << "d=" << d;
  }
}

TEST(SelectionTest, MedianConvenience) {
  auto w = util::make_workload(101, 5, util::Shape::kRandom, 9);
  auto res = select_median({.p = 5, .k = 2}, w.inputs);
  EXPECT_EQ(res.value, oracle_rank(w.inputs, 51));  // ceil(101/2)
}

TEST(SelectionTest, QuickselectOptionAgrees) {
  auto w = util::make_workload(300, 6, util::Shape::kZipf, 4);
  auto a = select_rank({.p = 6, .k = 3}, w.inputs, 77);
  auto b = select_rank({.p = 6, .k = 3}, w.inputs, 77,
                       {.use_quickselect = true});
  EXPECT_EQ(a.value, b.value);
}

TEST(SelectionTest, ThresholdOverride) {
  auto w = util::make_workload(256, 8, util::Shape::kEven, 5);
  // A huge threshold forces zero filtering phases (straight to the
  // termination phase); a tiny one forces more filtering.
  auto lazy = select_rank({.p = 8, .k = 4}, w.inputs, 128,
                          {.threshold = 10000});
  EXPECT_EQ(lazy.filter_phases, 0u);
  EXPECT_EQ(lazy.value, oracle_rank(w.inputs, 128));
  auto eager = select_rank({.p = 8, .k = 4}, w.inputs, 128, {.threshold = 1});
  EXPECT_GE(eager.filter_phases, 2u);
  EXPECT_EQ(eager.value, oracle_rank(w.inputs, 128));
}

TEST(SelectionTest, CycleAndMessageBounds) {
  // Corollary 7 regime: d ~ n/2, p >= k^2, n large. Verify the
  // O((p/k) log(kn/p)) cycle and O(p log(kn/p)) message bounds with
  // generous constants.
  const std::size_t p = 32, k = 4, n = 8192;
  auto w = util::make_workload(n, p, util::Shape::kEven, 11);
  auto res = select_median({.p = p, .k = k}, w.inputs);
  const double logterm =
      std::log2(double(k) * double(n) / double(p)) + 1.0;
  EXPECT_LE(double(res.stats.cycles),
            40.0 * (double(p) / double(k)) * logterm);
  EXPECT_LE(double(res.stats.messages), 40.0 * double(p) * logterm);
}

TEST(SelectionTest, ExtremeRanksAndTinyInputs) {
  std::vector<std::vector<Word>> inputs{{5}, {3}, {9}, {1}};
  EXPECT_EQ(select_rank({.p = 4, .k = 2}, inputs, 1).value, 9);
  EXPECT_EQ(select_rank({.p = 4, .k = 2}, inputs, 4).value, 1);
  EXPECT_EQ(select_rank({.p = 4, .k = 2}, inputs, 2).value, 5);
}

TEST(SelectionTest, SingleProcessor) {
  std::vector<std::vector<Word>> inputs{{10, 40, 20, 30}};
  EXPECT_EQ(select_rank({.p = 1, .k = 1}, inputs, 2).value, 30);
}

TEST(SelectionTest, InvalidArgumentsRejected) {
  std::vector<std::vector<Word>> inputs{{1, 2}, {3, 4}};
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, inputs, 0),
               std::invalid_argument);
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, inputs, 5),
               std::invalid_argument);
  std::vector<std::vector<Word>> empty{{1}, {}};
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, empty, 1),
               std::invalid_argument);
  std::vector<std::vector<Word>> dummy{{1}, {kDummy}};
  EXPECT_THROW(select_rank({.p = 2, .k = 1}, dummy, 1),
               std::invalid_argument);
}

TEST(SelectionTest, NegativeValues) {
  std::vector<std::vector<Word>> inputs{{-5, -1}, {-9, -3}, {-7, -2}};
  EXPECT_EQ(select_rank({.p = 3, .k = 2}, inputs, 1).value, -1);
  EXPECT_EQ(select_rank({.p = 3, .k = 2}, inputs, 6).value, -9);
  EXPECT_EQ(select_rank({.p = 3, .k = 2}, inputs, 3).value, -3);
}

// --- schedule pin ------------------------------------------------------------
// Hard-coded from a known good build (trace_digest.hpp). For select_rank the
// digest also covers the phase table, the candidate counts and every
// processor's peak auxiliary words.

struct SelPin {
  std::size_t p, k;
  bool zipf;
  std::size_t n, d, threshold;
  Word value;
  std::uint64_t cycles, messages, resumes, aux, phases, digest;
};

SelPin run_select_pin(std::size_t p, std::size_t k, bool zipf, std::size_t n,
                      std::size_t d, std::size_t threshold, Engine engine) {
  const auto w = util::make_workload(
      n, p, zipf ? util::Shape::kZipf : util::Shape::kEven, 3);
  DigestSink sink;
  const auto res =
      select_rank({.p = p, .k = k, .engine = engine, .span_sink = &sink},
                  w.inputs, d, {.threshold = threshold}, &sink);
  const RunStats& st = res.stats;
  for (const PhaseStats& ph : st.phases) {
    for (char c : ph.name) sink.fnv.add(static_cast<std::uint64_t>(c));
    sink.fnv.add(ph.first_cycle);
    sink.fnv.add(ph.cycles);
    sink.fnv.add(ph.messages);
  }
  for (std::size_t c : res.candidates_per_phase) sink.fnv.add(c);
  for (std::size_t a : st.peak_aux_words) sink.fnv.add(a);
  return {p, k, zipf, n, d, threshold, res.value, st.cycles, st.messages,
          st.proc_resumes, st.max_peak_aux(), res.filter_phases,
          sink.fnv.value()};
}

/// A five-rank batch with a repeat, out of order. Its digest covers the
/// trace events only: a batched run's segments that filtering answers
/// outright end in an empty "terminate" phase and span of their own.
struct BatchPin {
  std::size_t p, k;
  bool zipf;
  std::size_t n;
  Word values[5];
  std::uint64_t cycles, messages, digest;
};

BatchPin run_batch_pin(std::size_t p, std::size_t k, bool zipf, std::size_t n,
                       Engine engine) {
  const auto w = util::make_workload(
      n, p, zipf ? util::Shape::kZipf : util::Shape::kEven, 3);
  DigestSink sink;
  const auto res = select_ranks({.p = p, .k = k, .engine = engine}, w.inputs,
                                {(n + 1) / 2, 1, n, (n + 2) / 3, (n + 1) / 2},
                                {}, &sink);
  BatchPin pin{p, k, zipf, n, {}, res.stats.cycles, res.stats.messages,
               sink.fnv.value()};
  for (std::size_t j = 0; j < 5; ++j) pin.values[j] = res.values[j];
  return pin;
}

/// The grid: p in {1, 2, 3, 8, 64, 256}, k in {1, 2, ceil(p/2), p}, even and
/// zipf shapes over n = 6p, d in {1, ceil(n/2), ceil(n/3), n}, the default
/// threshold and 1; then p=8, k=4, n=256, where filtering hits the median
/// exactly and the termination phase is empty.
template <typename Visit>
void for_each_select_pin(Visit visit) {
  for (std::size_t p : {1u, 2u, 3u, 8u, 64u, 256u}) {
    std::vector<std::size_t> ks;
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, (p + 1) / 2, p}) {
      if (k <= p && std::find(ks.begin(), ks.end(), k) == ks.end()) {
        ks.push_back(k);
      }
    }
    const std::size_t n = 6 * p;
    for (std::size_t k : ks) {
      for (bool zipf : {false, true}) {
        for (std::size_t d : {std::size_t{1}, (n + 1) / 2, (n + 2) / 3, n}) {
          for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
            visit(p, k, zipf, n, d, threshold);
          }
        }
      }
    }
  }
  visit(8, 4, false, 256, 128, 0);
}

// clang-format off
const SelPin kSelectPinned[] = {
    // p, k, zipf, n, d, threshold, value, cycles, messages, resumes, aux,
    // phases, digest
    {1, 1, false, 6, 1, 0, 39, 2, 2, 3, 1, 2, 0x29f733b1ec3559bbull},
    {1, 1, false, 6, 1, 1, 39, 2, 2, 3, 1, 2, 0x29f733b1ec3559bbull},
    {1, 1, false, 6, 3, 0, 25, 1, 1, 2, 1, 1, 0x8764db3966c73ca4ull},
    {1, 1, false, 6, 3, 1, 25, 1, 1, 2, 1, 1, 0x8764db3966c73ca4ull},
    {1, 1, false, 6, 2, 0, 32, 4, 4, 5, 1, 2, 0xa3f69fbfd827771cull},
    {1, 1, false, 6, 2, 1, 32, 4, 4, 5, 1, 2, 0xa3f69fbfd827771cull},
    {1, 1, false, 6, 6, 0, 4, 4, 4, 5, 1, 2, 0x6f9e9b65fbd3d431ull},
    {1, 1, false, 6, 6, 1, 4, 4, 4, 5, 1, 2, 0x6f9e9b65fbd3d431ull},
    {1, 1, true, 6, 1, 0, 39, 2, 2, 3, 1, 2, 0x29f733b1ec3559bbull},
    {1, 1, true, 6, 1, 1, 39, 2, 2, 3, 1, 2, 0x29f733b1ec3559bbull},
    {1, 1, true, 6, 3, 0, 25, 1, 1, 2, 1, 1, 0x8764db3966c73ca4ull},
    {1, 1, true, 6, 3, 1, 25, 1, 1, 2, 1, 1, 0x8764db3966c73ca4ull},
    {1, 1, true, 6, 2, 0, 32, 4, 4, 5, 1, 2, 0xa3f69fbfd827771cull},
    {1, 1, true, 6, 2, 1, 32, 4, 4, 5, 1, 2, 0xa3f69fbfd827771cull},
    {1, 1, true, 6, 6, 0, 4, 4, 4, 5, 1, 2, 0x6f9e9b65fbd3d431ull},
    {1, 1, true, 6, 6, 1, 4, 4, 4, 5, 1, 2, 0x6f9e9b65fbd3d431ull},
    {2, 1, false, 12, 1, 0, 81, 27, 27, 52, 2, 2, 0xc37c8faf50e70512ull},
    {2, 1, false, 12, 1, 1, 81, 27, 27, 52, 2, 2, 0xc37c8faf50e70512ull},
    {2, 1, false, 12, 6, 0, 46, 33, 33, 64, 2, 2, 0x903cc637d46f53a7ull},
    {2, 1, false, 12, 6, 1, 46, 39, 39, 74, 2, 3, 0x8c75eb0a97b92bedull},
    {2, 1, false, 12, 4, 0, 60, 45, 45, 86, 2, 3, 0x592c94688d3e4dc0ull},
    {2, 1, false, 12, 4, 1, 60, 56, 56, 106, 2, 4, 0xcefd29bec1247bfcull},
    {2, 1, false, 12, 12, 0, 4, 57, 57, 108, 2, 4, 0x980174957cbd312aull},
    {2, 1, false, 12, 12, 1, 4, 68, 68, 128, 2, 5, 0xcb503ab043bf7893ull},
    {2, 1, true, 12, 1, 0, 81, 32, 32, 62, 2, 2, 0x05e652c2ff5a789aull},
    {2, 1, true, 12, 1, 1, 81, 32, 32, 62, 2, 2, 0x05e652c2ff5a789aull},
    {2, 1, true, 12, 6, 0, 46, 44, 44, 84, 2, 3, 0x32790b01149dc16full},
    {2, 1, true, 12, 6, 1, 46, 44, 44, 84, 2, 3, 0x32790b01149dc16full},
    {2, 1, true, 12, 4, 0, 60, 33, 33, 64, 2, 2, 0x4e8bc05042bd6dc9ull},
    {2, 1, true, 12, 4, 1, 60, 44, 44, 84, 2, 3, 0x17b59fd6600f1789ull},
    {2, 1, true, 12, 12, 0, 4, 45, 45, 86, 2, 3, 0x038be7ada63ca0e4ull},
    {2, 1, true, 12, 12, 1, 4, 56, 56, 106, 2, 4, 0xf7cde2566be9854dull},
    {2, 2, false, 12, 1, 0, 81, 33, 41, 64, 4, 2, 0xdbe124a1fa83a9d0ull},
    {2, 2, false, 12, 1, 1, 81, 33, 41, 64, 4, 2, 0xdbe124a1fa83a9d0ull},
    {2, 2, false, 12, 6, 0, 46, 48, 60, 92, 4, 3, 0x05afb7c31249a752ull},
    {2, 2, false, 12, 6, 1, 46, 48, 60, 92, 4, 3, 0x05afb7c31249a752ull},
    {2, 2, false, 12, 4, 0, 60, 68, 84, 130, 4, 4, 0xeed6648da4952e40ull},
    {2, 2, false, 12, 4, 1, 60, 68, 84, 130, 4, 4, 0xeed6648da4952e40ull},
    {2, 2, false, 12, 12, 0, 4, 83, 103, 158, 4, 5, 0x8e95dd5ba4b5c065ull},
    {2, 2, false, 12, 12, 1, 4, 83, 103, 158, 4, 5, 0x8e95dd5ba4b5c065ull},
    {2, 2, true, 12, 1, 0, 81, 38, 46, 74, 4, 2, 0xf28ee703499b1bc2ull},
    {2, 2, true, 12, 1, 1, 81, 38, 46, 74, 4, 2, 0xf28ee703499b1bc2ull},
    {2, 2, true, 12, 6, 0, 46, 53, 65, 102, 4, 3, 0x3e2f1d5e76a93511ull},
    {2, 2, true, 12, 6, 1, 46, 53, 65, 102, 4, 3, 0x3e2f1d5e76a93511ull},
    {2, 2, true, 12, 4, 0, 60, 53, 65, 102, 4, 3, 0x7795150b8e8aed0eull},
    {2, 2, true, 12, 4, 1, 60, 53, 65, 102, 4, 3, 0x7795150b8e8aed0eull},
    {2, 2, true, 12, 12, 0, 4, 68, 84, 130, 4, 4, 0xd7586f9387ea3bc5ull},
    {2, 2, true, 12, 12, 1, 4, 68, 84, 130, 4, 4, 0xd7586f9387ea3bc5ull},
    {3, 1, false, 18, 1, 0, 123, 62, 50, 157, 3, 2, 0xdf6a914dc2649cb9ull},
    {3, 1, false, 18, 1, 1, 123, 62, 50, 157, 3, 2, 0xdf6a914dc2649cb9ull},
    {3, 1, false, 18, 9, 0, 67, 30, 24, 77, 3, 1, 0x4ed0ed320b632711ull},
    {3, 1, false, 18, 9, 1, 67, 30, 24, 77, 3, 1, 0x4ed0ed320b632711ull},
    {3, 1, false, 18, 6, 0, 88, 99, 81, 245, 3, 4, 0x75d231ec97cc13d0ull},
    {3, 1, false, 18, 6, 1, 88, 99, 81, 245, 3, 4, 0x75d231ec97cc13d0ull},
    {3, 1, false, 18, 18, 0, 4, 87, 71, 218, 3, 3, 0xceb01f16212a7dd2ull},
    {3, 1, false, 18, 18, 1, 4, 131, 107, 325, 3, 5, 0x709b4ed0e6f52746ull},
    {3, 1, true, 18, 1, 0, 123, 63, 51, 159, 3, 2, 0x0866141306c5c5ecull},
    {3, 1, true, 18, 1, 1, 123, 76, 62, 189, 3, 3, 0x7d45cc6954234f2cull},
    {3, 1, true, 18, 9, 0, 67, 76, 62, 189, 3, 3, 0x2faedd12a8946ff8ull},
    {3, 1, true, 18, 9, 1, 67, 76, 62, 189, 3, 3, 0x2faedd12a8946ff8ull},
    {3, 1, true, 18, 6, 0, 88, 86, 70, 214, 3, 3, 0x065b61e3d5e8bef2ull},
    {3, 1, true, 18, 6, 1, 88, 99, 81, 245, 3, 4, 0xdd0f9e03b193ab9aull},
    {3, 1, true, 18, 18, 0, 4, 87, 71, 218, 3, 3, 0x9df27d061214a03eull},
    {3, 1, true, 18, 18, 1, 4, 131, 107, 325, 3, 5, 0xd879f18a7112e0eaull},
    {3, 2, false, 18, 1, 0, 123, 50, 50, 133, 3, 2, 0xb30c84bcdf81262full},
    {3, 2, false, 18, 1, 1, 123, 50, 50, 133, 3, 2, 0xb30c84bcdf81262full},
    {3, 2, false, 18, 9, 0, 67, 24, 24, 65, 3, 1, 0x4a080c63e795084dull},
    {3, 2, false, 18, 9, 1, 67, 24, 24, 65, 3, 1, 0x4a080c63e795084dull},
    {3, 2, false, 18, 6, 0, 88, 81, 81, 209, 3, 4, 0x85fd611ec9ef3558ull},
    {3, 2, false, 18, 6, 1, 88, 81, 81, 209, 3, 4, 0x85fd611ec9ef3558ull},
    {3, 2, false, 18, 18, 0, 4, 107, 107, 277, 3, 5, 0xb581c3caa73386a2ull},
    {3, 2, false, 18, 18, 1, 4, 107, 107, 277, 3, 5, 0xb581c3caa73386a2ull},
    {3, 2, true, 18, 1, 0, 123, 62, 62, 161, 3, 3, 0x5da3ff7f0b2db43cull},
    {3, 2, true, 18, 1, 1, 123, 62, 62, 161, 3, 3, 0x5da3ff7f0b2db43cull},
    {3, 2, true, 18, 9, 0, 67, 62, 62, 161, 3, 3, 0x7116d78570edd828ull},
    {3, 2, true, 18, 9, 1, 67, 62, 62, 161, 3, 3, 0x7116d78570edd828ull},
    {3, 2, true, 18, 6, 0, 88, 81, 81, 209, 3, 4, 0x3f483c19437869d2ull},
    {3, 2, true, 18, 6, 1, 88, 81, 81, 209, 3, 4, 0x3f483c19437869d2ull},
    {3, 2, true, 18, 18, 0, 4, 107, 107, 277, 3, 5, 0x1b8c0c4eccc00b0eull},
    {3, 2, true, 18, 18, 1, 4, 107, 107, 277, 3, 5, 0x1b8c0c4eccc00b0eull},
    {3, 3, false, 18, 1, 0, 123, 50, 50, 133, 3, 2, 0xb30c84bcdf81262full},
    {3, 3, false, 18, 1, 1, 123, 50, 50, 133, 3, 2, 0xb30c84bcdf81262full},
    {3, 3, false, 18, 9, 0, 67, 24, 24, 65, 3, 1, 0x4a080c63e795084dull},
    {3, 3, false, 18, 9, 1, 67, 24, 24, 65, 3, 1, 0x4a080c63e795084dull},
    {3, 3, false, 18, 6, 0, 88, 81, 81, 209, 3, 4, 0x85fd611ec9ef3558ull},
    {3, 3, false, 18, 6, 1, 88, 81, 81, 209, 3, 4, 0x85fd611ec9ef3558ull},
    {3, 3, false, 18, 18, 0, 4, 107, 107, 277, 3, 5, 0xb581c3caa73386a2ull},
    {3, 3, false, 18, 18, 1, 4, 107, 107, 277, 3, 5, 0xb581c3caa73386a2ull},
    {3, 3, true, 18, 1, 0, 123, 62, 62, 161, 3, 3, 0x5da3ff7f0b2db43cull},
    {3, 3, true, 18, 1, 1, 123, 62, 62, 161, 3, 3, 0x5da3ff7f0b2db43cull},
    {3, 3, true, 18, 9, 0, 67, 62, 62, 161, 3, 3, 0x7116d78570edd828ull},
    {3, 3, true, 18, 9, 1, 67, 62, 62, 161, 3, 3, 0x7116d78570edd828ull},
    {3, 3, true, 18, 6, 0, 88, 81, 81, 209, 3, 4, 0x3f483c19437869d2ull},
    {3, 3, true, 18, 6, 1, 88, 81, 81, 209, 3, 4, 0x3f483c19437869d2ull},
    {3, 3, true, 18, 18, 0, 4, 107, 107, 277, 3, 5, 0x1b8c0c4eccc00b0eull},
    {3, 3, true, 18, 18, 1, 4, 107, 107, 277, 3, 5, 0x1b8c0c4eccc00b0eull},
    {8, 1, false, 48, 1, 0, 333, 196, 196, 749, 8, 3, 0x4d8e60fcb5145445ull},
    {8, 1, false, 48, 1, 1, 333, 231, 231, 864, 8, 4, 0xdf9c94a65d080c34ull},
    {8, 1, false, 48, 24, 0, 172, 197, 197, 757, 8, 3, 0xf8f0f6b6ac68371bull},
    {8, 1, false, 48, 24, 1, 172, 231, 231, 864, 8, 4, 0x622830a1a5d9c5d0ull},
    {8, 1, false, 48, 16, 0, 228, 201, 201, 765, 8, 3, 0x28cbe981c42e9432ull},
    {8, 1, false, 48, 16, 1, 228, 231, 231, 864, 8, 4, 0xbeee6df36169e595ull},
    {8, 1, false, 48, 48, 0, 4, 253, 253, 960, 8, 4, 0x46588d8b8525f190ull},
    {8, 1, false, 48, 48, 1, 4, 356, 356, 1340, 8, 6, 0x2801ccb182855353ull},
    {8, 1, true, 48, 1, 0, 333, 198, 198, 753, 8, 3, 0x2d5224a89a19f736ull},
    {8, 1, true, 48, 1, 1, 333, 248, 248, 944, 8, 4, 0x589dfbae84eb7927ull},
    {8, 1, true, 48, 24, 0, 172, 177, 177, 666, 8, 3, 0xb176675785b6195full},
    {8, 1, true, 48, 24, 1, 172, 177, 177, 666, 8, 3, 0xb176675785b6195full},
    {8, 1, true, 48, 16, 0, 228, 198, 198, 759, 8, 3, 0xdda8d6391fa2d75aull},
    {8, 1, true, 48, 16, 1, 228, 302, 302, 1142, 8, 5, 0xd362f4ce3402b3eeull},
    {8, 1, true, 48, 48, 0, 4, 200, 200, 763, 8, 3, 0x68ed5d2059f61752ull},
    {8, 1, true, 48, 48, 1, 4, 356, 356, 1340, 8, 6, 0x544e720dccb79c38ull},
    {8, 2, false, 48, 1, 0, 333, 136, 241, 681, 8, 3, 0x536ec5459c4d3c64ull},
    {8, 2, false, 48, 1, 1, 333, 161, 291, 790, 8, 4, 0xdca534e7b0294ba1ull},
    {8, 2, false, 48, 24, 0, 172, 137, 242, 689, 8, 3, 0x13b022ec7f06b4a4ull},
    {8, 2, false, 48, 24, 1, 172, 161, 291, 790, 8, 4, 0x222d685903bf2fb9ull},
    {8, 2, false, 48, 16, 0, 228, 161, 291, 790, 8, 4, 0x7cf53928c9688948ull},
    {8, 2, false, 48, 16, 1, 228, 161, 291, 790, 8, 4, 0x7cf53928c9688948ull},
    {8, 2, false, 48, 48, 0, 4, 212, 379, 1050, 8, 5, 0xb03d0a1869db6511ull},
    {8, 2, false, 48, 48, 1, 4, 248, 446, 1224, 8, 6, 0x7723b60794caf78bull},
    {8, 2, true, 48, 1, 0, 333, 172, 308, 860, 8, 4, 0x5070446b81b10d10ull},
    {8, 2, true, 48, 1, 1, 333, 172, 308, 860, 8, 4, 0x5070446b81b10d10ull},
    {8, 2, true, 48, 24, 0, 172, 123, 222, 608, 8, 3, 0x36c2602f639cdc78ull},
    {8, 2, true, 48, 24, 1, 172, 123, 222, 608, 8, 3, 0x36c2602f639cdc78ull},
    {8, 2, true, 48, 16, 0, 228, 173, 309, 867, 8, 4, 0x8b29ae6b15d84a08ull},
    {8, 2, true, 48, 16, 1, 228, 210, 377, 1042, 8, 5, 0x2ee11cc1765f918full},
    {8, 2, true, 48, 48, 0, 4, 175, 311, 868, 8, 4, 0x1abc2ff69c26058bull},
    {8, 2, true, 48, 48, 1, 4, 248, 446, 1224, 8, 6, 0xe18d9255c73b4238ull},
    {8, 4, false, 48, 1, 0, 333, 143, 291, 682, 8, 4, 0x4c6e473b68986e93ull},
    {8, 4, false, 48, 1, 1, 333, 143, 291, 682, 8, 4, 0x4c6e473b68986e93ull},
    {8, 4, false, 48, 24, 0, 172, 143, 291, 682, 8, 4, 0xa22840e91446487bull},
    {8, 4, false, 48, 24, 1, 172, 143, 291, 682, 8, 4, 0xa22840e91446487bull},
    {8, 4, false, 48, 16, 0, 228, 143, 291, 682, 8, 4, 0xd78c598740285c06ull},
    {8, 4, false, 48, 16, 1, 228, 143, 291, 682, 8, 4, 0xd78c598740285c06ull},
    {8, 4, false, 48, 48, 0, 4, 220, 446, 1056, 8, 6, 0x3df2736af9c0cd23ull},
    {8, 4, false, 48, 48, 1, 4, 220, 446, 1056, 8, 6, 0x3df2736af9c0cd23ull},
    {8, 4, true, 48, 1, 0, 333, 152, 308, 740, 8, 4, 0x70bcc8edbc03bdd8ull},
    {8, 4, true, 48, 1, 1, 333, 152, 308, 740, 8, 4, 0x70bcc8edbc03bdd8ull},
    {8, 4, true, 48, 24, 0, 172, 109, 222, 524, 8, 3, 0x5160eb2b7c29fddaull},
    {8, 4, true, 48, 24, 1, 172, 109, 222, 524, 8, 3, 0x5160eb2b7c29fddaull},
    {8, 4, true, 48, 16, 0, 228, 153, 309, 747, 8, 4, 0x15aa1364df165810ull},
    {8, 4, true, 48, 16, 1, 228, 186, 377, 898, 8, 5, 0x0ed104a743c3dbdbull},
    {8, 4, true, 48, 48, 0, 4, 220, 446, 1056, 8, 6, 0xa8ce77cc4586d0d0ull},
    {8, 4, true, 48, 48, 1, 4, 220, 446, 1056, 8, 6, 0xa8ce77cc4586d0d0ull},
    {8, 8, false, 48, 1, 0, 333, 143, 291, 682, 8, 4, 0x4c6e473b68986e93ull},
    {8, 8, false, 48, 1, 1, 333, 143, 291, 682, 8, 4, 0x4c6e473b68986e93ull},
    {8, 8, false, 48, 24, 0, 172, 143, 291, 682, 8, 4, 0xa22840e91446487bull},
    {8, 8, false, 48, 24, 1, 172, 143, 291, 682, 8, 4, 0xa22840e91446487bull},
    {8, 8, false, 48, 16, 0, 228, 143, 291, 682, 8, 4, 0xd78c598740285c06ull},
    {8, 8, false, 48, 16, 1, 228, 143, 291, 682, 8, 4, 0xd78c598740285c06ull},
    {8, 8, false, 48, 48, 0, 4, 220, 446, 1056, 8, 6, 0x3df2736af9c0cd23ull},
    {8, 8, false, 48, 48, 1, 4, 220, 446, 1056, 8, 6, 0x3df2736af9c0cd23ull},
    {8, 8, true, 48, 1, 0, 333, 152, 308, 740, 8, 4, 0x70bcc8edbc03bdd8ull},
    {8, 8, true, 48, 1, 1, 333, 152, 308, 740, 8, 4, 0x70bcc8edbc03bdd8ull},
    {8, 8, true, 48, 24, 0, 172, 109, 222, 524, 8, 3, 0x5160eb2b7c29fddaull},
    {8, 8, true, 48, 24, 1, 172, 109, 222, 524, 8, 3, 0x5160eb2b7c29fddaull},
    {8, 8, true, 48, 16, 0, 228, 186, 377, 898, 8, 5, 0x0ed104a743c3dbdbull},
    {8, 8, true, 48, 16, 1, 228, 186, 377, 898, 8, 5, 0x0ed104a743c3dbdbull},
    {8, 8, true, 48, 48, 0, 4, 220, 446, 1056, 8, 6, 0xa8ce77cc4586d0d0ull},
    {8, 8, true, 48, 48, 1, 4, 220, 446, 1056, 8, 6, 0xa8ce77cc4586d0d0ull},
    {64, 1, false, 384, 1, 0, 2685, 1623, 1623, 7184, 64, 3, 0x57d7db98c4221ff9ull},
    {64, 1, false, 384, 1, 1, 2685, 2932, 2932, 12708, 64, 6, 0x8b832653920376b1ull},
    {64, 1, false, 384, 192, 0, 1348, 1465, 1465, 6322, 64, 3, 0xf37220d92046b251ull},
    {64, 1, false, 384, 192, 1, 1348, 1465, 1465, 6322, 64, 3, 0xf37220d92046b251ull},
    {64, 1, false, 384, 128, 0, 1796, 1638, 1638, 7222, 64, 3, 0x23d38ded8c3d6949ull},
    {64, 1, false, 384, 128, 1, 1796, 3249, 3249, 13834, 64, 7, 0xec7cdfdd680c3552ull},
    {64, 1, false, 384, 384, 0, 4, 2079, 2079, 9090, 64, 4, 0xd352a503ed6838a9ull},
    {64, 1, false, 384, 384, 1, 4, 4270, 4270, 18342, 64, 9, 0x478ac1662e6e8921ull},
    {64, 1, true, 384, 1, 0, 2685, 1627, 1627, 7157, 64, 3, 0x137a76f15b039529ull},
    {64, 1, true, 384, 1, 1, 2685, 2803, 2803, 11956, 64, 6, 0x87d025f97657d1e6ull},
    {64, 1, true, 384, 192, 0, 1348, 1639, 1639, 7211, 64, 3, 0xf18c047e80fb87fdull},
    {64, 1, true, 384, 192, 1, 1348, 3249, 3249, 13834, 64, 7, 0x34ec6e02a6857437ull},
    {64, 1, true, 384, 128, 0, 1796, 1650, 1650, 7230, 64, 3, 0x2bf792653e4ec8ebull},
    {64, 1, true, 384, 128, 1, 1796, 3824, 3824, 16464, 64, 8, 0x61aecbaa7a0dec5dull},
    {64, 1, true, 384, 384, 0, 4, 1643, 1643, 7216, 64, 3, 0xe46cecb51102db0eull},
    {64, 1, true, 384, 384, 1, 4, 4270, 4270, 18342, 64, 9, 0xe535f3e3a934b203ull},
    {64, 2, false, 384, 1, 0, 2685, 1031, 2004, 7284, 64, 3, 0xf6a9b9c947e9ee2aull},
    {64, 2, false, 384, 1, 1, 2685, 1872, 3694, 12928, 64, 6, 0x4871a6882a01cc8eull},
    {64, 2, false, 384, 192, 0, 1348, 935, 1846, 6432, 64, 3, 0xdcbedd87d3fc40abull},
    {64, 2, false, 384, 192, 1, 1348, 935, 1846, 6432, 64, 3, 0xdcbedd87d3fc40abull},
    {64, 2, false, 384, 128, 0, 1796, 1315, 2571, 9197, 64, 4, 0x1e7bb2a588a5de58ull},
    {64, 2, false, 384, 128, 1, 1796, 2095, 4138, 14104, 64, 7, 0x058d92b5d71c19a8ull},
    {64, 2, false, 384, 384, 0, 4, 1605, 3144, 11116, 64, 5, 0xfe683be26433058dull},
    {64, 2, false, 384, 384, 1, 4, 2742, 5413, 18682, 64, 9, 0x527adc744d3bc062ull},
    {64, 2, true, 384, 1, 0, 2685, 1303, 2559, 9135, 64, 4, 0x7685c32f87fd6334ull},
    {64, 2, true, 384, 1, 1, 2685, 1805, 3565, 12186, 64, 6, 0xe847a34d955e7c47ull},
    {64, 2, true, 384, 192, 0, 1348, 1315, 2571, 9191, 64, 4, 0xddc6a6aa19bb2093ull},
    {64, 2, true, 384, 192, 1, 1348, 2095, 4138, 14104, 64, 7, 0xfec152d952077611ull},
    {64, 2, true, 384, 128, 0, 1796, 1314, 2570, 9169, 64, 4, 0x82d4ea1dcf403b68ull},
    {64, 2, true, 384, 128, 1, 1796, 2452, 4840, 16764, 64, 8, 0x9df381216ebaea51ull},
    {64, 2, true, 384, 384, 0, 4, 1315, 2571, 9188, 64, 4, 0x7ba1cc88f79613abull},
    {64, 2, true, 384, 384, 1, 4, 2742, 5413, 18682, 64, 9, 0x0ae61962a39fa380ull},
    {64, 32, false, 384, 1, 0, 2685, 712, 3862, 9540, 32, 6, 0x7d86facd6e5ab02cull},
    {64, 32, false, 384, 1, 1, 2685, 712, 3862, 9540, 32, 6, 0x7d86facd6e5ab02cull},
    {64, 32, false, 384, 192, 0, 1348, 355, 1930, 4738, 32, 3, 0x0f7ae8e1070c5278ull},
    {64, 32, false, 384, 192, 1, 1348, 355, 1930, 4738, 32, 3, 0x0f7ae8e1070c5278ull},
    {64, 32, false, 384, 128, 0, 1796, 811, 4334, 10466, 32, 7, 0x47db4f0918200dbcull},
    {64, 32, false, 384, 128, 1, 1796, 811, 4334, 10466, 32, 7, 0x47db4f0918200dbcull},
    {64, 32, false, 384, 384, 0, 4, 1054, 5665, 13836, 32, 9, 0x22e7a29a5bdd5611ull},
    {64, 32, false, 384, 384, 1, 4, 1054, 5665, 13836, 32, 9, 0x22e7a29a5bdd5611ull},
    {64, 32, true, 384, 1, 0, 2685, 697, 3733, 9034, 32, 6, 0xd543ea05bab703b9ull},
    {64, 32, true, 384, 1, 1, 2685, 697, 3733, 9034, 32, 6, 0xd543ea05bab703b9ull},
    {64, 32, true, 384, 192, 0, 1348, 811, 4334, 10466, 32, 7, 0x43c58407d8c40919ull},
    {64, 32, true, 384, 192, 1, 1348, 811, 4334, 10466, 32, 7, 0x43c58407d8c40919ull},
    {64, 32, true, 384, 128, 0, 1796, 940, 5064, 12404, 32, 8, 0xcb5cd2e057d62484ull},
    {64, 32, true, 384, 128, 1, 1796, 940, 5064, 12404, 32, 8, 0xcb5cd2e057d62484ull},
    {64, 32, true, 384, 384, 0, 4, 941, 5065, 12441, 32, 8, 0x11281010cb4ecb8cull},
    {64, 32, true, 384, 384, 1, 4, 1054, 5665, 13836, 32, 9, 0x56b8f383cb4e5013ull},
    {64, 64, false, 384, 1, 0, 2685, 712, 3862, 9540, 32, 6, 0x7d86facd6e5ab02cull},
    {64, 64, false, 384, 1, 1, 2685, 712, 3862, 9540, 32, 6, 0x7d86facd6e5ab02cull},
    {64, 64, false, 384, 192, 0, 1348, 355, 1930, 4738, 32, 3, 0x0f7ae8e1070c5278ull},
    {64, 64, false, 384, 192, 1, 1348, 355, 1930, 4738, 32, 3, 0x0f7ae8e1070c5278ull},
    {64, 64, false, 384, 128, 0, 1796, 811, 4334, 10466, 32, 7, 0x47db4f0918200dbcull},
    {64, 64, false, 384, 128, 1, 1796, 811, 4334, 10466, 32, 7, 0x47db4f0918200dbcull},
    {64, 64, false, 384, 384, 0, 4, 1054, 5665, 13836, 32, 9, 0x22e7a29a5bdd5611ull},
    {64, 64, false, 384, 384, 1, 4, 1054, 5665, 13836, 32, 9, 0x22e7a29a5bdd5611ull},
    {64, 64, true, 384, 1, 0, 2685, 697, 3733, 9034, 32, 6, 0xd543ea05bab703b9ull},
    {64, 64, true, 384, 1, 1, 2685, 697, 3733, 9034, 32, 6, 0xd543ea05bab703b9ull},
    {64, 64, true, 384, 192, 0, 1348, 811, 4334, 10466, 32, 7, 0x43c58407d8c40919ull},
    {64, 64, true, 384, 192, 1, 1348, 811, 4334, 10466, 32, 7, 0x43c58407d8c40919ull},
    {64, 64, true, 384, 128, 0, 1796, 940, 5064, 12404, 32, 8, 0xcb5cd2e057d62484ull},
    {64, 64, true, 384, 128, 1, 1796, 940, 5064, 12404, 32, 8, 0xcb5cd2e057d62484ull},
    {64, 64, true, 384, 384, 0, 4, 1054, 5665, 13836, 32, 9, 0x56b8f383cb4e5013ull},
    {64, 64, true, 384, 384, 1, 4, 1054, 5665, 13836, 32, 9, 0x56b8f383cb4e5013ull},
    {256, 1, false, 1536, 1, 0, 10749, 6510, 6510, 29281, 256, 3, 0x9128e92fcbf5f0f8ull},
    {256, 1, false, 1536, 1, 1, 10749, 16621, 16621, 71623, 256, 9, 0xc4fc6a49d9fb11e6ull},
    {256, 1, false, 1536, 768, 0, 5380, 6558, 6558, 29377, 256, 3, 0x4ad9950e187b411bull},
    {256, 1, false, 1536, 768, 1, 5380, 18924, 18924, 82326, 256, 10, 0xa36b212ea373f5e5ull},
    {256, 1, false, 1536, 512, 0, 7172, 6608, 6608, 29478, 256, 3, 0xf4e3dcaa3f5d0192ull},
    {256, 1, false, 1536, 512, 1, 7172, 20201, 20201, 86917, 256, 11, 0x67eeff7083f25f45ull},
    {256, 1, false, 1536, 1536, 0, 4, 8349, 8349, 37023, 256, 4, 0xcb7a0d1097642400ull},
    {256, 1, false, 1536, 1536, 1, 4, 20714, 20714, 89973, 256, 11, 0xc0e418b8d14b1a09ull},
    {256, 1, true, 1536, 1, 0, 10749, 6548, 6548, 29320, 256, 3, 0x042344eb1f350cf8ull},
    {256, 1, true, 1536, 1, 1, 10749, 16621, 16621, 71623, 256, 9, 0xb668efd102d44e6dull},
    {256, 1, true, 1536, 768, 0, 5380, 6558, 6558, 29350, 256, 3, 0x5cc4d98de26a1496ull},
    {256, 1, true, 1536, 768, 1, 5380, 17134, 17134, 74679, 256, 9, 0xa505831c1b606a88ull},
    {256, 1, true, 1536, 512, 0, 7172, 6571, 6571, 29386, 256, 3, 0x31020b96fde34c3cull},
    {256, 1, true, 1536, 512, 1, 7172, 13041, 13041, 56329, 256, 7, 0x9f736accc41888b1ull},
    {256, 1, true, 1536, 1536, 0, 4, 6612, 6612, 29448, 256, 3, 0xc479ab1ff84da94aull},
    {256, 1, true, 1536, 1536, 1, 4, 20714, 20714, 89973, 256, 11, 0xcabeb5695946b5abull},
    {256, 2, false, 1536, 1, 0, 10749, 4094, 8043, 29948, 256, 3, 0x21d3c4a6d6cf03bbull},
    {256, 2, false, 1536, 1, 1, 10749, 10643, 21220, 73674, 256, 9, 0x789906aa36cd561dull},
    {256, 2, false, 1536, 768, 0, 5380, 5224, 10320, 37776, 256, 4, 0x21ff75f13aed63daull},
    {256, 2, false, 1536, 768, 1, 5380, 12056, 24034, 84596, 256, 10, 0x9ff1f50ab2e42a43ull},
    {256, 2, false, 1536, 512, 0, 7172, 5226, 10322, 37777, 256, 4, 0x46c6bf950ea78f15ull},
    {256, 2, false, 1536, 512, 1, 7172, 12951, 25822, 89426, 256, 11, 0xb16072a138273d72ull},
    {256, 2, false, 1536, 1536, 0, 4, 6379, 12622, 45644, 256, 5, 0xe61d6cf9bbef1aa4ull},
    {256, 2, false, 1536, 1536, 1, 4, 13210, 26335, 92472, 256, 11, 0x9533c599df7798d1ull},
    {256, 2, true, 1536, 1, 0, 10749, 5206, 10302, 37721, 256, 4, 0x02fe5e75a7d8309cull},
    {256, 2, true, 1536, 1, 1, 10749, 10643, 21220, 73674, 256, 9, 0x5a326a62a455f75eull},
    {256, 2, true, 1536, 768, 0, 5380, 5211, 10307, 37739, 256, 4, 0xf45938dd7aaa3a2aull},
    {256, 2, true, 1536, 768, 1, 5380, 10902, 21733, 76720, 256, 9, 0x8207309e481200bcull},
    {256, 2, true, 1536, 512, 0, 7172, 5233, 10329, 37760, 256, 4, 0xc18a540e1dc3bac7ull},
    {256, 2, true, 1536, 512, 1, 7172, 8335, 16618, 57922, 256, 7, 0x315674091f283282ull},
    {256, 2, true, 1536, 1536, 0, 4, 5255, 10351, 37801, 256, 4, 0x4fcb2458de8252b4ull},
    {256, 2, true, 1536, 1536, 1, 4, 13210, 26335, 92472, 256, 11, 0x6c1e17e245a82d17ull},
    {256, 128, false, 1536, 1, 0, 10749, 3125, 20425, 50640, 128, 8, 0xe128aa1f045850aaull},
    {256, 128, false, 1536, 1, 1, 10749, 3491, 22336, 54418, 128, 9, 0xf54ee77fb62bbac9ull},
    {256, 128, false, 1536, 768, 0, 5380, 3511, 22850, 56615, 128, 9, 0x7849800410394d66ull},
    {256, 128, false, 1536, 768, 1, 5380, 3896, 25274, 62308, 128, 10, 0x3337ab52ba190714ull},
    {256, 128, false, 1536, 512, 0, 7172, 3897, 25275, 62370, 128, 10, 0xa623552287deaaa0ull},
    {256, 128, false, 1536, 512, 1, 7172, 4263, 27186, 66114, 128, 11, 0xc65b13fdeb02dabdull},
    {256, 128, false, 1536, 1536, 0, 4, 4282, 27699, 68156, 128, 11, 0xedccc858f5e2fb05ull},
    {256, 128, false, 1536, 1536, 1, 4, 4282, 27699, 68156, 128, 11, 0xedccc858f5e2fb05ull},
    {256, 128, true, 1536, 1, 0, 10749, 3125, 20425, 50751, 128, 8, 0xbc50f0e2ceef31b8ull},
    {256, 128, true, 1536, 1, 1, 10749, 3491, 22336, 54418, 128, 9, 0xcbeec9c92c9c5ceeull},
    {256, 128, true, 1536, 768, 0, 5380, 3510, 22849, 56460, 128, 9, 0x8fbfa9947d0caa77ull},
    {256, 128, true, 1536, 768, 1, 5380, 3510, 22849, 56460, 128, 9, 0x8fbfa9947d0caa77ull},
    {256, 128, true, 1536, 512, 0, 7172, 2719, 17486, 42722, 128, 7, 0x1c29a877487b0b97ull},
    {256, 128, true, 1536, 512, 1, 7172, 2719, 17486, 42722, 128, 7, 0x1c29a877487b0b97ull},
    {256, 128, true, 1536, 1536, 0, 4, 3897, 25275, 62496, 128, 10, 0xa80dc14461937fe5ull},
    {256, 128, true, 1536, 1536, 1, 4, 4282, 27699, 68156, 128, 11, 0xbfa1d556e81b3f8bull},
    {256, 256, false, 1536, 1, 0, 10749, 3491, 22336, 54418, 128, 9, 0xf54ee77fb62bbac9ull},
    {256, 256, false, 1536, 1, 1, 10749, 3491, 22336, 54418, 128, 9, 0xf54ee77fb62bbac9ull},
    {256, 256, false, 1536, 768, 0, 5380, 3896, 25274, 62308, 128, 10, 0x3337ab52ba190714ull},
    {256, 256, false, 1536, 768, 1, 5380, 3896, 25274, 62308, 128, 10, 0x3337ab52ba190714ull},
    {256, 256, false, 1536, 512, 0, 7172, 4263, 27186, 66114, 128, 11, 0xc65b13fdeb02dabdull},
    {256, 256, false, 1536, 512, 1, 7172, 4263, 27186, 66114, 128, 11, 0xc65b13fdeb02dabdull},
    {256, 256, false, 1536, 1536, 0, 4, 4282, 27699, 68156, 128, 11, 0xedccc858f5e2fb05ull},
    {256, 256, false, 1536, 1536, 1, 4, 4282, 27699, 68156, 128, 11, 0xedccc858f5e2fb05ull},
    {256, 256, true, 1536, 1, 0, 10749, 3491, 22336, 54418, 128, 9, 0xcbeec9c92c9c5ceeull},
    {256, 256, true, 1536, 1, 1, 10749, 3491, 22336, 54418, 128, 9, 0xcbeec9c92c9c5ceeull},
    {256, 256, true, 1536, 768, 0, 5380, 3510, 22849, 56460, 128, 9, 0x8fbfa9947d0caa77ull},
    {256, 256, true, 1536, 768, 1, 5380, 3510, 22849, 56460, 128, 9, 0x8fbfa9947d0caa77ull},
    {256, 256, true, 1536, 512, 0, 7172, 2719, 17486, 42722, 128, 7, 0x1c29a877487b0b97ull},
    {256, 256, true, 1536, 512, 1, 7172, 2719, 17486, 42722, 128, 7, 0x1c29a877487b0b97ull},
    {256, 256, true, 1536, 1536, 0, 4, 4282, 27699, 68156, 128, 11, 0xbfa1d556e81b3f8bull},
    {256, 256, true, 1536, 1536, 1, 4, 4282, 27699, 68156, 128, 11, 0xbfa1d556e81b3f8bull},
    {8, 4, false, 256, 128, 0, 900, 211, 429, 998, 8, 6, 0xf34294e532c90495ull}
};

const BatchPin kBatchPinned[] = {
    // p, k, zipf, n, values, cycles, messages, digest
    {3, 2, true, 18, {67, 123, 4, 88, 67}, 202, 202, 0x4d82cd07f38b3f1eull},
    {8, 4, false, 256, {900, 1789, 4, 1194, 900}, 741, 1500, 0xd4a383df9909faccull},
    {64, 8, true, 384, {1348, 2685, 4, 1796, 1348}, 2469, 11477, 0xffc9937375d82197ull},
    {256, 16, false, 1536, {5380, 10749, 4, 7172, 5380}, 10566, 60806, 0x0a929bd854445c53ull}
};
// clang-format on

TEST(SelectionTest, SchedulePinnedAcrossShapesRanksAndEngines) {
  std::size_t checked = 0;
  for_each_select_pin([&checked](std::size_t p, std::size_t k, bool zipf,
                                 std::size_t n, std::size_t d,
                                 std::size_t threshold) {
    ASSERT_LT(checked, std::size(kSelectPinned)) << "grid outgrew the pins";
    const SelPin& want = kSelectPinned[checked++];
    ASSERT_EQ(want.p, p);
    ASSERT_EQ(want.k, k);
    ASSERT_EQ(want.zipf, zipf);
    ASSERT_EQ(want.n, n);
    ASSERT_EQ(want.d, d);
    ASSERT_EQ(want.threshold, threshold);
    for (Engine engine : {Engine::kEventDriven, Engine::kReference}) {
      SCOPED_TRACE(::testing::Message()
                   << "p=" << p << " k=" << k << " zipf=" << zipf
                   << " n=" << n << " d=" << d << " threshold=" << threshold
                   << " engine=" << static_cast<int>(engine));
      const SelPin got = run_select_pin(p, k, zipf, n, d, threshold, engine);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.cycles, want.cycles);
      EXPECT_EQ(got.messages, want.messages);
      EXPECT_EQ(got.resumes, want.resumes);
      EXPECT_EQ(got.aux, want.aux);
      EXPECT_EQ(got.phases, want.phases);
      EXPECT_EQ(got.digest, want.digest);
    }
  });
  EXPECT_EQ(checked, std::size(kSelectPinned));

  for (const BatchPin& want : kBatchPinned) {
    for (Engine engine : {Engine::kEventDriven, Engine::kReference}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch p=" << want.p << " k=" << want.k
                   << " engine=" << static_cast<int>(engine));
      const BatchPin got =
          run_batch_pin(want.p, want.k, want.zipf, want.n, engine);
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(got.values[j], want.values[j]) << "rank slot " << j;
      }
      EXPECT_EQ(got.cycles, want.cycles);
      EXPECT_EQ(got.messages, want.messages);
      EXPECT_EQ(got.digest, want.digest);
    }
  }
}

}  // namespace
}  // namespace mcb::algo
