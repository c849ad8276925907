// Tests of the Partial-Sums collective (Section 7.1): correctness against a
// prefix-scan oracle across operators and network shapes, plus the paper's
// O(p/k + log k) cycle and O(p) message bounds, a pin of the exact
// schedule, and the frame budget of one call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "algo/partial_sums.hpp"
#include "algo/runner.hpp"
#include "mcb/trace.hpp"
#include "trace_digest.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

struct PsOutcome {
  std::vector<PartialSumsResult> results;
  RunStats stats;
};

PsOutcome run_partial_sums(std::size_t p, std::size_t k,
                           const std::vector<Word>& values, const SumOp& op,
                           PartialSumsOptions opts = {}) {
  PsOutcome out;
  out.results.resize(p);
  Network net({.p = p, .k = k});
  auto prog = [](Proc& self, Word a, const SumOp& o, PartialSumsOptions po,
                 PartialSumsResult& res) -> ProcMain {
    res = co_await partial_sums(self, a, o, po);
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), values[i], op, opts, out.results[i]));
  }
  out.stats = net.run();
  return out;
}

class PartialSumsShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PartialSumsShapes, AddMatchesPrefixScan) {
  auto [p, k] = GetParam();
  util::Xoshiro256StarStar rng(p * 31 + k);
  std::vector<Word> values(p);
  for (auto& v : values) v = rng.uniform(-100, 100);

  auto out = run_partial_sums(p, k, values, SumOp::add(),
                              {.with_total = true, .with_next = true});

  Word prefix = 0;
  Word total = std::accumulate(values.begin(), values.end(), Word{0});
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_EQ(out.results[i].before, prefix) << "P" << i + 1;
    prefix += values[i];
    EXPECT_EQ(out.results[i].self, prefix) << "P" << i + 1;
    const Word next =
        i + 1 < p ? prefix + values[i + 1] : prefix;
    EXPECT_EQ(out.results[i].next, next) << "P" << i + 1;
    EXPECT_EQ(out.results[i].total, total) << "P" << i + 1;
  }
}

TEST_P(PartialSumsShapes, CycleAndMessageBounds) {
  auto [p, k] = GetParam();
  std::vector<Word> values(p, 1);
  auto out = run_partial_sums(p, k, values, SumOp::add(),
                              {.with_total = true, .with_next = true});
  // Paper: O(p/k + log k) cycles, O(p) messages. Constants here cover the
  // bottom-up + top-down phases plus both optional steps.
  std::size_t logk = 1;
  while ((std::size_t{1} << logk) < k) ++logk;
  const auto cycle_bound = 6 * (p / k + 1) + 4 * logk + 2;
  EXPECT_LE(out.stats.cycles, cycle_bound) << "p=" << p << " k=" << k;
  EXPECT_LE(out.stats.messages, 4 * p) << "p=" << p << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartialSumsShapes,
    ::testing::ValuesIn(std::vector<std::pair<std::size_t, std::size_t>>{
        {1, 1}, {2, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 2}, {7, 3}, {8, 2},
        {8, 8}, {13, 4}, {16, 4}, {31, 8}, {32, 8}, {33, 8}, {64, 1},
        {64, 16}, {100, 10}, {128, 32}}),
    [](const auto& pinfo) {
      // Built by append: operator+ chains over std::to_string temporaries
      // trip GCC 12's -Wrestrict false positive (PR105329) at -O3.
      std::string name = "p";
      name += std::to_string(pinfo.param.first);
      name += "_k";
      name += std::to_string(pinfo.param.second);
      return name;
    });

TEST(PartialSumsTest, MaxOperator) {
  const std::size_t p = 13, k = 4;
  util::Xoshiro256StarStar rng(5);
  std::vector<Word> values(p);
  for (auto& v : values) v = rng.uniform(-1000, 1000);
  auto out = run_partial_sums(p, k, values, SumOp::max(),
                              {.with_total = true});
  Word running = std::numeric_limits<Word>::min();
  for (std::size_t i = 0; i < p; ++i) {
    running = std::max(running, values[i]);
    EXPECT_EQ(out.results[i].self, running);
    EXPECT_EQ(out.results[i].total,
              *std::max_element(values.begin(), values.end()));
  }
}

TEST(PartialSumsTest, MinOperator) {
  const std::size_t p = 9, k = 3;
  std::vector<Word> values{5, -2, 8, 0, 3, -7, 4, 1, 2};
  auto out = run_partial_sums(p, k, values, SumOp::min());
  Word running = std::numeric_limits<Word>::max();
  for (std::size_t i = 0; i < p; ++i) {
    running = std::min(running, values[i]);
    EXPECT_EQ(out.results[i].self, running);
  }
}

TEST(PartialSumsTest, SingleProcessorShortCircuits) {
  auto out = run_partial_sums(1, 1, {42}, SumOp::add(),
                              {.with_total = true, .with_next = true});
  EXPECT_EQ(out.stats.cycles, 0u);
  EXPECT_EQ(out.stats.messages, 0u);
  EXPECT_EQ(out.results[0].before, 0);
  EXPECT_EQ(out.results[0].self, 42);
  EXPECT_EQ(out.results[0].next, 42);
  EXPECT_EQ(out.results[0].total, 42);
}

TEST(PartialSumsTest, ComposesSequentially) {
  // Two collectives back to back on the same network must not interfere:
  // the second runs over the outputs of the first.
  const std::size_t p = 8, k = 2;
  std::vector<Word> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<Word> finals(p);
  Network net({.p = p, .k = k});
  auto prog = [](Proc& self, Word a, Word& final_out) -> ProcMain {
    auto first = co_await partial_sums(self, a, SumOp::add());
    auto second = co_await partial_sums(self, first.self, SumOp::max());
    final_out = second.self;
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), values[i], finals[i]));
  }
  net.run();
  // First pass prefixes: 1,3,6,10,15,21,28,36 — monotone, so the running
  // max equals the prefix itself.
  std::vector<Word> expect{1, 3, 6, 10, 15, 21, 28, 36};
  EXPECT_EQ(finals, expect);
}

// One call's frame must fit the arena's 576-byte size class, the class the
// pair sort's frames already occupy and free before every partial-sums call
// in selection. The arena never moves freed blocks between classes, so a
// frame one class larger adds a class of its own to every processor's peak.
TEST(PartialSumsTest, FrameFitsSharedClass) {
  if (!MCB_FRAME_ARENA_ENABLED) GTEST_SKIP() << "arena off";
  const std::size_t p = 64, k = 4;
  const auto out = run_partial_sums(p, k, std::vector<Word>(p, 1),
                                    SumOp::add(),
                                    {.with_total = true, .with_next = true});
  EXPECT_LE(out.stats.arena_bytes_peak / p, 576u);
}

// --- schedule pin ------------------------------------------------------------
// Hard-coded from a known good build (trace_digest.hpp); the digest also
// covers every result.

struct PinCase {
  std::size_t p, k;
  unsigned opts;  ///< bit 0: with_total, bit 1: with_next
  bool max_op;    ///< SumOp::max() instead of SumOp::add()
  std::uint64_t cycles, messages, resumes, aux, digest;
};

PinCase run_pin_case(std::size_t p, std::size_t k, unsigned opts,
                     bool max_op) {
  util::Xoshiro256StarStar rng(p * 131 + k);
  std::vector<Word> values(p);
  for (auto& v : values) v = rng.uniform(-1000, 1000);
  const SumOp op = max_op ? SumOp::max() : SumOp::add();
  const PartialSumsOptions po{.with_total = (opts & 1u) != 0,
                              .with_next = (opts & 2u) != 0};

  DigestSink sink;
  std::vector<PartialSumsResult> results(p);
  Network net({.p = p, .k = k, .span_sink = &sink}, &sink);
  auto prog = [](Proc& self, Word a, const SumOp& o, PartialSumsOptions opt,
                 PartialSumsResult& res) -> ProcMain {
    res = co_await partial_sums(self, a, o, opt);
  };
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, prog(net.proc(i), values[i], op, po, results[i]));
  }
  const RunStats st = net.run();
  for (const PartialSumsResult& r : results) {
    sink.fnv.add(static_cast<std::uint64_t>(r.before));
    sink.fnv.add(static_cast<std::uint64_t>(r.self));
    sink.fnv.add(static_cast<std::uint64_t>(r.next));
    sink.fnv.add(static_cast<std::uint64_t>(r.total));
  }
  for (std::size_t w : st.peak_aux_words) sink.fnv.add(w);
  return {p,          k,           opts,           max_op,
          st.cycles,  st.messages, st.proc_resumes, st.max_peak_aux(),
          sink.fnv.value()};
}

// clang-format off
const PinCase kPinned[] = {
    // p, k, opts, max, cycles, messages, resumes, aux, digest
    {1, 1, 0, false, 0, 0, 1, 0, 0x83f2d7fe12330d2eull},
    {1, 1, 0, true, 0, 0, 1, 0, 0x11af3286e9cd31aeull},
    {1, 1, 1, false, 0, 0, 1, 0, 0x83f2d7fe12330d2eull},
    {1, 1, 1, true, 0, 0, 1, 0, 0x11af3286e9cd31aeull},
    {1, 1, 2, false, 0, 0, 1, 0, 0x83f2d7fe12330d2eull},
    {1, 1, 2, true, 0, 0, 1, 0, 0x11af3286e9cd31aeull},
    {1, 1, 3, false, 0, 0, 1, 0, 0x83f2d7fe12330d2eull},
    {1, 1, 3, true, 0, 0, 1, 0, 0x11af3286e9cd31aeull},
    {2, 1, 0, false, 2, 2, 6, 2, 0x9dc971722d28a013ull},
    {2, 1, 0, true, 2, 2, 6, 2, 0x791e6b6778f01c93ull},
    {2, 1, 1, false, 3, 3, 8, 2, 0xeaa722f5b505a65aull},
    {2, 1, 1, true, 3, 3, 8, 2, 0x4c0f058486d5ba19ull},
    {2, 1, 2, false, 3, 3, 8, 2, 0xd241299991ccf7feull},
    {2, 1, 2, true, 3, 3, 8, 2, 0x532cd3ec7098ee72ull},
    {2, 1, 3, false, 4, 4, 10, 2, 0xbf8fa9efa5b3484full},
    {2, 1, 3, true, 4, 4, 10, 2, 0x737eea43e2d51b78ull},
    {2, 2, 0, false, 2, 2, 6, 2, 0x666cc9658cb0f297ull},
    {2, 2, 0, true, 2, 2, 6, 2, 0x3e213e8355c13993ull},
    {2, 2, 1, false, 3, 3, 8, 2, 0x5e50040ead853dcaull},
    {2, 2, 1, true, 3, 3, 8, 2, 0x65d995cae9053b99ull},
    {2, 2, 2, false, 3, 3, 8, 2, 0x97bb716320d6eaaeull},
    {2, 2, 2, true, 3, 3, 8, 2, 0x3bd9f4e2c09c75faull},
    {2, 2, 3, false, 4, 4, 10, 2, 0x0df522f633ccf933ull},
    {2, 2, 3, true, 4, 4, 10, 2, 0xd3773039105754f0ull},
    {3, 1, 0, false, 6, 4, 18, 3, 0x91d59162de5716c4ull},
    {3, 1, 0, true, 6, 4, 18, 3, 0x2ddf03185c0d472cull},
    {3, 1, 1, false, 7, 5, 21, 3, 0x9dca29eb42e38c69ull},
    {3, 1, 1, true, 7, 5, 21, 3, 0x1b9ba5f03c837491ull},
    {3, 1, 2, false, 8, 6, 24, 3, 0xc7ac593a17552723ull},
    {3, 1, 2, true, 8, 6, 24, 3, 0x63e34af6eb5f1cb7ull},
    {3, 1, 3, false, 9, 7, 27, 3, 0xfa741b1815328ce2ull},
    {3, 1, 3, true, 9, 7, 27, 3, 0x91bc31a3ec442906ull},
    {3, 2, 0, false, 4, 4, 14, 3, 0xaad92aea9fadbfbeull},
    {3, 2, 0, true, 4, 4, 14, 3, 0x8a76cbc83ffffae2ull},
    {3, 2, 1, false, 5, 5, 17, 3, 0xff17132fec9fa32aull},
    {3, 2, 1, true, 5, 5, 17, 3, 0xf8596809b3555591ull},
    {3, 2, 2, false, 5, 6, 17, 3, 0xf87e3f0febbc197dull},
    {3, 2, 2, true, 5, 6, 17, 3, 0x28fcc16e66891e53ull},
    {3, 2, 3, false, 6, 7, 20, 3, 0x0d51accf96092bf2ull},
    {3, 2, 3, true, 6, 7, 20, 3, 0x8469d839b5ddb5c3ull},
    {3, 3, 0, false, 4, 4, 14, 3, 0x59d88eda1e6b4e3eull},
    {3, 3, 0, true, 4, 4, 14, 3, 0x1ff57147cbe57366ull},
    {3, 3, 1, false, 5, 5, 17, 3, 0x50330f75456ae390ull},
    {3, 3, 1, true, 5, 5, 17, 3, 0x5375d7bc574096b2ull},
    {3, 3, 2, false, 5, 6, 17, 3, 0x951c0b9c6d50653cull},
    {3, 3, 2, true, 5, 6, 17, 3, 0xf49dc8d770727ac3ull},
    {3, 3, 3, false, 6, 7, 20, 3, 0x8bcec4545a582319ull},
    {3, 3, 3, true, 6, 7, 20, 3, 0x5a0ff93e50120e84ull},
    {5, 1, 0, false, 14, 8, 40, 4, 0x3f06006dd442a15eull},
    {5, 1, 0, true, 14, 8, 40, 4, 0x56dba17394efccceull},
    {5, 1, 1, false, 15, 9, 45, 4, 0xddd07e77242bec5dull},
    {5, 1, 1, true, 15, 9, 45, 4, 0x9952e55bca1ef689ull},
    {5, 1, 2, false, 18, 12, 54, 4, 0x17e2ee67f4911dd5ull},
    {5, 1, 2, true, 18, 12, 54, 4, 0x5f12c9f438d40c56ull},
    {5, 1, 3, false, 19, 13, 59, 4, 0x571699c339ccd71eull},
    {5, 1, 3, true, 19, 13, 59, 4, 0x307daed7aac44051ull},
    {5, 2, 0, false, 8, 8, 34, 4, 0xa96b7d18750230a1ull},
    {5, 2, 0, true, 8, 8, 34, 4, 0x92f08cd59f092e19ull},
    {5, 2, 1, false, 9, 9, 39, 4, 0xba06eee5890deffbull},
    {5, 2, 1, true, 9, 9, 39, 4, 0x92d59570f3175c11ull},
    {5, 2, 2, false, 10, 12, 44, 4, 0x473282b722422ae7ull},
    {5, 2, 2, true, 10, 12, 44, 4, 0x6956c13af9f8957eull},
    {5, 2, 3, false, 11, 13, 49, 4, 0xdcfe795e89296f03ull},
    {5, 2, 3, true, 11, 13, 49, 4, 0xc111cbcd0313a340ull},
    {5, 3, 0, false, 8, 8, 34, 4, 0xf685535f7013642aull},
    {5, 3, 0, true, 8, 8, 34, 4, 0xa82562321ccee3d6ull},
    {5, 3, 1, false, 9, 9, 39, 4, 0xd0de9acf37399140ull},
    {5, 3, 1, true, 9, 9, 39, 4, 0xf6d3a7ae7095ffe4ull},
    {5, 3, 2, false, 10, 12, 44, 4, 0xd7eae0ed8af6689full},
    {5, 3, 2, true, 10, 12, 44, 4, 0x8b57a40495d50faaull},
    {5, 3, 3, false, 11, 13, 49, 4, 0x9cb9576b6f7baa61ull},
    {5, 3, 3, true, 11, 13, 49, 4, 0x84ddeba7051ba668ull},
    {5, 5, 0, false, 6, 8, 27, 4, 0x1677b61f2061c193ull},
    {5, 5, 0, true, 6, 8, 27, 4, 0x048771df3b976d2full},
    {5, 5, 1, false, 7, 9, 32, 4, 0xda5c253ecbbae22eull},
    {5, 5, 1, true, 7, 9, 32, 4, 0xc7f018f16affa8ffull},
    {5, 5, 2, false, 7, 12, 32, 4, 0x260dd30530df15f5ull},
    {5, 5, 2, true, 7, 12, 32, 4, 0xa10b7de79434efb8ull},
    {5, 5, 3, false, 8, 13, 37, 4, 0x6d73d835e79e6f27ull},
    {5, 5, 3, true, 8, 13, 37, 4, 0x2b9e287525d26f4bull},
    {8, 1, 0, false, 14, 14, 64, 4, 0x8a02d36f65220a2bull},
    {8, 1, 0, true, 14, 14, 64, 4, 0x0e77817145157b93ull},
    {8, 1, 1, false, 15, 15, 72, 4, 0x9df52d93af1302ebull},
    {8, 1, 1, true, 15, 15, 72, 4, 0x0c810bbb381a5f1full},
    {8, 1, 2, false, 21, 21, 90, 4, 0xc91d17eace9a54eaull},
    {8, 1, 2, true, 21, 21, 90, 4, 0x8f9d9ab8dcceee84ull},
    {8, 1, 3, false, 22, 22, 98, 4, 0xf586835e66937522ull},
    {8, 1, 3, true, 22, 22, 98, 4, 0x952b094af067885cull},
    {8, 2, 0, false, 8, 14, 54, 4, 0xe72d84a6e389a935ull},
    {8, 2, 0, true, 8, 14, 54, 4, 0x5a6cc42992686c59ull},
    {8, 2, 1, false, 9, 15, 62, 4, 0x86860a821f6decc8ull},
    {8, 2, 1, true, 9, 15, 62, 4, 0x29f184290e36c808ull},
    {8, 2, 2, false, 12, 21, 76, 4, 0xbbee4a465691aa76ull},
    {8, 2, 2, true, 12, 21, 76, 4, 0x6cfa16c373a5242dull},
    {8, 2, 3, false, 13, 22, 84, 4, 0x5250858488d68c1aull},
    {8, 2, 3, true, 13, 22, 84, 4, 0x736c957b8e66d0e9ull},
    {8, 4, 0, false, 6, 14, 42, 4, 0x695c53a1d5225503ull},
    {8, 4, 0, true, 6, 14, 42, 4, 0xaa639b1d76bea0b3ull},
    {8, 4, 1, false, 7, 15, 50, 4, 0xca75a826debb78cbull},
    {8, 4, 1, true, 7, 15, 50, 4, 0x0e6a5d245eebd752ull},
    {8, 4, 2, false, 8, 21, 58, 4, 0xa7c169f0feead2e1ull},
    {8, 4, 2, true, 8, 21, 58, 4, 0xcc21aa61592b388eull},
    {8, 4, 3, false, 9, 22, 66, 4, 0x5c7020704887e44aull},
    {8, 4, 3, true, 9, 22, 66, 4, 0x5519a96ea06471c4ull},
    {8, 8, 0, false, 6, 14, 42, 4, 0xfe2b7aaa654abcbfull},
    {8, 8, 0, true, 6, 14, 42, 4, 0xcade023a953102bfull},
    {8, 8, 1, false, 7, 15, 50, 4, 0x70783c961359b311ull},
    {8, 8, 1, true, 7, 15, 50, 4, 0xc0bea1973b3e00bbull},
    {8, 8, 2, false, 7, 21, 50, 4, 0x0a31cf7e8f72f953ull},
    {8, 8, 2, true, 7, 21, 50, 4, 0xfbc5001898d50619ull},
    {8, 8, 3, false, 8, 22, 58, 4, 0xcd74405fd3bff0b5ull},
    {8, 8, 3, true, 8, 22, 58, 4, 0xae6501d8b3c25bb1ull},
    {13, 1, 0, false, 30, 24, 120, 5, 0x38bba1e81a80b3c9ull},
    {13, 1, 0, true, 30, 24, 120, 5, 0x47e6b62681b70665ull},
    {13, 1, 1, false, 31, 25, 133, 5, 0x5ab867dcf166092dull},
    {13, 1, 1, true, 31, 25, 133, 5, 0xf0b2b3fce676dc50ull},
    {13, 1, 2, false, 42, 36, 166, 5, 0xa7f119abe19dd472ull},
    {13, 1, 2, true, 42, 36, 166, 5, 0x019f927346fa7bebull},
    {13, 1, 3, false, 43, 37, 179, 5, 0xc6634436403f06feull},
    {13, 1, 3, true, 43, 37, 179, 5, 0x635fb445d093e662ull},
    {13, 2, 0, false, 16, 24, 112, 5, 0xcab8529d527488a9ull},
    {13, 2, 0, true, 16, 24, 112, 5, 0xcc2cf6a34cc45759ull},
    {13, 2, 1, false, 17, 25, 125, 5, 0xd10b585b3ba8a36eull},
    {13, 2, 1, true, 17, 25, 125, 5, 0x4bec32f6bfc00d57ull},
    {13, 2, 2, false, 22, 36, 150, 5, 0x4402ae0d394fb2dbull},
    {13, 2, 2, true, 22, 36, 150, 5, 0xab0cc155671d42d3ull},
    {13, 2, 3, false, 23, 37, 163, 5, 0x03d458df63e976aaull},
    {13, 2, 3, true, 23, 37, 163, 5, 0x3cfc5e2a0e40066bull},
    {13, 7, 0, false, 10, 24, 94, 5, 0xbbee350c86425f37ull},
    {13, 7, 0, true, 10, 24, 94, 5, 0x918152e409d7dd57ull},
    {13, 7, 1, false, 11, 25, 107, 5, 0xbfd01cfe65a661b8ull},
    {13, 7, 1, true, 11, 25, 107, 5, 0x9996fcc07791e462ull},
    {13, 7, 2, false, 12, 36, 120, 5, 0x87b5e29667b3af4full},
    {13, 7, 2, true, 12, 36, 120, 5, 0x325ee110f75f5c98ull},
    {13, 7, 3, false, 13, 37, 133, 5, 0x62fdab89d824a2bcull},
    {13, 7, 3, true, 13, 37, 133, 5, 0x7d12cfc3d750d4fdull},
    {13, 13, 0, false, 8, 24, 75, 5, 0x3731695f426bb526ull},
    {13, 13, 0, true, 8, 24, 75, 5, 0x287e232f48c4af56ull},
    {13, 13, 1, false, 9, 25, 88, 5, 0xb6c0fe21a509be94ull},
    {13, 13, 1, true, 9, 25, 88, 5, 0xb90e46f0da0b2788ull},
    {13, 13, 2, false, 9, 36, 88, 5, 0x5d0b12922f28e12dull},
    {13, 13, 2, true, 9, 36, 88, 5, 0x5cd8369b851be580ull},
    {13, 13, 3, false, 10, 37, 101, 5, 0x58f963a643f73160ull},
    {13, 13, 3, true, 10, 37, 101, 5, 0xe2c102e511e995a5ull},
    {64, 1, 0, false, 126, 126, 624, 7, 0x19b7a6d194156c53ull},
    {64, 1, 0, true, 126, 126, 624, 7, 0x3605a77c72824b77ull},
    {64, 1, 1, false, 127, 127, 688, 7, 0x4700c6764a9147d7ull},
    {64, 1, 1, true, 127, 127, 688, 7, 0xc6a8dd28f28bdf58ull},
    {64, 1, 2, false, 189, 189, 874, 7, 0x94cbc52acf314a03ull},
    {64, 1, 2, true, 189, 189, 874, 7, 0x4a7df035e7fffa54ull},
    {64, 1, 3, false, 190, 190, 938, 7, 0x771d5d7c71c0c3e7ull},
    {64, 1, 3, true, 190, 190, 938, 7, 0x0f2bd27e86619917ull},
    {64, 2, 0, false, 64, 126, 614, 7, 0x8157cd99c5d54821ull},
    {64, 2, 0, true, 64, 126, 614, 7, 0xb648721dd80cd9d1ull},
    {64, 2, 1, false, 65, 127, 678, 7, 0x64a38bd519d96f84ull},
    {64, 2, 1, true, 65, 127, 678, 7, 0x178482a058d1051bull},
    {64, 2, 2, false, 96, 189, 832, 7, 0xa6e4a0fb1b73710full},
    {64, 2, 2, true, 96, 189, 832, 7, 0x471c686aa983477dull},
    {64, 2, 3, false, 97, 190, 896, 7, 0xff279d6432a140cbull},
    {64, 2, 3, true, 97, 190, 896, 7, 0x0b1f42577076cbfeull},
    {64, 32, 0, false, 12, 126, 378, 7, 0x76c2ced97efd9f89ull},
    {64, 32, 0, true, 12, 126, 378, 7, 0x8d55ae4b2d7fa445ull},
    {64, 32, 1, false, 13, 127, 442, 7, 0x6eb50dc7d0c92ce2ull},
    {64, 32, 1, true, 13, 127, 442, 7, 0xeee75b6ee1c67657ull},
    {64, 32, 2, false, 14, 189, 506, 7, 0x5e2b0ada68904806ull},
    {64, 32, 2, true, 14, 189, 506, 7, 0x1c55a9e68b592a87ull},
    {64, 32, 3, false, 15, 190, 570, 7, 0xc46da22558569ef2ull},
    {64, 32, 3, true, 15, 190, 570, 7, 0xb4294d8c4cf24406ull},
    {64, 64, 0, false, 12, 126, 378, 7, 0x213f008f15bf9fe5ull},
    {64, 64, 0, true, 12, 126, 378, 7, 0x749d9811fe029625ull},
    {64, 64, 1, false, 13, 127, 442, 7, 0x385f165ec73dd617ull},
    {64, 64, 1, true, 13, 127, 442, 7, 0x8a6127c3d0844094ull},
    {64, 64, 2, false, 13, 189, 442, 7, 0xa1d499a4afbc421eull},
    {64, 64, 2, true, 13, 189, 442, 7, 0xb28ffa9c5fedeab0ull},
    {64, 64, 3, false, 14, 190, 506, 7, 0xfe0564eda5d0f870ull},
    {64, 64, 3, true, 14, 190, 506, 7, 0xb72b0c692b5416a9ull},
    {100, 1, 0, false, 254, 198, 992, 8, 0x166ac2ecb6c225e7ull},
    {100, 1, 0, true, 254, 198, 992, 8, 0x425115523ebe66cbull},
    {100, 1, 1, false, 255, 199, 1092, 8, 0xea4f181357ce5985ull},
    {100, 1, 1, true, 255, 199, 1092, 8, 0x1c2be790a6e4a0d5ull},
    {100, 1, 2, false, 353, 297, 1386, 8, 0x94507479c86905e4ull},
    {100, 1, 2, true, 353, 297, 1386, 8, 0x29be57bd2a483210ull},
    {100, 1, 3, false, 354, 298, 1486, 8, 0x84d103b191195ab6ull},
    {100, 1, 3, true, 354, 298, 1486, 8, 0xaf19f444d407ea62ull},
    {100, 2, 0, false, 128, 198, 984, 8, 0xb2fb099154583c8dull},
    {100, 2, 0, true, 128, 198, 984, 8, 0x2cb65e6b62764e79ull},
    {100, 2, 1, false, 129, 199, 1084, 8, 0x9d3a07e11cb1d91aull},
    {100, 2, 1, true, 129, 199, 1084, 8, 0xaa23bafa66cf012dull},
    {100, 2, 2, false, 178, 297, 1328, 8, 0x108e075f3ad516d8ull},
    {100, 2, 2, true, 178, 297, 1328, 8, 0x649f7d25f93bf661ull},
    {100, 2, 3, false, 179, 298, 1428, 8, 0xb9b28a811340bbe0ull},
    {100, 2, 3, true, 179, 298, 1428, 8, 0xb526dda4040c8932ull},
    {100, 50, 0, false, 16, 198, 748, 8, 0xe86bc2b93f86f003ull},
    {100, 50, 0, true, 16, 198, 748, 8, 0x950739ebe57ba323ull},
    {100, 50, 1, false, 17, 199, 848, 8, 0x1f6477069d860ec8ull},
    {100, 50, 1, true, 17, 199, 848, 8, 0xe55d2a8fe0f6272dull},
    {100, 50, 2, false, 18, 297, 948, 8, 0x4eb5f48c6c6f5007ull},
    {100, 50, 2, true, 18, 297, 948, 8, 0x3a6758fefbcdf11aull},
    {100, 50, 3, false, 19, 298, 1048, 8, 0x6efccd94ded4b2fbull},
    {100, 50, 3, true, 19, 298, 1048, 8, 0x5eb8fee5993985a3ull},
    {100, 100, 0, false, 14, 198, 598, 8, 0x6389d290b6a7da1eull},
    {100, 100, 0, true, 14, 198, 598, 8, 0xe6c104862040df5aull},
    {100, 100, 1, false, 15, 199, 698, 8, 0xb3f50d166dc94dfdull},
    {100, 100, 1, true, 15, 199, 698, 8, 0xcc54974e5e4eee65ull},
    {100, 100, 2, false, 15, 297, 698, 8, 0x054f24fe1a947944ull},
    {100, 100, 2, true, 15, 297, 698, 8, 0xb4048d3ee73235f1ull},
    {100, 100, 3, false, 16, 298, 798, 8, 0x10ab3f26b0c37023ull},
    {100, 100, 3, true, 16, 298, 798, 8, 0xd5b909aa94087daeull},
    {256, 1, 0, false, 510, 510, 2544, 9, 0x336f217e20854d97ull},
    {256, 1, 0, true, 510, 510, 2544, 9, 0xb35778683eee9ddbull},
    {256, 1, 1, false, 511, 511, 2800, 9, 0x540dec76954c9718ull},
    {256, 1, 1, true, 511, 511, 2800, 9, 0xd2aa2621c6abed3dull},
    {256, 1, 2, false, 765, 765, 3562, 9, 0x1fdadba43f4b3b87ull},
    {256, 1, 2, true, 765, 765, 3562, 9, 0x7d4928c544b143f0ull},
    {256, 1, 3, false, 766, 766, 3818, 9, 0x9be067c5a2af6158ull},
    {256, 1, 3, true, 766, 766, 3818, 9, 0x519d621c1bf1341eull},
    {256, 2, 0, false, 256, 510, 2534, 9, 0x8a24166a031e1039ull},
    {256, 2, 0, true, 256, 510, 2534, 9, 0x2f8b65013e632b61ull},
    {256, 2, 1, false, 257, 511, 2790, 9, 0xccdbc167758d94c5ull},
    {256, 2, 1, true, 257, 511, 2790, 9, 0xd4a34f7a3961d65bull},
    {256, 2, 2, false, 384, 765, 3424, 9, 0x8085a4fc80474cdcull},
    {256, 2, 2, true, 384, 765, 3424, 9, 0x9c54d10138ab7a81ull},
    {256, 2, 3, false, 385, 766, 3680, 9, 0x15057a6d290a9311ull},
    {256, 2, 3, true, 385, 766, 3680, 9, 0xc7de3b2fcd15f25aull},
    {256, 128, 0, false, 16, 510, 1530, 9, 0xa5cad2d1fbdeba72ull},
    {256, 128, 0, true, 16, 510, 1530, 9, 0xe2930ecf225e47caull},
    {256, 128, 1, false, 17, 511, 1786, 9, 0xaca0f189f6551497ull},
    {256, 128, 1, true, 17, 511, 1786, 9, 0xc08efeef9730a965ull},
    {256, 128, 2, false, 18, 765, 2042, 9, 0x9fa25e37c0205523ull},
    {256, 128, 2, true, 18, 765, 2042, 9, 0x096621f7471095d8ull},
    {256, 128, 3, false, 19, 766, 2298, 9, 0xd168537f3130f129ull},
    {256, 128, 3, true, 19, 766, 2298, 9, 0xe9ad8fc4ef04bd88ull},
    {256, 256, 0, false, 16, 510, 1530, 9, 0x756840f3ea42f372ull},
    {256, 256, 0, true, 16, 510, 1530, 9, 0x38dd3a04f271c70aull},
    {256, 256, 1, false, 17, 511, 1786, 9, 0x304864ffc9dae76dull},
    {256, 256, 1, true, 17, 511, 1786, 9, 0x30c94d9b32ddca6cull},
    {256, 256, 2, false, 17, 765, 1786, 9, 0x76056c0b77a6b0afull},
    {256, 256, 2, true, 17, 765, 1786, 9, 0x607428032b69bf3cull},
    {256, 256, 3, false, 18, 766, 2042, 9, 0x66a41f9d73ea1a3cull},
    {256, 256, 3, true, 18, 766, 2042, 9, 0xa7b3c2b47d02b1d2ull}
};
// clang-format on

TEST(PartialSumsTest, SchedulePinnedAcrossShapesOptionsAndOperators) {
  std::size_t checked = 0;
  for (std::size_t p : {1u, 2u, 3u, 5u, 8u, 13u, 64u, 100u, 256u}) {
    std::vector<std::size_t> ks;
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, (p + 1) / 2, p}) {
      if (k <= p && std::find(ks.begin(), ks.end(), k) == ks.end()) {
        ks.push_back(k);
      }
    }
    for (std::size_t k : ks) {
      for (unsigned opts = 0; opts < 4; ++opts) {
        for (bool max_op : {false, true}) {
          const PinCase got = run_pin_case(p, k, opts, max_op);
          ASSERT_LT(checked, std::size(kPinned)) << "grid outgrew the pins";
          const PinCase& want = kPinned[checked++];
          ASSERT_EQ(want.p, p);
          ASSERT_EQ(want.k, k);
          ASSERT_EQ(want.opts, opts);
          ASSERT_EQ(want.max_op, max_op);
          SCOPED_TRACE(::testing::Message() << "p=" << p << " k=" << k
                                            << " opts=" << opts
                                            << " max=" << max_op);
          EXPECT_EQ(got.cycles, want.cycles);
          EXPECT_EQ(got.messages, want.messages);
          EXPECT_EQ(got.resumes, want.resumes);
          EXPECT_EQ(got.aux, want.aux);
          EXPECT_EQ(got.digest, want.digest);
        }
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

}  // namespace
}  // namespace mcb::algo
