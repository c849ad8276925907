// Burst equivalence: Proc::burst runs n acts in n consecutive cycles with
// one suspension, and must be observationally identical to the same acts
// awaited one cycle() at a time.
//
// The programs replay seeded random act scripts: writes on every channel,
// reads of written and silent channels, idle acts and idle stretches. The
// burst program cuts its script into bursts of 1, 2, 63, 64 and 65 acts, a
// mix of them, or one burst of the whole run, and sleeps through all-idle
// bursts instead. Against the per-cycle program, on both engines, it must
// give equal stats (proc_resumes aside: saving resumes is the point), equal
// trace streams and equal read results, and a collision inside a burst must
// raise the same CollisionError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "mcb/errors.hpp"
#include "mcb/network.hpp"
#include "mcb/trace.hpp"

namespace mcb {
namespace {

constexpr std::size_t kP = 6;
constexpr std::size_t kK = 3;
constexpr std::size_t kCycles = 300;
constexpr std::size_t kWholeRun = kCycles;

using Script = std::vector<std::vector<Act>>;  // [proc][cycle]
using Reads = std::vector<std::vector<Proc::ReadResult>>;

/// kP processors by kCycles acts. Every cycle each channel gets at most one
/// writer, so the script is collision-free; a processor reads a random
/// channel half the time, which is often a silent one. Cycles [100, 180)
/// are idle everywhere, so some bursts hold nothing but idle acts.
Script random_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Script acts(kP, std::vector<Act>(kCycles));
  std::vector<ProcId> order(kP);
  for (std::size_t t = 0; t < kCycles; ++t) {
    if (t >= 100 && t < 180) continue;
    std::iota(order.begin(), order.end(), ProcId{0});
    std::shuffle(order.begin(), order.end(), rng);
    for (ChannelId c = 0; c < kK; ++c) {
      if (rng() % 3 == 0) continue;
      Act& a = acts[order[c]][t];
      a.write = c;
      a.msg = Message::of(static_cast<Word>(t), static_cast<Word>(c),
                          static_cast<Word>(order[c]));
    }
    for (auto& row : acts) {
      if (rng() % 2 == 0) row[t].read = static_cast<ChannelId>(rng() % kK);
    }
  }
  return acts;
}

ProcMain per_cycle_program(Proc& self, const std::vector<Act>& acts,
                           std::vector<Proc::ReadResult>& out) {
  if (self.id() == 0) self.mark_phase("acts");
  self.note_aux(acts.size());
  for (const Act& a : acts) {
    std::optional<WriteOp> write;
    if (a.write != kNoChannel) write = WriteOp{a.write, a.msg};
    std::optional<ChannelId> read;
    if (a.read != kNoChannel) read = a.read;
    out.push_back(co_await self.cycle(write, read));
  }
}

/// Replays `acts` in bursts whose lengths cycle through `lengths`, starting
/// at entry `id % lengths.size()` so the processors' bursts are out of step.
ProcMain burst_program(Proc& self, const std::vector<Act>& acts,
                       const std::vector<std::size_t>& lengths,
                       std::vector<Proc::ReadResult>& out) {
  if (self.id() == 0) self.mark_phase("acts");
  self.note_aux(acts.size());
  std::size_t next = self.id();
  for (std::size_t t = 0; t < acts.size();) {
    const std::size_t len =
        std::min(lengths[next++ % lengths.size()], acts.size() - t);
    const auto first = acts.begin() + static_cast<std::ptrdiff_t>(t);
    const auto last = first + static_cast<std::ptrdiff_t>(len);
    if (std::all_of(first, last, [](const Act& a) {
          return a.write == kNoChannel && a.read == kNoChannel;
        })) {
      co_await self.skip(len);
      out.insert(out.end(), len, std::nullopt);
    } else {
      std::copy(first, last, self.burst_acts(len).begin());
      const std::span<const Proc::ReadResult> got = co_await self.burst();
      EXPECT_EQ(got.size(), len);
      out.insert(out.end(), got.begin(), got.end());
    }
    t += len;
  }
}

struct Outcome {
  RunStats stats;
  std::vector<CycleEvent> events;
  Reads reads;
};

/// Runs `script` per cycle (empty `lengths`) or in bursts.
Outcome run(const Script& script, Engine engine,
            const std::vector<std::size_t>& lengths) {
  SimConfig cfg{.p = kP, .k = kK};
  cfg.engine = engine;
  ChannelTrace trace(1u << 20);
  Outcome out;
  out.reads.resize(kP);
  Network net(cfg, &trace);
  for (ProcId i = 0; i < kP; ++i) {
    net.install(i, lengths.empty()
                       ? per_cycle_program(net.proc(i), script[i],
                                           out.reads[i])
                       : burst_program(net.proc(i), script[i], lengths,
                                       out.reads[i]));
  }
  out.stats = net.run();
  EXPECT_FALSE(trace.truncated());
  out.events = trace.events();
  return out;
}

void expect_same_events(const std::vector<CycleEvent>& a,
                        const std::vector<CycleEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << "event " << i;
    EXPECT_EQ(a[i].proc, b[i].proc) << "event " << i;
    EXPECT_EQ(a[i].wrote, b[i].wrote) << "event " << i;
    EXPECT_EQ(a[i].sent, b[i].sent) << "event " << i;
    EXPECT_EQ(a[i].read, b[i].read) << "event " << i;
    EXPECT_EQ(a[i].received, b[i].received) << "event " << i;
    EXPECT_EQ(a[i].read_all, b[i].read_all) << "event " << i;
  }
}

/// Everything but proc_resumes.
void expect_same_outcome(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(want.stats.cycles, got.stats.cycles);
  EXPECT_EQ(want.stats.messages, got.stats.messages);
  EXPECT_EQ(want.stats.messages_per_proc, got.stats.messages_per_proc);
  EXPECT_EQ(want.stats.messages_per_channel, got.stats.messages_per_channel);
  EXPECT_EQ(want.stats.peak_aux_words, got.stats.peak_aux_words);
  ASSERT_EQ(want.stats.phases.size(), got.stats.phases.size());
  for (std::size_t i = 0; i < want.stats.phases.size(); ++i) {
    EXPECT_EQ(want.stats.phases[i].name, got.stats.phases[i].name);
    EXPECT_EQ(want.stats.phases[i].first_cycle,
              got.stats.phases[i].first_cycle);
    EXPECT_EQ(want.stats.phases[i].cycles, got.stats.phases[i].cycles);
    EXPECT_EQ(want.stats.phases[i].messages, got.stats.phases[i].messages);
  }
  expect_same_events(want.events, got.events);
  EXPECT_EQ(want.reads, got.reads);
}

const std::vector<std::vector<std::size_t>> kLengthGrid = {
    {1}, {2}, {63}, {64}, {65}, {1, 2, 63, 64, 65}, {kWholeRun}};

std::string label(Engine e, const std::vector<std::size_t>& lengths) {
  std::string s = e == Engine::kEventDriven ? "event" : "reference";
  for (std::size_t len : lengths) {
    s += ' ';
    s += std::to_string(len);
  }
  return s;
}

TEST(BurstTest, MatchesPerCycleActsOnBothEngines) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Script script = random_script(seed);
    const Outcome want = run(script, Engine::kReference, {});
    // The script really exercises what it should.
    ASSERT_EQ(want.stats.cycles, kCycles);
    ASSERT_GT(want.stats.messages, kCycles);
    EXPECT_EQ(want.stats.proc_resumes, kP * (kCycles + 1));
    std::size_t silent_reads = 0;
    for (const CycleEvent& ev : want.events) {
      if (ev.read && !ev.received) ++silent_reads;
    }
    ASSERT_GT(silent_reads, 0u);
    for (Engine engine : {Engine::kReference, Engine::kEventDriven}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " "
                                        << label(engine, {}));
      expect_same_outcome(want, run(script, engine, {}));
      for (const auto& lengths : kLengthGrid) {
        SCOPED_TRACE(label(engine, lengths));
        const Outcome got = run(script, engine, lengths);
        expect_same_outcome(want, got);
        if (lengths.front() > 1) {
          EXPECT_LT(got.stats.proc_resumes, want.stats.proc_resumes);
        }
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(BurstTest, WholeRunBurstResumesOnce) {
  // One burst per processor: the initial resume, the one after the burst,
  // and nothing in between, on both engines.
  const Script script = random_script(4);
  for (Engine engine : {Engine::kReference, Engine::kEventDriven}) {
    const Outcome got = run(script, engine, {kWholeRun});
    EXPECT_EQ(got.stats.proc_resumes, 2 * kP) << label(engine, {});
  }
}

TEST(BurstTest, CollisionInsideBurstMatchesPerCycle) {
  // Processors 2 and 4 both write channel 1 in cycle 130, mid-burst for
  // every length in the grid; nobody else writes it then.
  Script script = random_script(5);
  constexpr std::size_t kAt = 130;
  for (auto& row : script) {
    if (row[kAt].write == 1) row[kAt].write = kNoChannel;
  }
  for (ProcId i : {ProcId{2}, ProcId{4}}) {
    script[i][kAt].write = 1;
    script[i][kAt].msg = Message::of(Word{-1});
  }
  const auto collide = [&](Engine engine,
                           const std::vector<std::size_t>& lengths) {
    try {
      run(script, engine, lengths);
    } catch (const CollisionError& e) {
      return std::vector<std::uint64_t>{e.cycle(), e.channel(),
                                        e.first_writer(), e.second_writer()};
    }
    ADD_FAILURE() << "no collision: " << label(engine, lengths);
    return std::vector<std::uint64_t>{};
  };
  const auto want = collide(Engine::kReference, {});
  ASSERT_EQ(want, (std::vector<std::uint64_t>{kAt, 1, 2, 4}));
  for (Engine engine : {Engine::kReference, Engine::kEventDriven}) {
    EXPECT_EQ(collide(engine, {}), want) << label(engine, {});
    for (const auto& lengths : kLengthGrid) {
      EXPECT_EQ(collide(engine, lengths), want) << label(engine, lengths);
    }
  }
}

TEST(BurstTest, RejectsOutOfRangeChannels) {
  SimConfig cfg{.p = 2, .k = 2};
  for (ChannelId bad : {ChannelId{2}, ChannelId{1000}}) {
    for (bool write : {true, false}) {
      Network net(cfg);
      auto prog = [](Proc& self, ChannelId ch, bool w) -> ProcMain {
        const std::span<Act> acts = self.burst_acts(3);
        if (self.id() == 0) {
          (w ? acts[1].write : acts[1].read) = ch;
        }
        co_await self.burst();
      };
      for (ProcId i = 0; i < 2; ++i) {
        net.install(i, prog(net.proc(i), bad, write));
      }
      EXPECT_THROW(net.run(), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace mcb
