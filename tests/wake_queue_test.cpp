// Direct tests of the scheduler's wake queue against a brute-force oracle.
//
// The oracle is a std::multimap from wake cycle to processor id. Streams are
// driven the way Network::run_event_loop drives the queue: processors are
// registered relative to the cycle of the last drain, and each drain lands
// on a cycle no later than next_wake(). Every next_wake() answer and the
// exact content and id order of every drain must match the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "mcb/scheduler.hpp"

namespace mcb {
namespace {

// Distances around the spans of wheel levels 0..4 (64, 4096, 2^18, 2^24).
constexpr Cycle kDistances[] = {
    1, 2, 63, 64, 65, 4095, 4096, 4097, (Cycle{1} << 18) - 1,
    (Cycle{1} << 18) + 1, Cycle{1} << 24};

class OracleStream {
 public:
  OracleStream(std::size_t p, std::uint64_t seed)
      : sched_(p, 1), rng_(seed) {}

  Scheduler& sched() { return sched_; }
  Cycle now() const { return now_; }
  std::size_t drains() const { return drains_; }

  /// A wake distance: one of kDistances, or a random one up to 2^20.
  Cycle distance() {
    if (rng_() % 4 == 0) return 1 + rng_() % (Cycle{1} << 20);
    return kDistances[rng_() % std::size(kDistances)];
  }

  void schedule(ProcId id, Cycle d) {
    sched_.schedule_wake(id, now_ + d);
    oracle_.emplace(now_ + d, id);
  }

  /// Registers processors 0..count-1 with random distances.
  void schedule_all(std::size_t count) {
    for (ProcId id = 0; id < count; ++id) schedule(id, distance());
  }

  /// Forgets every pending wake on both sides and restarts at cycle 0.
  void reset() {
    sched_.reset();
    oracle_.clear();
    now_ = 0;
  }

  /// Checks next_wake(), drains at it (or, one time in four, at a cycle
  /// before it) and re-registers the drained processors — all of them when
  /// `keep`, else about seven in eight. Returns false once the queue is
  /// empty.
  bool step(bool keep = true) {
    EXPECT_EQ(sched_.queue_empty(), oracle_.empty()) << "at " << now_;
    if (oracle_.empty()) return false;
    const Cycle next = sched_.next_wake();
    EXPECT_EQ(next, oracle_.begin()->first) << "at " << now_;
    if (next != oracle_.begin()->first) return false;

    Cycle at = next;
    if (next > now_ + 1 && rng_() % 4 == 0) {
      at = now_ + 1 + rng_() % (next - now_ - 1);
    }
    std::vector<ProcId> want;
    auto [lo, hi] = oracle_.equal_range(at);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    oracle_.erase(lo, hi);
    std::sort(want.begin(), want.end());

    now_ = at;
    const std::vector<ProcId> got = sched_.drain_due(now_);
    ++drains_;
    EXPECT_EQ(got, want) << "drain at " << now_;
    for (ProcId id : got) {
      if (keep || rng_() % 8 != 0) schedule(id, distance());
    }
    return true;
  }

 private:
  Scheduler sched_;
  std::mt19937_64 rng_;
  std::multimap<Cycle, ProcId> oracle_;
  Cycle now_ = 0;
  std::size_t drains_ = 0;
};

TEST(WakeQueueTest, MatchesMultimapOracleOnRandomStreams) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    OracleStream s(64, seed);
    s.schedule_all(64);
    for (int i = 0; i < 3000 && s.step(); ++i) {
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(s.drains(), 3000u) << "seed " << seed;
  }
}

TEST(WakeQueueTest, DrainsRunUntilEmpty) {
  // Dropping about one drained processor in eight, the stream drains empty.
  OracleStream s(200, 9);
  s.schedule_all(200);
  while (s.step(/*keep=*/false)) {
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_TRUE(s.sched().queue_empty());
}

TEST(WakeQueueTest, FastForwardCrossesSeveralLevelsAtOnce) {
  Scheduler sched(8, 1);
  // One wake cycle 2^24 ahead registered out of id order, plus neighbours
  // one cycle either side. The jump to far - 1 changes digits 0..3 at once,
  // the step to far digits 0..4.
  const Cycle far = Cycle{1} << 24;
  sched.schedule_wake(5, far);
  sched.schedule_wake(2, far + 1);
  sched.schedule_wake(7, far - 1);
  sched.schedule_wake(1, far);
  sched.schedule_wake(3, 1);  // the next bucket
  EXPECT_EQ(sched.next_wake(), 1u);
  EXPECT_EQ(sched.drain_due(1), (std::vector<ProcId>{3}));
  EXPECT_EQ(sched.next_wake(), far - 1);
  EXPECT_EQ(sched.drain_due(far - 1), (std::vector<ProcId>{7}));
  // Registered at far - 1: wake `far` via the next bucket merges with the
  // two cascaded entries and the drain comes back id-sorted.
  sched.schedule_wake(4, far);
  EXPECT_EQ(sched.next_wake(), far);
  EXPECT_EQ(sched.drain_due(far), (std::vector<ProcId>{1, 4, 5}));
  EXPECT_EQ(sched.next_wake(), far + 1);
  EXPECT_EQ(sched.drain_due(far + 1), (std::vector<ProcId>{2}));
  EXPECT_TRUE(sched.queue_empty());
}

TEST(WakeQueueTest, TopLevelWakes) {
  // Wakes whose highest differing digit is in the top levels of a 64-bit
  // cycle, reached by one jump each.
  Scheduler sched(4, 1);
  const Cycle top = Cycle{1} << 62;
  const Cycle mid = (Cycle{1} << 40) + 12345;
  sched.schedule_wake(0, top + 3);
  sched.schedule_wake(1, mid);
  sched.schedule_wake(2, top + 3);
  EXPECT_EQ(sched.next_wake(), mid);
  EXPECT_EQ(sched.drain_due(mid), (std::vector<ProcId>{1}));
  EXPECT_EQ(sched.next_wake(), top + 3);
  EXPECT_EQ(sched.drain_due(top + 3), (std::vector<ProcId>{0, 2}));
  EXPECT_TRUE(sched.queue_empty());
}

/// Registers `runs` interleaved id groups for one far wake cycle, one group
/// per registration cycle (group g is g, g + runs, g + 2*runs, ...), so the
/// due slot holds `runs` id-sorted runs; a ticker processor, the highest
/// id, drains every cycle in between and joins the final drain through the
/// next bucket. Every drain is checked against a multimap oracle.
void check_drain_of_runs(std::size_t runs, std::size_t per_run) {
  SCOPED_TRACE(::testing::Message() << runs << " runs of " << per_run);
  const auto ticker = static_cast<ProcId>(runs * per_run);
  const Cycle wake = 5000;  // placed at wheel level 2, cascaded on the jump
  Scheduler sched(runs * per_run + 1, 1);
  std::multimap<Cycle, ProcId> oracle;
  Cycle now = 0;
  const auto schedule = [&](ProcId id, Cycle at) {
    sched.schedule_wake(id, at);
    oracle.emplace(at, id);
  };
  const auto drain = [&](Cycle at) {
    ASSERT_EQ(sched.next_wake(), oracle.begin()->first);
    std::vector<ProcId> want;
    auto [lo, hi] = oracle.equal_range(at);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    oracle.erase(lo, hi);
    std::sort(want.begin(), want.end());
    now = at;
    EXPECT_EQ(sched.drain_due(at), want) << "drain at " << at;
  };
  for (std::size_t g = 0; g < runs; ++g) {
    for (std::size_t i = 0; i < per_run; ++i) {
      schedule(static_cast<ProcId>(i * runs + g), wake);
    }
    schedule(ticker, now + 1);
    drain(now + 1);
  }
  schedule(ticker, wake - 1);
  drain(wake - 1);
  schedule(ticker, wake);
  drain(wake);
  EXPECT_TRUE(sched.queue_empty());
  EXPECT_TRUE(oracle.empty());
}

TEST(WakeQueueTest, DrainsOfSeveralRunsMatchOracle) {
  // Bucket plus 2 and 3 runs merge; the merge limit and one run past it;
  // many runs fall back to a sort.
  for (std::size_t runs : {1u, 2u, 3u, 7u, 8u, 40u}) {
    check_drain_of_runs(runs, 5);
    if (::testing::Test::HasFailure()) return;
  }
  // Runs of one entry each: every neighbouring pair is a descent.
  check_drain_of_runs(64, 1);
}

TEST(WakeQueueTest, ResetMidStreamThenReuse) {
  // Processor 48 is held back so the next bucket is occupied at the reset.
  OracleStream s(49, 21);
  s.schedule_all(48);
  for (int i = 0; i < 200 && s.step(); ++i) {
  }
  ASSERT_GT(s.now(), Cycle{1} << 12);
  s.schedule(48, 1);
  // Entries pending in both tiers are dropped; the same object then serves
  // a fresh stream from cycle 0.
  s.reset();
  EXPECT_TRUE(s.sched().queue_empty());
  s.schedule_all(49);
  for (int i = 0; i < 2000 && s.step(); ++i) {
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(s.drains(), 2200u);
}

}  // namespace
}  // namespace mcb
