#include "mcb/scheduler.hpp"

#include <iterator>

#include "util/check.hpp"

namespace mcb {

Scheduler::Scheduler(std::size_t p, std::size_t k)
    : link_(p, kNil), wake_(p, 0) {
  next_bucket_.reserve(p);
  drain_entries_.reserve(p);
  merge_scratch_.reserve(p);
  active_.reserve(p);
  dirty_.reserve(k);
}

void Scheduler::reset() {
  next_bucket_.clear();
  for (auto& level : slots_) level.fill(Slot{});
  mask_.fill(0);
  cur_ = 0;
  pending_ = 0;
  drain_entries_.clear();
  active_.clear();
  dirty_.clear();
}

ProcId Scheduler::take(unsigned level, unsigned s) {
  const ProcId head = slots_[level][s].head;
  slots_[level][s] = Slot{};
  mask_[level] &= ~(std::uint64_t{1} << s);
  return head;
}

Cycle Scheduler::next_wake() const {
  if (!next_bucket_.empty()) return cur_ + 1;
  // Level-L entries all exceed the current cycle at digit L while agreeing
  // with it above, so they wake before any entry of a higher level: the
  // lowest occupied slot of the lowest non-empty level holds the minimum.
  for (std::size_t level = 0; level < kLevels; ++level) {
    if (mask_[level] != 0) {
      const auto s = static_cast<unsigned>(std::countr_zero(mask_[level]));
      return slots_[level][s].min_wake;
    }
  }
  MCB_CHECK(false, "next_wake on an empty queue");
  return cur_;
}

const std::vector<ProcId>& Scheduler::drain_due(Cycle now) {
  // The next bucket is id-sorted by construction; swapping it out recycles
  // the previous drain's capacity as the fresh next bucket.
  drain_entries_.clear();
  std::swap(drain_entries_, next_bucket_);

  // Cascade. Entering a new block at level H > 0 re-places the slot `now`
  // enters there; no entry lies below level H (it would wake before `now`),
  // so that slot is the only one that can hold wakes in the new block.
  const Cycle diff = cur_ ^ now;
  cur_ = now;
  if (diff >= kSlots) {
    const unsigned level = level_of(diff);
    for (ProcId id = take(level, digit(now, level)); id != kNil;) {
      const ProcId next = link_[id];
      place(id, wake_[id]);
      id = next;
    }
  }

  // Every entry of the level-0 slot for `now` wakes at `now` exactly.
  // Entries arrive across several registration cycles, each registering
  // drain appending an id-sorted run, so the drain is the bucket's run
  // followed by the slot's runs. It is put back in id order only when it
  // has more than one run.
  const std::size_t bucket = drain_entries_.size();
  for (ProcId id = take(0, digit(now, 0)); id != kNil; id = link_[id]) {
    drain_entries_.push_back(id);
  }
  if (drain_entries_.size() > bucket) sort_runs();
  pending_ -= drain_entries_.size();
  return drain_entries_;
}

void Scheduler::sort_runs() {
  // Run starts, after the first run. Past kMaxMergeRuns runs a merge pass
  // per run would cost more than one sort (p-sized drains can hold
  // thousands of runs), so those drains are sorted outright.
  std::array<std::size_t, kMaxMergeRuns> starts{};
  std::size_t runs = 1;
  for (std::size_t i = 1; i < drain_entries_.size(); ++i) {
    if (drain_entries_[i] > drain_entries_[i - 1]) continue;
    if (runs == kMaxMergeRuns) {
      std::sort(drain_entries_.begin(), drain_entries_.end());
      return;
    }
    starts[runs++ - 1] = i;
  }
  // Fold the runs in left to right: [0, starts[r]) is sorted before round r
  // merges the next run into it through the scratch buffer.
  for (std::size_t r = 0; r + 1 < runs; ++r) {
    const auto first = drain_entries_.begin();
    const auto mid = first + static_cast<std::ptrdiff_t>(starts[r]);
    const auto last = r + 2 < runs
                          ? first + static_cast<std::ptrdiff_t>(starts[r + 1])
                          : drain_entries_.end();
    merge_scratch_.clear();
    std::merge(first, mid, mid, last, std::back_inserter(merge_scratch_));
    std::copy(merge_scratch_.begin(), merge_scratch_.end(), first);
  }
}

}  // namespace mcb
