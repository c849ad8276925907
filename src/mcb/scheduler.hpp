// Event queue for the event-driven simulation engine.
//
// The paper's protocols synchronize by counting cycles: at any instant many
// processors are asleep in Proc::skip() waiting for their turn, and the
// rest re-awaken every cycle via channel operations. The scan-the-world
// reference loop pays O(p) per cycle regardless; this scheduler makes each
// suspension cost O(1) amortized and lets the network iterate only over the
// processors that actually participate in the cycle in flight.
//
// The wake queue has two tiers keyed on the wake cycle:
//
//   * next bucket — processors waking exactly one cycle ahead (every channel
//     op, and skip(1)). This is the hot path: pushes happen in processor-id
//     order during the drain of the previous cycle, so the bucket is always
//     id-sorted by construction and push/pop are O(1).
//   * timing wheel — every longer wake (Varghese & Lauck's hierarchical
//     wheel). A cycle is read as eleven 6-bit digits, enough for any 64-bit
//     Cycle; level L has one slot per value of digit L. A wake sits at the
//     level of the highest digit in which it differs from the wheel's
//     current cycle, in the slot named by that digit. Push is O(1).
//
// Slots are intrusive lists threaded through per-processor link_/wake_
// arrays allocated once, so memory is O(p) plus a fixed slot table. When a
// drain enters a new block at level H, the one slot entered there cascades:
// its entries are re-placed strictly lower, so each cascades at most once
// per level. next_wake() is one countr_zero on the lowest non-empty level's
// occupancy mask: idle-cycle fast-forward is O(levels). A drain is the next
// bucket, then the due level-0 slot; its id-sorted runs are merged back into
// id order, or sorted when there are many (the reference engine's resume
// order; see docs/ENGINE.md, "Costs").
//
// Two more lists let the run loop touch only what changed:
//
//   * active list — processors that suspended with a channel intent
//     (write / read / multi-read) for the cycle in flight. The write, read
//     and trace steps iterate this list only.
//   * dirty list  — channels written in the cycle in flight, so clearing
//     slots is O(writes), not O(k).
//
// Invariants (see docs/ENGINE.md): every live suspended processor sits in
// exactly one tier; the active list holds exactly the processors waking at
// now+1 that registered a channel intent; a cycle whose drain would be
// empty is observationally silent and may be skipped (fast-forward).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcb/types.hpp"

namespace mcb {

class Scheduler {
 public:
  Scheduler(std::size_t p, std::size_t k);

  /// Empties both tiers plus the active and dirty lists and moves the wheel
  /// back to cycle 0, keeping every allocation, so a long-lived network
  /// (Network::reset) re-runs without re-growing the queue structures.
  void reset();

  // --- wake queue ---------------------------------------------------------

  /// Registers processor `id`, suspended at the cycle of the last drain (0
  /// before the first), to be resumed at `wake`, at least one cycle later.
  /// A processor is scheduled at most once at a time (it is suspended at a
  /// single awaiter).
  void schedule_wake(ProcId id, Cycle wake) {
    ++pending_;
    if (wake - cur_ == 1) {
      next_bucket_.push_back(id);
    } else {
      place(id, wake);
    }
  }

  bool queue_empty() const { return pending_ == 0; }

  /// Earliest pending wake cycle. Requires a non-empty queue. O(1) on the
  /// hot path (next bucket occupied), one mask test per level otherwise.
  Cycle next_wake() const;

  /// Collects every processor due at `now` in processor-id order. `now`
  /// must lie after the last drain and no later than next_wake(). The
  /// returned entries are valid until the next drain; processors
  /// re-scheduling themselves while the caller iterates land in fresh
  /// buckets and are never part of the same drain.
  const std::vector<ProcId>& drain_due(Cycle now);

  // --- active list (participants of the cycle in flight) ------------------

  void add_active(ProcId id) { active_.push_back(id); }
  const std::vector<ProcId>& active() const { return active_; }
  void clear_active() { active_.clear(); }

  // --- dirty channels -----------------------------------------------------

  /// Records that channel `c` was written this cycle. The collision check
  /// guarantees at most one write per channel per cycle, so entries are
  /// unique without deduplication.
  void mark_dirty(ChannelId c) { dirty_.push_back(c); }
  const std::vector<ChannelId>& dirty() const { return dirty_; }
  void clear_dirty() { dirty_.clear(); }

 private:
  static constexpr unsigned kDigitBits = 6;
  static constexpr std::size_t kSlots = std::size_t{1} << kDigitBits;
  static constexpr std::size_t kLevels = (64 + kDigitBits - 1) / kDigitBits;
  static constexpr ProcId kNil = ~ProcId{0};

  struct Slot {  ///< an intrusive list of wheel entries
    ProcId head = kNil, tail = kNil;
    Cycle min_wake = ~Cycle{0};
  };

  static unsigned digit(Cycle c, unsigned level) {
    return static_cast<unsigned>(c >> (level * kDigitBits)) & (kSlots - 1);
  }
  /// Level of the highest digit set in `diff` (0 for diff == 0).
  static unsigned level_of(Cycle diff) {
    return static_cast<unsigned>(std::bit_width(diff | 1) - 1) / kDigitBits;
  }

  /// Appends `id` to its slot relative to the wheel's current cycle; a wake
  /// equal to that cycle goes to its level-0 slot, which drains next.
  void place(ProcId id, Cycle wake) {
    const unsigned level = level_of(wake ^ cur_);
    const unsigned s = digit(wake, level);
    Slot& slot = slots_[level][s];
    wake_[id] = wake;
    link_[id] = kNil;
    if (slot.head == kNil) {
      slot.head = id;
      mask_[level] |= std::uint64_t{1} << s;
    } else {
      link_[slot.tail] = id;
    }
    slot.tail = id;
    slot.min_wake = std::min(slot.min_wake, wake);
  }

  /// Empties a slot and returns its old head (kNil if it was empty).
  ProcId take(unsigned level, unsigned s);

  /// Puts drain_entries_ (a concatenation of id-sorted runs) in id order:
  /// a merge of the runs when there are at most kMaxMergeRuns, else a sort.
  void sort_runs();
  static constexpr std::size_t kMaxMergeRuns = 8;

  std::vector<ProcId> next_bucket_;  ///< wakes at (drain cycle)+1
  std::array<std::array<Slot, kSlots>, kLevels> slots_{};
  std::array<std::uint64_t, kLevels> mask_{};  ///< occupied slots per level
  std::vector<ProcId> link_;  ///< next processor in the same slot, or kNil
  std::vector<Cycle> wake_;   ///< wake cycle of each wheel entry
  Cycle cur_ = 0;             ///< the wheel's current cycle (last drain)
  std::size_t pending_ = 0;   ///< entries across both tiers
  std::vector<ProcId> drain_entries_;  ///< scratch, swapped with next bucket
  std::vector<ProcId> merge_scratch_;  ///< sort_runs' merge buffer
  std::vector<ProcId> active_;
  std::vector<ChannelId> dirty_;
};

}  // namespace mcb
