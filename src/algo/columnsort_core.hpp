// Shared core of the distributed Columnsort implementations: the
// transformation phases 1-9 run by the column representatives, and the
// double-broadcast redistribution of phase 10. Used by the even
// (Section 5.2) and uneven (Section 7.2) sorting algorithms and, through
// the even collective, by selection (Section 8).
//
// The core sorts (key, value) pairs — KV — descending by key; plain-Word
// entry points wrap values of zero around this. Messages carry at most
// (key, value, destination-row), within the model's O(log beta)-bit budget.
//
// Internal header — not part of the public API surface.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/common.hpp"
#include "mcb/coro.hpp"
#include "seq/columnsort.hpp"
#include "mcb/proc.hpp"
#include "sched/schedule.hpp"

namespace mcb::algo::detail {

/// Acts per burst (Proc::burst) in the Columnsort loops: the transform
/// rounds, the gather and the redistribution windows. Large enough that a
/// resume is rare next to the acts it plans, small enough that the engine's
/// pooled burst buffers stay a few KB per bursting processor.
inline constexpr std::size_t kBurstActs = 64;

/// Static plan for one Columnsort instance over kk columns of length m.
/// Deterministically derivable from (m, kk); shared across all processors.
struct CorePlan {
  std::size_t kk = 0;  ///< number of columns (and of representatives)
  std::size_t m = 0;   ///< column length (padded: kk | m, m >= kk(kk-1))
  std::array<std::vector<std::uint32_t>, 4> tables;
  std::array<sched::TransferPlan, 4> plans;
  Cycle core_cycles = 0;  ///< total channel cycles of phases 2, 4, 6, 8

  /// Builds tables and broadcast schedules. Requires valid dimensions
  /// (seq::columnsort_dims_ok(m, kk, variant)).
  static CorePlan build(std::size_t m, std::size_t kk,
                        seq::ColumnsortVariant variant =
                            seq::ColumnsortVariant::kUndiagonalize);
};

/// Sorts a column descending by (key, val).
void sort_column_desc(std::vector<KV>& column);

/// The same order as sort_column_desc, by merging the column's sorted runs:
/// correct on any input, fast when there are few runs (phases 3 and 7).
void merge_column_runs_desc(std::vector<KV>& column);

/// One matrix transformation (phase 2/4/6/8) from the point of view of the
/// representative owning column `my_col`; `t` indexes CorePlan::plans.
Task<void> run_transform(Proc& self, const CorePlan& plan, std::size_t t,
                         std::size_t my_col, std::vector<KV>& column);

/// Phases 1-9 for a representative (column owner). `column` must already be
/// padded to length plan.m. Non-representatives call core_skip instead.
Task<void> columnsort_phases(Proc& self, const CorePlan& plan,
                             std::size_t my_col, std::vector<KV>& column);

/// The matching skip for processors that do not own a column.
Task<void> core_skip(Proc& self, const CorePlan& plan);

/// One pass of (key, val) broadcasts as one processor sees it: over
/// `cycles` cycles it writes send[t - w0] on channel `wch` in the cycles t
/// of [w0, w1) and reads channel `rch` into recv[t - r0] in the cycles of
/// [r0, r1). With `keys_only` the messages carry the key alone, written
/// from send_keys, and reads take val 0. The gathers (phase 0) are one such
/// pass, the redistribution (phase 10) two.
struct KvPass {
  std::size_t cycles = 0;
  std::size_t w0 = 0, w1 = 0;
  std::size_t r0 = 0, r1 = 0;
  const KV* send = nullptr;
  const Word* send_keys = nullptr;
  KV* recv = nullptr;
  ChannelId wch = 0, rch = 0;
  bool keys_only = false;
};

/// Walks a KvPass as sleeps through its idle stretches and bursts of at
/// most kBurstActs acts, so a protocol awaits a pass at one skip and one
/// burst site and its frame holds just this walker:
///
///   while (!walk.done()) {
///     if (const std::size_t idle = walk.skip_idle()) {
///       co_await self.skip(idle);
///     } else {
///       walk.plan(self);
///       walk.take(co_await self.burst());
///     }
///   }
class KvPassWalker {
 public:
  KvPassWalker() = default;
  explicit KvPassWalker(const KvPass& pass) : pass_(pass) {}

  bool done() const { return t_ >= pass_.cycles; }
  /// Moves past the idle cycles before the next act (or the end of the
  /// pass) and returns how many there were, 0 when the next cycle acts.
  std::size_t skip_idle();
  /// Fills self.burst_acts() with the acts from here to the end of the
  /// current run of acts, at most kBurstActs of them.
  void plan(Proc& self) const;
  /// Stores what the planned burst read and moves past it.
  void take(std::span<const Proc::ReadResult> got);

 private:
  KvPass pass_;
  std::size_t t_ = 0;  ///< cycles of the pass done
};

/// Phase 10: representatives broadcast the real (non-dummy) prefix of their
/// sorted columns twice; every processor collects its final segment of
/// global ranks [lo, hi) into `output`. `n` is the number of real
/// elements; `column` is ignored for non-representatives. Costs exactly
/// 2*m cycles, in two passes that the caller walks with KvPassWalker (in
/// its own frame: a subroutine frame per processor would cost more than
/// the walker).
///
/// This prepares pass `pass` (0, then 1): pass 0 sizes `output`, and a
/// representative copies the share of [lo, hi) its own column holds. It
/// returns the pass's channel traffic.
KvPass redistribute_pass(const CorePlan& plan, bool is_rep,
                         std::size_t my_col, const std::vector<KV>& column,
                         std::size_t n, std::size_t lo, std::size_t hi,
                         std::vector<KV>& output, int pass);

}  // namespace mcb::algo::detail
