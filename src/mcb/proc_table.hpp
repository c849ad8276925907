// Struct-of-arrays block holding the hot per-processor simulation state.
//
// The seed implementation kept wake cycle, channel intents, read results and
// the resume handle as members of each heap-allocated Proc, so every engine
// pass chased a unique_ptr per processor. The engines walk processors in id
// order thousands of times per run; moving the per-processor state into flat
// id-indexed arrays owned by the Network turns those walks into linear
// scans of contiguous memory.
//
// Proc itself shrinks to a handle {Network*, ProcId}; all accessors index
// this table through the owning network.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/message.hpp"
#include "mcb/proc.hpp"
#include "mcb/types.hpp"

namespace mcb {

/// A pooled burst buffer (Proc::burst): the acts one processor handed over
/// and a read result per act. Network keeps a pool of them, so a buffer
/// never lives in a coroutine frame and is reused across bursts and runs.
struct BurstBuffer {
  std::vector<Act> acts;
  std::vector<Proc::ReadResult> results;
  std::size_t pos = 0;  ///< the act in flight
};

/// Per-processor state, one array element per processor, indexed by ProcId.
/// Owned by Network (declared after the frame arenas, so coroutine frames
/// outlive their handles here). Both engines read and write the columns
/// from the single thread running Network::run().
struct ProcTable {
  /// Innermost suspended coroutine; resuming it continues the program.
  std::vector<std::coroutine_handle<>> resume_point;
  /// Top-level program handle, for O(1) exception retrieval on completion.
  std::vector<ProcMain::handle_type> program;
  /// Cycle at which the processor is next due.
  std::vector<Cycle> wake_cycle;
  /// Program completed (one byte per processor, like pending_read_all).
  std::vector<std::uint8_t> done;

  // Per-cycle channel intents and results.
  std::vector<Act> act;  ///< the intent for the cycle in flight
  std::vector<std::uint8_t> pending_read_all;
  std::vector<Proc::ReadResult> read_result;
  std::vector<std::vector<Proc::ReadResult>> read_all_results;

  /// Acts of a burst still to run after the one in flight (0 outside a
  /// burst): a due processor with acts left is refilled, not resumed.
  std::vector<std::uint32_t> burst_left;
  /// The processor's pooled BurstBuffer (Network::bursts_), or kNoBurst.
  std::vector<std::uint32_t> burst_slot;

  /// Max storage noted via Proc::note_aux, per processor.
  std::vector<std::size_t> peak_aux_words;

  static constexpr std::uint32_t kNoBurst = ~std::uint32_t{0};

  void resize(std::size_t p) {
    resume_point.resize(p);
    program.resize(p);
    wake_cycle.assign(p, 0);
    done.assign(p, 0);
    act.resize(p);
    pending_read_all.assign(p, 0);
    read_result.resize(p);
    read_all_results.resize(p);
    burst_left.assign(p, 0);
    burst_slot.assign(p, kNoBurst);
    peak_aux_words.assign(p, 0);
  }

  /// Returns every column to its post-resize state without shrinking any
  /// allocation (Network::reset). Handles are nulled, not destroyed — the
  /// Network owns the program objects and clears them first.
  void reset() {
    std::fill(resume_point.begin(), resume_point.end(),
              std::coroutine_handle<>{});
    std::fill(program.begin(), program.end(), ProcMain::handle_type{});
    std::fill(wake_cycle.begin(), wake_cycle.end(), Cycle{0});
    std::fill(done.begin(), done.end(), std::uint8_t{0});
    std::fill(act.begin(), act.end(), Act{});
    std::fill(pending_read_all.begin(), pending_read_all.end(),
              std::uint8_t{0});
    for (auto& r : read_result) r.reset();
    for (auto& v : read_all_results) v.clear();
    std::fill(burst_left.begin(), burst_left.end(), std::uint32_t{0});
    std::fill(burst_slot.begin(), burst_slot.end(), kNoBurst);
    std::fill(peak_aux_words.begin(), peak_aux_words.end(), std::size_t{0});
  }
};

}  // namespace mcb
