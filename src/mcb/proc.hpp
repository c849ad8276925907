// Per-processor context: the API that processor programs use to interact
// with the network, one synchronous cycle at a time.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mcb/coro.hpp"
#include "mcb/message.hpp"
#include "mcb/types.hpp"

namespace mcb {

class Network;

/// A channel write intent for the coming cycle.
struct WriteOp {
  ChannelId channel = 0;
  Message msg;
};

/// Marks the absent half of an Act: no write, or no read.
inline constexpr ChannelId kNoChannel = ~ChannelId{0};

/// One cycle's channel intent: write `msg` on channel `write` and read
/// channel `read`, either half left out by kNoChannel. An act with neither
/// is an idle cycle. The engine keeps each processor's intent for the cycle
/// in flight in this form, and Proc::burst hands it a run of them.
struct Act {
  Message msg;
  ChannelId write = kNoChannel;
  ChannelId read = kNoChannel;
};

class Proc {
 public:
  /// The result of a cycle from this processor's point of view: the message
  /// observed on the channel it read, or nullopt on silence / no read.
  using ReadResult = std::optional<Message>;

  ProcId id() const { return id_; }
  std::size_t p() const;  ///< processors in the network
  std::size_t k() const;  ///< channels in the network

  /// Number of network cycles completed so far.
  Cycle now() const;

  // --- cycle operations (awaitable; each consumes exactly one cycle) -----

  /// Full generality: optionally write one channel and read one channel.
  /// Yields the message read (nullopt on silence or when not reading).
  struct CycleAwaiter;
  CycleAwaiter cycle(std::optional<WriteOp> write,
                     std::optional<ChannelId> read);

  CycleAwaiter write(ChannelId ch, Message m);
  CycleAwaiter read(ChannelId ch);
  CycleAwaiter write_read(ChannelId wch, Message m, ChannelId rch);
  CycleAwaiter step();  ///< participate in a cycle doing nothing

  /// Sleep for `t >= 1` cycles without being rescheduled (equivalent to t
  /// consecutive step()s but O(1) simulation work). Used for the paper's
  /// "wait your turn by counting cycles" synchronization.
  struct SkipAwaiter;
  SkipAwaiter skip(Cycle t);

  /// Section 9 extension (requires SimConfig::multi_read): optionally write
  /// one channel and read EVERY channel this cycle. Yields one ReadResult
  /// per channel.
  struct MultiReadAwaiter;
  MultiReadAwaiter cycle_all(std::optional<WriteOp> write);

  // --- bursts: n consecutive acts for one suspension ----------------------

  /// The buffer for a burst of n >= 1 acts, every act idle; act i runs in
  /// the i-th cycle after the burst starts. The engine owns the buffer and
  /// reuses it, so a burst allocates nothing once warm, and a one-act burst
  /// never does. Valid until the burst is awaited.
  std::span<Act> burst_acts(std::size_t n);

  /// Runs the acts of the last burst_acts(n) in n consecutive cycles with
  /// one suspension: observationally the same as n cycle() awaits (same
  /// writes, reads, collisions and trace events, cycle by cycle). Yields one
  /// read result per act (nullopt on silence or when the act did not read),
  /// valid until this processor's next suspension.
  struct BurstAwaiter;
  BurstAwaiter burst();

  // --- accounting helpers ------------------------------------------------

  /// Reports this processor's current auxiliary storage in words; the run
  /// statistics record the maximum. Used to validate the O(1)/O(n) memory
  /// claims of Section 6.1.
  void note_aux(std::size_t words);

  /// Marks the start of a named algorithm phase (records global cycle and
  /// message counters). By convention only processor 0 calls this.
  void mark_phase(std::string name);

  /// Span marks forwarded to the network's SpanSink (see obs::Span, which
  /// is the intended RAII entry point). By convention only processor 0
  /// emits spans; no-ops without a sink.
  void span_begin(std::string_view name);
  void span_end();

  // --- awaiters -----------------------------------------------------------

  struct CycleAwaiter {
    Proc& proc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    ReadResult await_resume() const noexcept;
  };

  struct SkipAwaiter {
    Proc& proc;
    Cycle t;
    bool await_ready() const noexcept { return t == 0; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };

  struct MultiReadAwaiter {
    Proc& proc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    std::vector<ReadResult> await_resume() const noexcept;
  };

  struct BurstAwaiter {
    Proc& proc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    std::span<const ReadResult> await_resume() const noexcept;
  };

 private:
  friend class Network;
  friend struct ProcMain::promise_type::FinalAwaiter;

  Proc(Network& net, ProcId id) : net_(&net), id_(id) {}
  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  // Sets the done flag in the network's ProcTable (defined in proc.cpp,
  // where Network is complete).
  void mark_done();

  // Proc is a thin handle: all hot per-processor state (wake cycle, channel
  // intents, read results, resume handle) lives in the Network's ProcTable
  // (mcb/proc_table.hpp), indexed by id_, so the engines scan flat arrays
  // instead of chasing per-processor heap objects.
  Network* net_;
  ProcId id_;
};

inline std::coroutine_handle<>
ProcMain::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  if (h.promise().proc != nullptr) {
    h.promise().proc->mark_done();
  }
  return std::noop_coroutine();
}

}  // namespace mcb
