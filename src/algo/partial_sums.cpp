#include "algo/partial_sums.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "algo/common.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace mcb::algo {

SumOp SumOp::add() {
  return {[](Word a, Word b) { return a + b; }, 0};
}

SumOp SumOp::max() {
  return {[](Word a, Word b) { return std::max(a, b); },
          std::numeric_limits<Word>::min()};
}

SumOp SumOp::min() {
  return {[](Word a, Word b) { return std::min(a, b); },
          std::numeric_limits<Word>::max()};
}

namespace {

std::size_t ceil_log2(std::size_t p) {
  std::size_t d = 0;
  while ((std::size_t{1} << d) < p) ++d;
  return d;
}

constexpr std::size_t kNoAct = SIZE_MAX;

/// One processor's walk through the collective's schedule, in plain code.
/// next() plans the processor's next act: `idle` cycles of sleep, then (if
/// `acts`) one cycle with an optional write and an optional read. consume()
/// takes that cycle's read result. The coroutine below is then a single
/// skip + cycle act site, which keeps its frame small: GCC 12 gives every
/// local and every co_await temporary of a coroutine its own frame slot, so
/// each extra act site would cost every processor its awaiter and message
/// temporaries for the whole call.
///
/// The schedule: Vishkin's tree, simulated level by level. Each tree level
/// burns exactly `cycles` cycles, with at most one channel action at
/// in-level cycle `at`. Idle cycles accumulate in `pending_`, so a processor
/// that sits out several consecutive levels sleeps through them in a single
/// suspension.
class Walk {
 public:
  Walk(Proc& self, Word a_i, const SumOp& op, PartialSumsOptions opts)
      : op_(op),
        opts_(opts),
        i_(self.id()),
        p_(self.p()),
        k_(self.k()),
        depth_(ceil_log2(p_)),
        a_(a_i),
        f_(op.identity) {
    if (p_ == 1) {
      out_ = {op.identity, a_i, a_i, a_i};
      stage_ = Stage::kDone;
      return;
    }
    // val_[l] = combined value of the subtree of the level-l node this
    // processor simulates (it simulates node (l, i >> l) iff 2^l | i).
    val_.assign(depth_ + 1, op.identity);
    val_[0] = a_i;
    self.note_aux(val_.size());
  }

  /// Plans the next act; false once the schedule is done.
  bool next() {
    idle = 0;
    acts = false;
    write.reset();
    read.reset();
    while (stage_ != Stage::kDone) {
      if (plan()) return true;
    }
    return false;
  }

  /// Takes the read result of the cycle next() planned.
  void consume(const Proc::ReadResult& got) {
    switch (stage_) {
      case Stage::kUp:
        finish_up(got);
        break;
      case Stage::kDown:
        finish_down(got);
        break;
      case Stage::kTotal:
        if (i_ != 0) {
          MCB_CHECK(got.has_value(), "total broadcast missing at P" << i_ + 1);
          out_.total = got->at(0);
        }
        stage_ = opts_.with_next ? Stage::kFlush : Stage::kTail;
        break;
      case Stage::kNext:
        if (t_ == read_at()) {
          MCB_CHECK(got.has_value(),
                    "neighbour prefix missing at P" << i_ + 1);
          out_.next = got->at(0);
        }
        ++t_;
        break;
      case Stage::kFlush:
      case Stage::kTail:
      case Stage::kDone:
        break;  // these stages only sleep
    }
  }

  const PartialSumsResult& result() const { return out_; }

  // The act next() planned.
  Cycle idle = 0;
  bool acts = false;
  std::optional<WriteOp> write;
  std::optional<ChannelId> read;

 private:
  enum class Stage : std::uint8_t {
    kUp,     // bottom-up combine, levels 0 .. depth-1
    kDown,   // top-down prefix distribution, levels depth .. 1
    kTotal,  // P_1 broadcasts the total
    kFlush,  // sleep off the tree's idle tail before the exchange
    kNext,   // neighbour exchange
    kTail,   // sleep off the tree's idle tail
    kDone,
  };

  /// Plans one step of the current stage: true with an act planned, false
  /// after advancing without one.
  bool plan() {
    switch (stage_) {
      case Stage::kUp:
        return plan_up();
      case Stage::kDown:
        return plan_down();
      case Stage::kTotal:
        // P_1 holds the total from the bottom-up sweep.
        idle = std::exchange(pending_, 0);
        acts = true;
        if (i_ == 0) {
          write = WriteOp{0, Message::of(out_.total)};
        } else {
          read = 0;
        }
        return true;
      case Stage::kFlush:
        out_.next = out_.self;  // correct for the last processor
        t_ = 0;
        stage_ = Stage::kNext;
        return sleep_pending();
      case Stage::kNext:
        return plan_next();
      case Stage::kTail:
        stage_ = Stage::kDone;
        return sleep_pending();
      case Stage::kDone:
        break;
    }
    return false;
  }

  /// Acts at in-level cycle `at` of a level that lasts `cycles` cycles, or
  /// sleeps through the whole level when `at == kNoAct`.
  bool act_at(std::size_t at, std::size_t cycles) {
    if (at == kNoAct) {
      pending_ += cycles;
      return false;
    }
    idle = pending_ + at;
    acts = true;
    pending_ = cycles - at - 1;
    return true;
  }

  bool sleep_pending() {
    idle = std::exchange(pending_, 0);
    return idle > 0;
  }

  bool plan_up() {
    const std::size_t l = l_;
    if (l == depth_) {
      if (i_ == 0) out_.total = val_[depth_];
      stage_ = Stage::kDown;
      return false;
    }
    const std::size_t stride = std::size_t{1} << l;
    const std::size_t cycles = ceil_div(std::size_t{1} << (depth_ - l - 1), k_);
    std::size_t at = kNoAct;
    if (i_ % stride == 0) {
      const std::size_t node = i_ >> l;
      const std::size_t father = node / 2;
      at = father / k_;
      const auto ch = static_cast<ChannelId>(father % k_);
      if (node % 2 == 1) {
        // Right son: send subtree value to the father's simulator.
        write = WriteOp{ch, Message::of(val_[l])};
      } else {
        // Father simulator (== left son simulator): receive from right son.
        read = ch;
      }
    }
    if (act_at(at, cycles)) return true;
    finish_up(std::nullopt);
    return false;
  }

  void finish_up(const Proc::ReadResult& got) {
    const std::size_t l = l_++;
    if (i_ % (std::size_t{2} << l) == 0) {
      // Silence = dummy right subtree (p not a power of two) = identity.
      val_[l + 1] = got ? op_.combine(val_[l], got->at(0)) : val_[l];
    }
  }

  bool plan_down() {
    const std::size_t l = l_;
    if (l == 0) {
      out_.before = f_;
      out_.self = op_.combine(f_, a_);
      stage_ = opts_.with_total  ? Stage::kTotal
               : opts_.with_next ? Stage::kFlush
                                 : Stage::kTail;
      return false;
    }
    const std::size_t stride = std::size_t{1} << (l - 1);
    const std::size_t cycles = ceil_div(std::size_t{1} << (depth_ - l), k_);
    std::size_t at = kNoAct;
    receiving_ = false;
    if (i_ % stride == 0) {
      const std::size_t node = i_ >> (l - 1);  // this proc's node at level l-1
      const std::size_t father = node / 2;
      const auto ch = static_cast<ChannelId>(father % k_);
      if (node % 2 == 1) {
        at = father / k_;
        read = ch;
        receiving_ = true;
      } else if (i_ + stride < p_) {
        // Father: send F ⊕ L to the right son, unless the right subtree is
        // entirely dummy (its simulator would not exist). f is unchanged
        // for the left son (== this processor).
        at = father / k_;
        write = WriteOp{ch, Message::of(op_.combine(f_, val_[l - 1]))};
      }
    }
    if (act_at(at, cycles)) return true;
    finish_down(std::nullopt);
    return false;
  }

  void finish_down(const Proc::ReadResult& got) {
    if (receiving_) {
      MCB_CHECK(got.has_value(), "top-down message missing at P" << i_ + 1);
      f_ = got->at(0);
    }
    --l_;
  }

  // P_{i+1} tells P_i its inclusive prefix; O(p/k) cycles, p-1 messages.
  // Each processor acts in at most two cycles of the exchange and sleeps
  // through the rest.
  std::size_t send_at() const { return i_ >= 1 ? (i_ - 1) / k_ : kNoAct; }
  std::size_t read_at() const { return i_ + 1 < p_ ? i_ / k_ : kNoAct; }

  bool plan_next() {
    const std::size_t cycles = ceil_div(p_ - 1, k_);
    if (t_ >= cycles) {
      stage_ = Stage::kTail;
      return false;
    }
    const std::size_t send = send_at();
    const std::size_t recv = read_at();
    if (t_ == send || t_ == recv) {
      acts = true;
      if (t_ == send) {
        write = WriteOp{static_cast<ChannelId>((i_ - 1) % k_),
                        Message::of(out_.self)};
      }
      if (t_ == recv) read = static_cast<ChannelId>(i_ % k_);
      return true;
    }
    std::size_t wake = cycles;
    if (send != kNoAct && send > t_) wake = std::min(wake, send);
    if (recv != kNoAct && recv > t_) wake = std::min(wake, recv);
    idle = wake - t_;
    t_ = wake;
    return true;
  }

  const SumOp& op_;
  PartialSumsOptions opts_;
  std::size_t i_, p_, k_, depth_;
  Word a_;
  Word f_;  // F: everything left of the current node's subtree, combined

  Stage stage_ = Stage::kUp;
  std::size_t l_ = 0;  // tree level: kUp counts up from 0, kDown down to 1
  std::size_t t_ = 0;  // cycle of the neighbour exchange
  std::size_t pending_ = 0;  // idle cycles owed to the schedule, not slept
  bool receiving_ = false;   // the planned kDown act reads F
  std::vector<Word> val_;
  PartialSumsResult out_;
};

}  // namespace

// The one act site: every suspension of the collective is the skip or the
// cycle below. The walk owns the schedule and all per-call state.
Task<PartialSumsResult> partial_sums(Proc& self, Word a_i, const SumOp& op,
                                     PartialSumsOptions opts) {
  obs::Span sp(self, "partial-sums");
  Walk walk(self, a_i, op, opts);
  while (walk.next()) {
    if (walk.idle > 0) co_await self.skip(walk.idle);
    if (walk.acts) {
      walk.consume(co_await self.cycle(std::move(walk.write), walk.read));
    }
  }
  co_return walk.result();
}

}  // namespace mcb::algo
