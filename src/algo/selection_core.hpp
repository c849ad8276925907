// Pieces of the Section 8 selection program (multi_select.cpp, which
// select_rank runs as its one-rank case).
//
// The program awaits each of its channel schedules at one act site: the
// weighted-median broadcast is one cycle() whose write and read depend on
// the processor, and the termination phase is a walk whose acts a single
// skip + cycle site carries out. GCC 12 gives every co_await temporary of a
// coroutine its own frame slot for the whole coroutine, so each extra site
// would cost every processor its awaiter and message temporaries for the
// whole run (docs/ENGINE.md, "Memory model").
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "algo/partial_sums.hpp"
#include "mcb/proc.hpp"
#include "seq/selection.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace mcb::algo {

/// Local median of the candidate list, by the paper's convention
/// N[ceil(m/2)]; reorders `cands` (harmless — candidate sets are unordered).
inline Word local_median(std::vector<Word>& cands, bool quick,
                         util::Xoshiro256StarStar& rng) {
  const std::size_t rank = (cands.size() + 1) / 2;
  if (quick) {
    return seq::kth_largest_quickselect(cands, rank, rng);
  }
  return seq::kth_largest(cands, rank);
}

/// Step 3's broadcast as one cycle: the weighted-median holder P_{i*}
/// writes its median on channel 0 and every other processor reads it.
struct MedianBroadcast {
  bool am_star = false;
  Word median = 0;  ///< this processor's median; sent when am_star

  std::optional<WriteOp> write() const {
    if (!am_star) return std::nullopt;
    return WriteOp{0, Message::of(median)};
  }
  std::optional<ChannelId> read() const {
    if (am_star) return std::nullopt;
    return ChannelId{0};
  }
  /// The weighted median, given the cycle's read result.
  Word heard(const Proc::ReadResult& got) const {
    if (am_star) return median;
    MCB_CHECK(got.has_value(), "no weighted-median broadcast");
    return got->at(0);
  }
};

/// The termination phase's channel-0 schedule as a walk. Cycles [0, m)
/// carry the m survivors to P_1 in prefix order: processor i writes its own
/// in slots [lo, hi) and sleeps through the rest, while P_1 keeps its own
/// locally and reads everyone else's. Once the pool is complete P_1 calls
/// `select(pool)` for the `count` answers, and cycles [m, m + count) carry
/// them back to everyone.
///
/// next() plans one act: `idle` cycles of sleep, then (if `acts`) one cycle
/// with `write` and `read`; consume() takes that cycle's read result.
template <typename Select>
class Termination {
 public:
  Termination(std::size_t i, const std::vector<Word>& cands,
              const PartialSumsResult& ps, std::size_t count, Select select)
      : i_(i),
        cands_(cands),
        lo_(static_cast<std::size_t>(ps.before)),
        hi_(static_cast<std::size_t>(ps.self)),
        m_(static_cast<std::size_t>(ps.total)),
        answers_(count, 0),
        select_(std::move(select)) {
    if (i_ == 0) pool_.reserve(m_);
  }

  /// Plans the next act; false once the schedule is done.
  bool next() {
    idle = 0;
    acts = false;
    write.reset();
    read.reset();
    if (t_ == m_ + answers_.size()) return false;
    const bool mine = t_ >= lo_ && t_ < hi_;
    if (i_ != 0 && t_ < m_ && !mine) {
      // Sleep to this processor's window, or past everyone else's.
      const std::size_t wake = t_ < lo_ ? lo_ : m_;
      idle = wake - t_;
      t_ = wake;
      return true;
    }
    if (i_ == 0 && t_ == m_) answers_ = select_(pool_);
    acts = true;
    if (mine) {
      write = WriteOp{0, Message::of(cands_[t_ - lo_])};
    } else if (i_ == 0 && t_ >= m_) {
      write = WriteOp{0, Message::of(answers_[t_ - m_])};
    } else {
      read = 0;
    }
    return true;
  }

  /// Takes the read result of the cycle next() planned.
  void consume(const Proc::ReadResult& got) {
    if (t_ < m_) {
      if (i_ == 0) {
        if (t_ >= lo_ && t_ < hi_) {
          pool_.push_back(cands_[t_ - lo_]);
        } else {
          MCB_CHECK(got.has_value(), "termination slot " << t_ << " empty");
          pool_.push_back(got->at(0));
        }
      }
    } else if (i_ != 0) {
      MCB_CHECK(got.has_value(), "no answer broadcast for answer " << t_ - m_);
      answers_[t_ - m_] = got->at(0);
    }
    ++t_;
  }

  /// The answers, in the order select() returned them at P_1.
  const std::vector<Word>& answers() const { return answers_; }

  // The act next() planned.
  Cycle idle = 0;
  bool acts = false;
  std::optional<WriteOp> write;
  std::optional<ChannelId> read;

 private:
  std::size_t i_;
  const std::vector<Word>& cands_;
  std::size_t lo_, hi_, m_;
  std::size_t t_ = 0;  ///< cycle of the termination schedule
  std::vector<Word> pool_;  ///< P_1 only: the survivors, in slot order
  std::vector<Word> answers_;
  Select select_;
};

}  // namespace mcb::algo
