#include "algo/multi_select.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "algo/columnsort_even.hpp"
#include "algo/common.hpp"
#include "algo/partial_sums.hpp"
#include "algo/selection_core.hpp"
#include "mcb/network.hpp"
#include "obs/span.hpp"
#include "seq/selection.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace mcb::algo {
namespace {

/// A rank the batch still owes an answer for, relative to the candidate set
/// of the segment that carries it. `d` shifts as elements above the segment
/// are purged; `idx` pins the slot in the answer array. Identical at every
/// processor — rank bookkeeping is pure arithmetic on globally known counts.
struct RankRef {
  std::size_t d;    ///< rank within the carrying segment (d-th largest)
  std::size_t idx;  ///< index into the unique-rank answer array
};

struct SelCtx {
  std::size_t threshold = 0;
  std::vector<RankRef> ranks;  ///< the unique requested ranks, ascending
  bool use_quickselect = false;
  EvenSortPlan pair_sort;  ///< one (median, count) pair per processor
};

/// The selection preconditions: one input per processor, no empty
/// processor, no kDummy, every rank in [1, n] where n is the total input
/// size.
void validate_selection_inputs(std::size_t p,
                               const std::vector<std::vector<Word>>& inputs,
                               const std::vector<std::size_t>& ranks) {
  MCB_REQUIRE(inputs.size() == p,
              "inputs for " << inputs.size() << " processors, p=" << p);
  std::size_t n = 0;
  for (const auto& in : inputs) {
    MCB_REQUIRE(!in.empty(), "every processor needs at least one element");
    n += in.size();
    for (Word w : in) {
      MCB_REQUIRE(w != kDummy, "input contains the reserved dummy value");
    }
  }
  for (std::size_t d : ranks) {
    MCB_REQUIRE(1 <= d && d <= n, "rank " << d << " of " << n);
  }
}

/// A segment is a value window of the input plus the ranks that fall in
/// it. `cands` is this processor's local slice; `ranks` and `m_known` are
/// identical at every processor.
struct Seg {
  std::vector<Word> cands;
  std::vector<RankRef> ranks;  ///< ascending by d (route() keeps this)
  std::size_t m_known = 0;     ///< network-wide candidate count
};

/// Step 4's local count: the candidates >= med_star. This and route() are
/// plain functions, not code in the coroutine, because GCC 12 gives every
/// coroutine local its own slot in every processor's frame.
Word count_at_least(const std::vector<Word>& cands, Word med_star) {
  Word count = 0;
  for (Word w : cands) {
    if (w >= med_star) ++count;
  }
  return count;
}

/// Step 5, given med_star, the m_s-th largest of the segment's m
/// candidates. A rank of exactly m_s is answered on the spot. Ranks below
/// m_s keep the m_s - 1 candidates above med_star; ranks above it keep the
/// m - m_s below, shifted by m_s. When the ranks straddle med_star the
/// segment splits: the lower window goes on the stack, and `seg` becomes
/// the upper one.
void route(Seg& seg, std::vector<Seg>& stack, std::size_t m, std::size_t m_s,
           Word med_star, Word* answers) {
  auto& ranks = seg.ranks;
  const auto it = std::lower_bound(
      ranks.begin(), ranks.end(), m_s,
      [](const RankRef& r, std::size_t d) { return r.d < d; });
  const auto split = static_cast<std::size_t>(it - ranks.begin());
  if (it != ranks.end() && it->d == m_s) {
    answers[it->idx] = med_star;
    ranks.erase(it);
  }
  for (std::size_t j = split; j < ranks.size(); ++j) ranks[j].d -= m_s;
  if (split > 0 && split < ranks.size()) {
    Seg lower;
    lower.cands.reserve(seg.cands.size());
    for (Word w : seg.cands) {
      if (w < med_star) lower.cands.push_back(w);
    }
    lower.ranks.assign(ranks.begin() + static_cast<std::ptrdiff_t>(split),
                       ranks.end());
    lower.m_known = m - m_s;
    stack.push_back(std::move(lower));
    ranks.resize(split);
  }
  if (split > 0) {
    std::erase_if(seg.cands, [med_star](Word w) { return w <= med_star; });
    seg.m_known = m_s - 1;
  } else if (!ranks.empty()) {
    std::erase_if(seg.cands, [med_star](Word w) { return w >= med_star; });
    seg.m_known = m - m_s;
  }
}

/// The Section 8 program at processor i. `answers` is this processor's row
/// of the unique-rank answer array; P_1 also records the filtering phases
/// and their candidate counts in `out`.
ProcMain selection_program(Proc& self, const SelCtx& ctx,
                           const std::vector<Word>& input, Word* answers,
                           MultiSelectionResult& out) {
  const std::size_t i = self.id();
  util::Xoshiro256StarStar rng(0x5e1ec7 + i);

  // Census: every processor must know the initial candidate count. The span
  // scope must close in the same resumption in which the next mark_phase
  // fires, so span and phase agree on their boundary stamps exactly.
  if (i == 0) self.mark_phase("setup");
  Seg seg{input, ctx.ranks, 0};
  {
    obs::Span sp(self, "setup");
    const auto init = co_await partial_sums(
        self, static_cast<Word>(input.size()), SumOp::add(),
        {.with_total = true});
    seg.m_known = static_cast<std::size_t>(init.total);
  }
  // Lower windows wait here, empty until the first split. Continuing the
  // upper window in place and popping the lower ones in LIFO order is the
  // same queue discipline at every processor, in global lockstep.
  std::vector<Seg> stack;

  for (;;) {
    // --- filtering phases --------------------------------------------------
    while (!seg.ranks.empty() && seg.m_known > ctx.threshold) {
      if (i == 0) {
        self.mark_phase("filter");
        ++out.filter_phases;
        out.candidates_per_phase.push_back(seg.m_known);
      }
      obs::Span sp(self, "filter");

      // 1. local medians; empty processors contribute the dummy pair,
      //    which sorts to the very end and carries count 0.
      std::vector<KV> pair(1);
      pair[0] = seg.cands.empty()
                    ? KV{kDummy, 0}
                    : KV{local_median(seg.cands, ctx.use_quickselect, rng),
                         static_cast<Word>(seg.cands.size())};

      // 2. sort the pairs descending by median.
      co_await columnsort_even_collective(self, ctx.pair_sort, pair);

      // 3. prefix counts over the sorted order; locate the weighted median.
      const auto ps = co_await partial_sums(self, pair[0].val, SumOp::add(),
                                            {.with_total = true});
      const auto m = static_cast<std::size_t>(ps.total);
      MCB_CHECK(m == seg.m_known, "candidate count drifted: " << m << " vs "
                                                              << seg.m_known);
      const std::size_t half = (m + 1) / 2;  // ceil(m/2)
      const bool am_star = static_cast<std::size_t>(ps.before) < half &&
                           half <= static_cast<std::size_t>(ps.self);
      const MedianBroadcast bc{am_star, pair[0].key};
      const Word med_star =
          bc.heard(co_await self.cycle(bc.write(), bc.read()));

      // 4. count candidates >= med_star network-wide.
      const auto gs = co_await partial_sums(
          self, count_at_least(seg.cands, med_star), SumOp::add(),
          {.with_total = true});
      const auto m_s = static_cast<std::size_t>(gs.total);

      // 5. route the ranks and purge.
      route(seg, stack, m, m_s, med_star, answers);
    }

    // --- termination: one collection answers the whole cluster -----------
    // Prefix offsets give every processor a write window on channel 0; P_1
    // appends its own survivors locally during its window and reads
    // everyone else's, then selects *all* of the segment's ranks from the
    // one pool and broadcasts them in rank order — |ranks| cycles total,
    // where B separate runs would pay B full collections. The phase opens
    // even when filtering answered every rank of the segment, so that a
    // single rank's run always ends in a (possibly empty) termination phase.
    if (i == 0) self.mark_phase("terminate");
    obs::Span sp_term(self, "terminate");
    if (!seg.ranks.empty()) {
      const auto ps = co_await partial_sums(
          self, static_cast<Word>(seg.cands.size()), SumOp::add(),
          {.with_total = true});
      Termination term(
          i, seg.cands, ps, seg.ranks.size(),
          [&self, &seg](std::vector<Word>& pool) {
            self.note_aux(pool.size());
            std::vector<Word> picked;
            picked.reserve(seg.ranks.size());
            for (const RankRef& r : seg.ranks) {
              MCB_CHECK(r.d >= 1 && r.d <= pool.size(),
                        "rank " << r.d << " of " << pool.size()
                                << " survivors");
              picked.push_back(seq::kth_largest(pool, r.d));
            }
            return picked;
          });
      while (term.next()) {
        if (term.idle > 0) co_await self.skip(term.idle);
        if (term.acts) {
          term.consume(co_await self.cycle(std::move(term.write), term.read));
        }
      }
      for (std::size_t j = 0; j < seg.ranks.size(); ++j) {
        answers[seg.ranks[j].idx] = term.answers()[j];
      }
    }
    if (stack.empty()) break;
    seg = std::move(stack.back());
    stack.pop_back();
  }
}

}  // namespace

MultiSelectionResult select_ranks_on(
    Network& net, const std::vector<std::vector<Word>>& inputs,
    const std::vector<std::size_t>& ds, SelectionOptions opts) {
  const SimConfig& cfg = net.config();
  MCB_REQUIRE(!ds.empty(), "at least one rank to select");
  validate_selection_inputs(cfg.p, inputs, ds);

  std::vector<std::size_t> uds = ds;
  std::sort(uds.begin(), uds.end());
  uds.erase(std::unique(uds.begin(), uds.end()), uds.end());
  SelCtx ctx;
  for (std::size_t idx = 0; idx < uds.size(); ++idx) {
    ctx.ranks.push_back(RankRef{uds[idx], idx});
  }
  ctx.threshold = opts.threshold != 0
                      ? opts.threshold
                      : std::max<std::size_t>(cfg.p / cfg.k, 1);
  ctx.use_quickselect = opts.use_quickselect;
  ctx.pair_sort = EvenSortPlan::build(cfg.p, cfg.k, 1);

  // Processor i's answers are row i of this p x B array.
  const std::size_t b = uds.size();
  std::vector<Word> answers(cfg.p * b, 0);
  MultiSelectionResult result;
  for (ProcId i = 0; i < cfg.p; ++i) {
    net.install(i, selection_program(net.proc(i), ctx, inputs[i],
                                     answers.data() + i * b, result));
  }
  result.stats = net.run();
  for (std::size_t i = 1; i < cfg.p; ++i) {
    MCB_CHECK(std::equal(answers.data(), answers.data() + b,
                         answers.data() + i * b),
              "P" << i + 1 << " disagrees");
  }
  result.values.reserve(ds.size());
  for (std::size_t d : ds) {
    const auto it = std::lower_bound(uds.begin(), uds.end(), d);
    result.values.push_back(
        answers[static_cast<std::size_t>(it - uds.begin())]);
  }
  return result;
}

MultiSelectionResult select_ranks(const SimConfig& cfg,
                                  const std::vector<std::vector<Word>>& inputs,
                                  const std::vector<std::size_t>& ds,
                                  SelectionOptions opts, TraceSink* sink) {
  cfg.validate();
  Network net(cfg, sink);
  return select_ranks_on(net, inputs, ds, opts);
}

}  // namespace mcb::algo
