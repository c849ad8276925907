#include "algo/columnsort_core.hpp"

#include <algorithm>
#include <span>

#include "obs/span.hpp"
#include "seq/columnsort.hpp"
#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo::detail {

CorePlan CorePlan::build(std::size_t m, std::size_t kk,
                         seq::ColumnsortVariant variant) {
  MCB_REQUIRE(seq::columnsort_dims_ok(m, kk, variant),
              "invalid Columnsort dimensions m=" << m << " kk=" << kk
                                                 << " for this variant");
  const std::array<sched::Transform, 4> transforms = {
      sched::Transform::kTranspose,
      variant == seq::ColumnsortVariant::kUndiagonalize
          ? sched::Transform::kUndiagonalize
          : sched::Transform::kUntranspose,
      sched::Transform::kUpShift, sched::Transform::kDownShift};
  CorePlan plan;
  plan.m = m;
  plan.kk = kk;
  if (kk > 1) {
    for (std::size_t t = 0; t < transforms.size(); ++t) {
      plan.tables[t] = sched::permutation_table(transforms[t], m, kk);
      plan.plans[t] =
          sched::plan_transform(transforms[t], m, kk, &plan.tables[t]);
      plan.core_cycles += plan.plans[t].cycles();
    }
  }
  return plan;
}

void sort_column_desc(std::vector<KV>& column) {
  seq::intro_sort(std::span<KV>(column),
                  [](const KV& a, const KV& b) { return desc_before(a, b); });
}

void merge_column_runs_desc(std::vector<KV>& column) {
  seq::merge_sort(std::span<KV>(column), [](const KV& a, const KV& b) {
    return desc_before(a, b);
  });
}

Task<void> run_transform(Proc& self, const CorePlan& plan, std::size_t t,
                         std::size_t my_col, std::vector<KV>& column) {
  const auto& table = plan.tables[t];
  const auto& rounds = plan.plans[t];
  const std::size_t m = plan.m;

  std::vector<KV> next(m);
  std::vector<std::vector<std::uint32_t>> queue(plan.kk);
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t dst = table[my_col * m + r];
    const std::size_t dc = dst / m;
    if (dc == my_col) {
      next[dst % m] = column[r];
    } else {
      queue[dc].push_back(static_cast<std::uint32_t>(r));
    }
  }
  self.note_aux(2 * m);

  // Each round sends the next element queued for its destination column
  // and takes the element arriving from its source column; a burst carries
  // kBurstActs rounds.
  std::vector<std::size_t> ptr(plan.kk, 0);
  const std::size_t cycles = rounds.cycles();
  for (std::size_t round = 0; round < cycles; round += kBurstActs) {
    const std::span<Act> acts =
        self.burst_acts(std::min(kBurstActs, cycles - round));
    for (std::size_t a = 0; a < acts.size(); ++a) {
      const auto dc = rounds.dst_of(round + a, my_col);
      if (dc != sched::kIdle) {
        MCB_CHECK(ptr[dc] < queue[dc].size(),
                  "send queue " << my_col << "->" << dc << " exhausted");
        const std::size_t r = queue[dc][ptr[dc]++];
        acts[a].write = static_cast<ChannelId>(my_col);
        acts[a].msg = Message::of(column[r].key, column[r].val,
                                  static_cast<Word>(table[my_col * m + r] % m));
      }
      const auto sc = rounds.src_of(round + a, my_col);
      if (sc != sched::kIdle) acts[a].read = static_cast<ChannelId>(sc);
    }
    const std::span<const Proc::ReadResult> got = co_await self.burst();
    for (std::size_t a = 0; a < got.size(); ++a) {
      const auto sc = rounds.src_of(round + a, my_col);
      if (sc == sched::kIdle) continue;
      MCB_CHECK(got[a].has_value(), "missing transfer on channel " << sc);
      next[static_cast<std::size_t>(got[a]->at(2))] =
          KV{got[a]->at(0), got[a]->at(1)};
    }
  }
  column.swap(next);
}

Task<void> columnsort_phases(Proc& self, const CorePlan& plan,
                             std::size_t my_col, std::vector<KV>& column) {
  MCB_CHECK(column.size() == plan.m,
            "column length " << column.size() << " != m=" << plan.m);
  self.note_aux(column.size());
  // Phase spans: the odd (local sort) phases cost zero cycles by the model
  // — local computation is free — so their spans record a 0-cycle mark;
  // the transform phases carry the communication.
  {
    obs::Span sp(self, "cs.phase1.sort");                    // phase 1
    sort_column_desc(column);
  }
  if (plan.kk > 1) {
    {
      obs::Span sp(self, "cs.phase2.transform");             // phase 2
      co_await run_transform(self, plan, 0, my_col, column);
    }
    {
      // After the transpose a column is kk sorted runs, one per source
      // column; merging them beats a full sort.
      obs::Span sp(self, "cs.phase3.sort");                  // phase 3
      merge_column_runs_desc(column);
    }
    {
      obs::Span sp(self, "cs.phase4.transform");             // phase 4
      co_await run_transform(self, plan, 1, my_col, column);
    }
    {
      obs::Span sp(self, "cs.phase5.sort");                  // phase 5
      sort_column_desc(column);
    }
    {
      obs::Span sp(self, "cs.phase6.transform");             // phase 6
      co_await run_transform(self, plan, 2, my_col, column);
    }
    if (my_col != 0) {
      // After the up-shift a column is two sorted runs: the bottom half of
      // its left neighbour and its own top half.
      obs::Span sp(self, "cs.phase7.sort");                  // phase 7
      merge_column_runs_desc(column);
    }
    {
      obs::Span sp(self, "cs.phase8.transform");             // phase 8
      co_await run_transform(self, plan, 3, my_col, column);
    }
    // Phase 9 (local re-sort) is unnecessary: the schedules place every
    // element at its exact destination row, so after phase 8 the column is
    // already in final order.
  }
}

Task<void> core_skip(Proc& self, const CorePlan& plan) {
  if (plan.core_cycles > 0) co_await self.skip(plan.core_cycles);
}

namespace {

bool in_window(std::size_t t, std::size_t lo, std::size_t hi) {
  return t >= lo && t < hi;
}

}  // namespace

std::size_t KvPassWalker::skip_idle() {
  const KvPass& ps = pass_;
  if (in_window(t_, ps.w0, ps.w1) || in_window(t_, ps.r0, ps.r1)) return 0;
  std::size_t next = ps.cycles;
  if (t_ < ps.w0 && ps.w0 < ps.w1) next = std::min(next, ps.w0);
  if (t_ < ps.r0 && ps.r0 < ps.r1) next = std::min(next, ps.r0);
  const std::size_t idle = next - t_;
  t_ = next;
  return idle;
}

void KvPassWalker::plan(Proc& self) const {
  const KvPass& ps = pass_;
  // The run of acts from t_: the write and read windows join where they
  // meet.
  std::size_t end = t_;
  while (in_window(end, ps.w0, ps.w1) || in_window(end, ps.r0, ps.r1)) {
    end = in_window(end, ps.w0, ps.w1) ? ps.w1 : ps.r1;
  }
  const std::span<Act> acts = self.burst_acts(std::min(kBurstActs, end - t_));
  for (std::size_t a = 0; a < acts.size(); ++a) {
    const std::size_t t = t_ + a;
    if (in_window(t, ps.w0, ps.w1)) {
      acts[a].write = ps.wch;
      acts[a].msg =
          ps.keys_only
              ? Message::of(ps.send_keys[t - ps.w0])
              : Message::of(ps.send[t - ps.w0].key, ps.send[t - ps.w0].val);
    }
    if (in_window(t, ps.r0, ps.r1)) acts[a].read = ps.rch;
  }
}

void KvPassWalker::take(std::span<const Proc::ReadResult> got) {
  for (const Proc::ReadResult& r : got) {
    if (in_window(t_, pass_.r0, pass_.r1)) {
      MCB_CHECK(r.has_value(), "broadcast slot empty in cycle "
                                   << t_ << " of a pass on channel "
                                   << pass_.rch);
      pass_.recv[t_ - pass_.r0] =
          KV{r->at(0), pass_.keys_only ? Word{0} : r->at(1)};
    }
    ++t_;
  }
}

KvPass redistribute_pass(const CorePlan& plan, bool is_rep,
                         std::size_t my_col, const std::vector<KV>& column,
                         std::size_t n, std::size_t lo, std::size_t hi,
                         std::vector<KV>& output, int pass) {
  const std::size_t m = plan.m;
  if (pass == 0) {
    MCB_CHECK(hi >= lo && hi <= n, "segment [" << lo << "," << hi << ") of "
                                               << n);
    MCB_CHECK(hi - lo <= m, "segment longer than a column");
    output.assign(hi - lo, KV{});
  }
  KvPass out;
  out.cycles = m;
  // Real (non-dummy) elements in this representative's final column: the
  // dummies are the global minimum, so reals occupy ranks [0, n) and column
  // c holds ranks [c*m, c*m + m). Every pass broadcasts them.
  if (is_rep) {
    out.w1 = std::min(m, n > my_col * m ? n - my_col * m : std::size_t{0});
    out.send = column.data();
    out.wch = static_cast<ChannelId>(my_col);
  }
  // A contiguous segment of <= m ranks spans at most two consecutive
  // columns; collect the first in pass 0, the second in pass 1, in the
  // in-column slots t whose rank want_col*m + t falls in [lo, hi).
  if (hi == lo) return out;
  const std::size_t want_col = pass == 0 ? lo / m : (hi - 1) / m;
  const std::size_t col_lo = want_col * m;
  const std::size_t t0 = lo > col_lo ? lo - col_lo : 0;
  const std::size_t t1 = std::max(t0, hi > col_lo ? std::min(m, hi - col_lo)
                                                  : std::size_t{0});
  if (is_rep && want_col == my_col) {
    // Own column: take the segment locally, no channel reads needed.
    for (std::size_t t = t0; t < t1; ++t) output[col_lo + t - lo] = column[t];
    return out;
  }
  out.r0 = t0;
  out.r1 = t1;
  out.recv = output.data() + (col_lo + t0 - lo);
  out.rch = static_cast<ChannelId>(want_col);
  return out;
}

}  // namespace mcb::algo::detail
