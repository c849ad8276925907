#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "algo/multi_select.hpp"
#include "algo/selection.hpp"
#include "algo/sort.hpp"
#include "harness/sweep.hpp"
#include "mcb/network.hpp"
#include "obs/profiler.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "theory/bounds.hpp"
#include "util/workload.hpp"

namespace perfbench {

namespace {

using mcb::Word;
using Lists = std::vector<std::vector<Word>>;

// ---- host oracles (independent of the library's algorithms) -------------

/// The d-th largest value of the flattened input (1-based).
Word nth_largest(const Lists& inputs, std::size_t d) {
  std::vector<Word> flat;
  for (const auto& in : inputs) flat.insert(flat.end(), in.begin(), in.end());
  auto nth = flat.begin() + static_cast<std::ptrdiff_t>(d - 1);
  std::nth_element(flat.begin(), nth, flat.end(), std::greater<Word>{});
  return *nth;
}

/// Empty when `out` is a descending permutation of `in` with the input's
/// per-processor sizes; otherwise the reason it is not.
std::string check_sorted(const Lists& out, const Lists& in) {
  if (out.size() != in.size()) return "sort returned the wrong list count";
  std::optional<Word> prev;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].size() != in[i].size()) {
      return "sort changed the size of processor " + std::to_string(i);
    }
    for (Word w : out[i]) {
      if (prev && w > *prev) return "sort output is not descending";
      prev = w;
    }
  }
  if (mcb::util::multiset_fingerprint(out) !=
      mcb::util::multiset_fingerprint(in)) {
    return "sort output is not a permutation of the input";
  }
  return {};
}

// ---- the one-shots: select_skip and sort_dense -------------------------

/// One algorithm run on a freshly generated, evenly split workload. The
/// subclass makes the entry call (timed) and checks its output (untimed).
class OneShot : public Workload {
 public:
  std::string op_name() const override { return "run"; }
  std::size_t probe_p() const override { return p_; }

  Iter iterate(Tracer* tr) override {
    Iter it;
    it.ops = 1;
    const std::uint64_t t0 = now_ns();
    mcb::util::Workload w;
    {
      Scope s(tr, "util.make_workload");
      w = mcb::util::make_workload(n_, p_, mcb::util::Shape::kEven, seed_);
    }
    const std::uint64_t t1 = now_ns();
    mcb::SimConfig cfg{.p = p_, .k = k_};
    cfg.span_sink = tr;
    mcb::RunStats st;
    std::uint64_t t2 = 0;
    std::uint64_t t3 = 0;
    try {
      Scope s(tr, span_);
      t2 = now_ns();
      st = enter(cfg, w.inputs);
      t3 = now_ns();
    } catch (const std::exception& e) {
      it.bad = 1;
      it.why = std::string(span_) + " threw: " + e.what();
      return it;
    }
    check(w, it);
    it.wall_s = to_s(t3 - t2);
    it.run_s = to_s(st.sim_wall_ns);
    it.setup_s = to_s(t1 - t0) + it.wall_s - it.run_s;
    it.cycles = st.cycles;
    it.messages = st.messages;
    it.op_cycles = {static_cast<double>(st.cycles)};
    it.resumes = st.proc_resumes;
    it.frame_allocs = st.frame_allocs;
    it.frame_reuses = st.frame_reuses;
    return it;
  }

 protected:
  OneShot(std::size_t p, std::size_t k, std::size_t n, std::uint64_t seed,
          const char* span)
      : p_(p), k_(k), n_(n), seed_(seed), span_(span) {}

  /// The library entry call; returns the run's statistics.
  virtual mcb::RunStats enter(const mcb::SimConfig& cfg,
                              const Lists& inputs) = 0;
  /// Checks the output against the host oracle (it.bad/why on failure)
  /// and fills the theory terms.
  virtual void check(const mcb::util::Workload& w, Iter& it) = 0;

  std::size_t p_;
  std::size_t k_;
  std::size_t n_;

 private:
  std::uint64_t seed_;
  const char* span_;
};

class SelectSkip final : public OneShot {
 public:
  explicit SelectSkip(std::uint64_t seed)
      : OneShot(16384, 4, 65536, seed, "algo.select_median") {}
  std::string describe() const override {
    return "algo::select_median p=16384 k=4 n=65536 shape=even";
  }

 private:
  mcb::RunStats enter(const mcb::SimConfig& cfg,
                      const Lists& inputs) override {
    res_ = mcb::algo::select_median(cfg, inputs);
    return res_.stats;
  }
  void check(const mcb::util::Workload& w, Iter& it) override {
    const Word want = nth_largest(w.inputs, (n_ + 1) / 2);
    if (res_.value != want) {
      it.bad = 1;
      it.why = "select_median returned " + std::to_string(res_.value) +
               ", true median " + std::to_string(want);
    }
    it.theory_cycles = mcb::theory::selection_cycles_term(p_, k_, n_);
    it.theory_messages = mcb::theory::selection_messages_term(p_, k_, n_);
    it.filter_phases = res_.filter_phases;
  }

  mcb::algo::SelectionResult res_;
};

class SortDense final : public OneShot {
 public:
  explicit SortDense(std::uint64_t seed)
      : OneShot(4096, 256, std::size_t{1} << 20, seed, "algo.sort") {}
  std::string describe() const override {
    return "algo::sort (auto) p=4096 k=256 n=1048576 shape=even; auto chose " +
           used_;
  }

 private:
  mcb::RunStats enter(const mcb::SimConfig& cfg,
                      const Lists& inputs) override {
    res_ = mcb::algo::sort(cfg, inputs);
    return res_.run.stats;
  }
  void check(const mcb::util::Workload& w, Iter& it) override {
    used_ = mcb::algo::to_string(res_.used);
    const std::string err = check_sorted(res_.run.outputs, w.inputs);
    if (!err.empty()) {
      it.bad = 1;
      it.why = err;
    }
    it.theory_cycles = mcb::theory::sorting_cycles_term(n_, k_, w.max_local());
    it.theory_messages = mcb::theory::sorting_messages_term(n_);
    res_ = {};  // free the 2^20 outputs before the next iteration's run
  }

  mcb::algo::SortOutcome res_;
  std::string used_ = "?";
};

// ---- serve_mixed ---------------------------------------------------------

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::uint64_t seed) {
    for (std::size_t j = 0; j < kSessions; ++j) {
      mcb::serve::ServeConfig c;
      c.sim = mcb::SimConfig{.p = kP, .k = kK};
      c.n = kN;
      c.seed = seed * kSessions + j;
      c.queries = 128;
      c.batch = 8;
      c.classes = mcb::serve::parse_classes("rank:4,topk:2,churn:1");
      sessions_.push_back({c, {}});
    }
  }
  std::string op_name() const override { return "query"; }
  std::string ops_name() const override { return "queries"; }
  std::size_t probe_p() const override { return kP; }
  std::string describe() const override {
    return "serve::run_server p=1024 k=32 n=65536, 8 sessions of 128 "
           "queries, batch 8, classes rank:4,topk:2,churn:1 (closed loop, "
           "one client)";
  }

  Iter iterate(Tracer* tr) override {
    // The first call serves every session with ServeConfig::verify, which
    // checks each answer against Dataset::nth_largest; every later session
    // must reproduce those answers exactly. (The first iteration is the
    // warm-up, whose timings are discarded.)
    const bool verify = !verified_;
    verified_ = true;
    Iter it;
    std::vector<mcb::serve::ServeReport> reps;
    for (Session& sess : sessions_) {
      // Session-open cost: the same configuration with an empty stream.
      mcb::serve::ServeConfig empty = sess.cfg;
      empty.queries = 0;
      const std::uint64_t t0 = now_ns();
      {
        Scope s(tr, "serve.open_session");
        mcb::serve::run_server(empty);
      }
      it.setup_s += to_s(now_ns() - t0);
      if (tr != nullptr) {
        Scope s(tr, "util.make_workload");
        mcb::serve::Dataset data(kN, kP, sess.cfg.seed);
      }

      mcb::serve::ServeConfig cfg = sess.cfg;
      cfg.verify = verify;
      mcb::obs::Profiler prof;
      if (tr != nullptr) {
        cfg.sim.span_sink = tr;
        cfg.sim.profiler = &prof;
      }
      mcb::serve::ServeReport rep;
      try {
        Scope s(tr, "serve.run_server");
        const std::uint64_t t2 = now_ns();
        rep = mcb::serve::run_server(cfg);
        it.wall_s += to_s(now_ns() - t2);
      } catch (const std::exception& e) {
        ++it.ops;
        if (it.bad++ == 0) {
          it.why = std::string("run_server threw: ") + e.what();
        }
      }
      if (verify) {
        sess.reference = rep;
      } else {
        compare(rep, sess.reference, it);
      }
      for (const auto& q : rep.queries) {
        if (q.kind == mcb::serve::OpKind::kChurn) continue;
        ++it.ops;
        it.op_cycles.push_back(static_cast<double>(q.latency_cycles));
      }
      for (std::uint64_t ns : rep.batch_wall_ns) it.run_s += to_s(ns);
      it.cycles += rep.total_cycles;
      it.messages += rep.total_messages;
      it.frame_allocs += rep.frame_allocs;
      it.frame_reuses += rep.frame_reuses;
      it.filter_phases += rep.filter_phases;
      const double batches = static_cast<double>(rep.batches);
      it.theory_cycles +=
          batches * mcb::theory::selection_cycles_term(kP, kK, kN);
      it.theory_messages +=
          batches * mcb::theory::selection_messages_term(kP, kK, kN);
      if (tr != nullptr && !replayed_) replay(sess.cfg, rep, tr, it);
      reps.push_back(std::move(rep));
    }
    if (tr != nullptr) {
      replayed_ = true;
      it.resumes = replay_resumes_;
      for (const auto& rep : reps) {
        for (std::uint64_t ns : rep.batch_wall_ns) {
          traced_batch_ms_.push_back(static_cast<double>(ns) * 1e-6);
        }
      }
      last_ = std::move(reps);
    }
    return it;
  }

  void layer_extras(Tracer&, Report& rep, Ledger&,
                    const std::vector<Iter>&) override {
    double answered = 0.0;
    double batches = 0.0;
    double cycles = 0.0;
    double allocs = 0.0;
    double reuses = 0.0;
    for (const auto& r : last_) {
      for (const auto& q : r.queries) {
        if (q.kind != mcb::serve::OpKind::kChurn) answered += 1.0;
      }
      batches += static_cast<double>(r.batches);
      cycles += static_cast<double>(r.total_cycles);
      allocs += static_cast<double>(r.frame_allocs);
      reuses += static_cast<double>(r.frame_reuses);
    }
    rep.add("serve.batches", "count", batches);
    rep.add("serve.batch_size_mean", "count",
            batches > 0 ? answered / batches : 0.0);
    rep.add("serve.frame_reuse_ratio", "ratio",
            allocs > 0 ? reuses / allocs : 0.0);
    rep.add("serve.cycles_per_query", "count",
            answered > 0 ? cycles / answered : 0.0);
    rep.add("serve.batch_host_ms_p50", "ms",
            percentile(traced_batch_ms_, 0.50));
    rep.add("serve.batch_host_ms_p90", "ms",
            percentile(traced_batch_ms_, 0.90));
    rep.add("serve.batch_host_ms_samples", "count",
            static_cast<double>(traced_batch_ms_.size()));
  }

 private:
  static constexpr std::size_t kP = 1024;
  static constexpr std::size_t kK = 32;
  static constexpr std::size_t kN = 65536;
  /// Sessions per iteration, seeded seed*8 .. seed*8+7. One 128-query
  /// session's simulated cycles per answered query vary by about 9% from
  /// seed to seed (churn barriers split batches). Over seeds 11..20, eight
  /// sessions keep the spread of the totals and of op_cycles_p50/p90 at
  /// 2-4%; six sessions let the percentiles reach about 9%.
  static constexpr std::size_t kSessions = 8;

  struct Session {
    mcb::serve::ServeConfig cfg;
    mcb::serve::ServeReport reference;  ///< the verified session
  };

  static void compare(const mcb::serve::ServeReport& rep,
                      const mcb::serve::ServeReport& want, Iter& it) {
    if (rep.queries.size() != want.queries.size()) {
      std::uint64_t n = 0;
      for (const auto& q : rep.queries) {
        if (q.kind != mcb::serve::OpKind::kChurn) ++n;
      }
      if (it.bad == 0) it.why = "session differs from the verified session";
      it.bad += n;
      return;
    }
    for (std::size_t i = 0; i < want.queries.size(); ++i) {
      const auto& a = rep.queries[i];
      const auto& b = want.queries[i];
      if (a.kind == mcb::serve::OpKind::kChurn) continue;
      if (a.kind != b.kind || a.rank != b.rank || a.value != b.value ||
          a.latency_cycles != b.latency_cycles) {
        if (it.bad++ == 0) {
          it.why = "query " + std::to_string(a.index) +
                   " differs from the verified session";
        }
      }
    }
  }

  /// Re-runs a session's batches on a caller-owned Network through the
  /// public select_ranks_on, with the batch composition and churn points
  /// read from its report. run_server does not expose per-run resume
  /// counts; this replay does, and its answers and cycles must match the
  /// report's exactly.
  void replay(const mcb::serve::ServeConfig& cfg,
              const mcb::serve::ServeReport& rep, Tracer* tr, Iter& it) {
    Scope s(tr, "serve.replay");
    mcb::serve::Dataset data(kN, kP, cfg.seed);
    mcb::Network net(mcb::SimConfig{.p = kP, .k = kK});
    bool first = true;
    std::size_t batch = 0;
    std::vector<std::size_t> ds;
    std::vector<const mcb::serve::QueryRecord*> members;
    auto flush = [&] {
      if (ds.empty()) return;
      if (!first) net.reset();
      first = false;
      const auto res = mcb::algo::select_ranks_on(net, data.shards(), ds);
      replay_resumes_ += res.stats.proc_resumes;
      for (std::size_t j = 0; j < members.size(); ++j) {
        if (res.values[j] != members[j]->value ||
            res.stats.cycles != members[j]->latency_cycles) {
          if (it.bad++ == 0) {
            it.why = "replayed batch " + std::to_string(batch) +
                     " differs from the session";
          }
        }
      }
      ds.clear();
      members.clear();
    };
    try {
      for (const auto& q : rep.queries) {
        if (q.kind == mcb::serve::OpKind::kChurn) {
          flush();
          data.churn();
          continue;
        }
        if (q.batch_id != batch) {
          flush();
          batch = q.batch_id;
        }
        ds.push_back(q.rank);
        members.push_back(&q);
      }
      flush();
    } catch (const std::exception& e) {
      if (it.bad++ == 0) it.why = std::string("replay threw: ") + e.what();
    }
  }

  std::vector<Session> sessions_;
  bool verified_ = false;
  bool replayed_ = false;
  std::uint64_t replay_resumes_ = 0;
  std::vector<double> traced_batch_ms_;
  std::vector<mcb::serve::ServeReport> last_;
};

// ---- sweep_grid ----------------------------------------------------------

class SweepGrid final : public Workload {
 public:
  explicit SweepGrid(std::uint64_t seed) {
    sweep_.ps = {64, 256, 1024};
    sweep_.ks = {4, 16};
    sweep_.ns = {16384};
    sweep_.shapes = {mcb::util::Shape::kEven, mcb::util::Shape::kZipf};
    sweep_.algorithms = {"auto", "select"};
    sweep_.base_seed = seed;
    sweep_.seeds = 8;
    const std::size_t hw = std::thread::hardware_concurrency();
    threads_ = std::clamp<std::size_t>(hw, 1, 4);
  }
  std::string op_name() const override { return "trial"; }
  std::size_t probe_p() const override { return 1024; }
  std::size_t threads() const override { return threads_; }
  std::string describe() const override {
    return "harness::run_sweep p{64,256,1024} x k{4,16} x n=16384 x "
           "{even,zipf} x {auto,select} x 8 seeds = 192 trials on " +
           std::to_string(threads_) + " thread(s)";
  }

  Iter iterate(Tracer* tr) override {
    Iter it;
    mcb::harness::Sweep sw = sweep_;
    sw.obs = tr != nullptr;
    if (tr != nullptr) {
      // The trials generate their inputs inside run_trial; this serial
      // pass times the same generation on its own for util.make_workload_s.
      Scope s(tr, "util.make_workload");
      for (const auto& spec : mcb::harness::expand(sw)) {
        mcb::util::make_workload(spec.point.n, spec.point.p, spec.point.shape,
                                 spec.seed);
      }
    }
    mcb::harness::SweepRun run;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    try {
      Scope s(tr, "harness.run_sweep");
      t0 = now_ns();
      run = mcb::harness::run_sweep(sw, {.threads = threads_});
      t1 = now_ns();
    } catch (const std::exception& e) {
      it.ops = sweep_.trials();
      it.bad = it.ops;
      it.why = std::string("run_sweep threw: ") + e.what();
      return it;
    }
    it.wall_s = to_s(t1 - t0);
    accumulate(run.results, it);
    it.setup_s =
        it.wall_s - it.run_s / static_cast<double>(run.threads_used);
    return it;
  }

  void layer_extras(Tracer& tr, Report& rep, Ledger& ledger,
                    const std::vector<Iter>& untraced) override {
    std::vector<double> walls;
    std::vector<double> shares;
    for (const Iter& u : untraced) {
      walls.push_back(u.wall_s);
      shares.push_back(u.run_s /
                       (u.wall_s * static_cast<double>(threads_)));
    }
    // harness.speedup: the same sweep on one worker, whose per-trial
    // results must equal the multi-thread ones exactly.
    Iter serial;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    try {
      Scope s(&tr, "harness.run_sweep.1thread");
      t0 = now_ns();
      const auto one = mcb::harness::run_sweep(sweep_, {.threads = 1});
      t1 = now_ns();
      accumulate(one.results, serial);
    } catch (const std::exception& e) {
      serial.ops = serial.bad = sweep_.trials();
      serial.why = std::string("1-thread run_sweep threw: ") + e.what();
    }
    if (serial.bad == 0 && !untraced.empty() &&
        (serial.op_cycles != untraced.front().op_cycles ||
         serial.messages != untraced.front().messages)) {
      serial.bad = serial.ops;
      serial.why = "1-thread sweep differs from the multi-thread sweep";
    }
    ledger.record(serial.ops, serial.bad, serial.why);
    const double one_wall = to_s(t1 - t0);
    rep.add("harness.one_thread_wall_s", "s", one_wall);
    rep.add("harness.speedup", "ratio",
            walls.empty() ? 0.0 : one_wall / median(walls));
    rep.add("harness.engine_share", "ratio", median(shares));

    // harness.trial_outside_run_s: serial run_trial calls, each wall minus
    // its engine loop.
    double outside = 0.0;
    std::uint64_t bad = 0;
    std::string why;
    const auto specs = mcb::harness::expand(sweep_);
    for (const auto& spec : specs) {
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      mcb::harness::TrialResult r;
      {
        Scope s(&tr, "harness.run_trial");
        a = now_ns();
        r = mcb::harness::run_trial(spec, sweep_.engine);
        b = now_ns();
      }
      outside += to_s(b - a) - to_s(r.sim_wall_ns);
      if (!r.ok() && bad++ == 0) why = "serial trial: " + r.error;
    }
    ledger.record(specs.size(), bad, why);
    rep.add("harness.trial_outside_run_s", "s", outside);
  }

 private:
  static void accumulate(const std::vector<mcb::harness::TrialResult>& results,
                         Iter& it) {
    for (const auto& r : results) {
      ++it.ops;
      if (!r.ok() && it.bad++ == 0) it.why = "trial: " + r.error;
      it.cycles += r.cycles;
      it.messages += r.messages;
      it.op_cycles.push_back(static_cast<double>(r.cycles));
      it.run_s += to_s(r.sim_wall_ns);
      it.resumes += r.proc_resumes;
      it.frame_allocs += r.frame_allocs;
      it.frame_reuses += static_cast<std::uint64_t>(std::llround(
          r.arena_hit_rate * static_cast<double>(r.frame_allocs)));
      it.theory_cycles += r.predicted_cycles;
      it.theory_messages += r.predicted_messages;
      for (const auto& sp : r.spans) {
        if (sp.name == "filter") it.filter_phases += sp.count;
        SpanTotals* t = nullptr;
        for (SpanTotals& e : it.span_summaries) {
          if (e.name == sp.name) t = &e;
        }
        if (t == nullptr) {
          it.span_summaries.push_back({sp.name, true, 0, 0.0, 0.0, 0, 0});
          t = &it.span_summaries.back();
        }
        t->count += sp.count;
        t->cycles += sp.cycles;
        t->messages += sp.messages;
      }
    }
  }

  mcb::harness::Sweep sweep_;
  std::size_t threads_ = 1;
};

mcb::ProcMain idle(mcb::Proc& /*self*/) { co_return; }

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "select_skip") return std::make_unique<SelectSkip>(seed);
  if (name == "sort_dense") return std::make_unique<SortDense>(seed);
  if (name == "serve_mixed") return std::make_unique<ServeMixed>(seed);
  if (name == "sweep_grid") return std::make_unique<SweepGrid>(seed);
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"select_skip", "sort_dense",
                                              "serve_mixed", "sweep_grid"};
  return names;
}

ProbeTimes probe_network(std::size_t p, std::size_t reps, Tracer* tr) {
  std::vector<double> construct, install, reset, teardown;
  Scope probe(tr, "mcb.probe");
  for (std::size_t r = 0; r < reps; ++r) {
    const mcb::SimConfig cfg{.p = p, .k = 1};
    std::uint64_t t0 = now_ns();
    std::optional<mcb::Network> net;
    {
      Scope s(tr, "mcb.construct");
      net.emplace(cfg);
    }
    std::uint64_t t1 = now_ns();
    construct.push_back(to_s(t1 - t0));
    {
      Scope s(tr, "mcb.install");
      for (std::size_t i = 0; i < p; ++i) {
        const auto id = static_cast<mcb::ProcId>(i);
        net->install(id, idle(net->proc(id)));
      }
    }
    install.push_back(to_s(now_ns() - t1));
    {
      Scope s(tr, "mcb.run");
      net->run();
    }
    t0 = now_ns();
    {
      Scope s(tr, "mcb.reset");
      net->reset();
    }
    reset.push_back(to_s(now_ns() - t0));
    // Re-arm with programs so the teardown also destroys p coroutines.
    for (std::size_t i = 0; i < p; ++i) {
      const auto id = static_cast<mcb::ProcId>(i);
      net->install(id, idle(net->proc(id)));
    }
    net->run();
    t0 = now_ns();
    {
      Scope s(tr, "mcb.teardown");
      net.reset();
    }
    teardown.push_back(to_s(now_ns() - t0));
  }
  return {median(construct), median(install), median(reset),
          median(teardown)};
}

}  // namespace perfbench
