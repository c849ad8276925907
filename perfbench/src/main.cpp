// perfbench: the binary that measures the repository benchmark (see
// ../README.md).
//
//   perfbench --workload <name> [--seed N | --held-out] [--seconds S]
//             [--trace 0|1] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that gives the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Default workload seed, and the held-out seed that --held-out selects: a
/// seed kept apart from tuning, on which a later claim can be re-checked.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2654435761;

/// Metric keys of the final JSON line; they mirror BENCHMARK.json.
const std::vector<std::string> kEndToEnd{
    "wall_s",       "setup_s",       "peak_rss_mb",  "sim_cycles",
    "sim_messages", "ops_per_s",     "op_cycles_p50", "op_cycles_p90"};
const std::vector<std::string> kPerLayer{
    "util.make_workload_s", "util.frame_allocs",     "util.arena_hit_rate",
    "mcb.construct_s",      "mcb.install_s",         "mcb.reset_s",
    "mcb.teardown_s",       "mcb.install_growth",    "mcb.run_s",
    "mcb.resumes",          "mcb.resumes_per_cycle", "mcb.ns_per_resume",
    "algo.outside_run_s",   "algo.cycles_vs_theory", "algo.messages_vs_theory",
    "algo.filter_phases",   "obs.trace_overhead"};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    std::cerr << (i ? "|" : "") << workload_names()[i];
  }
  std::cerr << "> [--seed N | --held-out] [--seconds S] [--trace 0|1]"
               " [--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--held-out") {
        o.seed = kHeldOutSeed;
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host banner: numbers from different hosts or builds are not comparable.
void banner(const Options& o) {
  std::cout << "# perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\n# host: nproc=" << std::thread::hardware_concurrency()
            << " compiler=" << PERFBENCH_COMPILER
            << " build=" << PERFBENCH_BUILD_TYPE
            << " MCB_FRAME_ARENA=" << (MCB_FRAME_ARENA_ENABLED ? "ON" : "OFF")
            << " sweep_grid_threads="
            << std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4)
            << " engine=event\n";
}

/// Exact comparison of an iteration's simulated results with the first
/// iteration's (the determinism guard). Empty when identical.
std::string sim_mismatch(const Iter& a, const Iter& ref) {
  if (a.cycles != ref.cycles) return "sim_cycles differ between iterations";
  if (a.messages != ref.messages) {
    return "sim_messages differ between iterations";
  }
  if (a.op_cycles != ref.op_cycles) {
    return "per-operation cycles differ between iterations";
  }
  return {};
}

/// Program-span cycle/message totals, for the determinism guard between
/// traced iterations.
std::vector<SpanTotals> program_spans(const Tracer& tr, std::uint64_t id,
                                      const Iter& it) {
  if (!it.span_summaries.empty()) return it.span_summaries;
  std::vector<SpanTotals> out;
  for (const SpanTotals& t : tr.totals(id)) {
    if (t.program) out.push_back(t);
  }
  return out;
}

bool same_span_counts(const std::vector<SpanTotals>& a,
                      const std::vector<SpanTotals>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].count != b[i].count ||
        a[i].cycles != b[i].cycles || a[i].messages != b[i].messages) {
      return false;
    }
  }
  return true;
}

class Runner {
 public:
  Runner(const Options& o, Workload& w) : o_(o), w_(w) {}

  /// Runs the iteration and folds it into the ledger, with the determinism
  /// guard against the first iteration.
  Iter step(Tracer* tr) {
    Iter it = w_.iterate(tr);
    if (!have_ref_) {
      ref_ = it;
      have_ref_ = true;
    }
    std::uint64_t bad = it.bad;
    std::string why = it.why;
    const std::string mismatch = sim_mismatch(it, ref_);
    if (bad == 0 && !mismatch.empty()) {
      bad = it.ops;
      why = mismatch;
    }
    ledger_.record(it.ops, bad, why);
    return it;
  }

  /// True while another iteration fits in --seconds (judged by the mean
  /// iteration so far), or fewer than `min_done` have run.
  bool time_left(std::uint64_t start, std::size_t done,
                 std::size_t min_done) const {
    const double elapsed = to_s(now_ns() - start);
    return done < min_done ||
           elapsed + elapsed / static_cast<double>(done) <= o_.seconds;
  }

  void end_to_end(Report& rep) {
    step(nullptr);  // warm-up: arenas, page cache, lazy setup
    std::vector<Iter> its;
    const std::uint64_t start = now_ns();
    while (time_left(start, its.size(), 2)) its.push_back(step(nullptr));

    std::vector<double> wall, setup, ops_per_s;
    for (const Iter& it : its) {
      wall.push_back(it.wall_s);
      setup.push_back(it.setup_s);
      ops_per_s.push_back(static_cast<double>(it.ops) / it.wall_s);
    }
    const std::string op = w_.op_name();
    rep.add_samples("wall_s", "s", wall);
    rep.add_samples("setup_s", "s", setup);
    rep.add("peak_rss_mb", "MB", peak_rss_mb());
    rep.add("sim_cycles", "count", static_cast<double>(ref_.cycles));
    rep.add("sim_messages", "count", static_cast<double>(ref_.messages));
    rep.add_samples("ops_per_s", "1/s", ops_per_s);
    rep.add_samples(w_.ops_name() + "_per_s", "1/s", ops_per_s);
    const double p50 = percentile(ref_.op_cycles, 0.50);
    const double p90 = percentile(ref_.op_cycles, 0.90);
    rep.add("op_cycles_p50", "count", p50);
    rep.add("op_cycles_p90", "count", p90);
    rep.add(op + "_cycles_p50", "count", p50);
    rep.add(op + "_cycles_p90", "count", p90);
    rep.add(w_.ops_name() + "_per_iteration", "count",
            static_cast<double>(ref_.op_cycles.size()));
  }

  void per_layer(Report& rep, Tracer& tr) {
    // Network setup probe at the workload's p and at p/4 (install_growth:
    // 1 for linear install, 4 for quadratic).
    const std::size_t p = w_.probe_p();
    const ProbeTimes big = probe_network(p, 3, &tr);
    const ProbeTimes small = probe_network(p / 4, 3, &tr);
    rep.add("mcb.construct_s", "s", big.construct_s);
    rep.add("mcb.install_s", "s", big.install_s);
    rep.add("mcb.reset_s", "s", big.reset_s);
    rep.add("mcb.teardown_s", "s", big.teardown_s);
    rep.add("mcb.install_growth", "ratio",
            big.install_s / small.install_s / 4.0);
    rep.add("mcb.install_quarter_p_s", "s", small.install_s);

    // Traced and untraced iterations alternate, so drift on the host hits
    // both sides of obs.trace_overhead alike.
    step(nullptr);  // warm-up
    std::vector<Iter> plain, traced;
    std::vector<std::uint64_t> ids;
    const std::uint64_t start = now_ns();
    while (time_left(start, traced.size(), 1)) {
      plain.push_back(step(nullptr));
      tr.next_trace();
      ids.push_back(tr.trace_id());
      traced.push_back(step(&tr));
    }
    const std::vector<SpanTotals> spans0 =
        program_spans(tr, ids.front(), traced.front());
    for (std::size_t i = 1; i < traced.size(); ++i) {
      if (!same_span_counts(program_spans(tr, ids[i], traced[i]), spans0)) {
        ledger_.record(0, 1, "span cycles/messages differ between traced "
                             "iterations");
      }
    }

    const double threads = static_cast<double>(w_.threads());
    std::vector<double> make_wl, run_s, outside, ns_per_resume, wall_t,
        wall_u;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const Iter& it = traced[i];
      double mk = 0.0;
      for (const SpanTotals& t : tr.totals(ids[i])) {
        if (!t.program && t.name == "util.make_workload") mk += t.host_s;
      }
      make_wl.push_back(mk);
      run_s.push_back(it.run_s);
      outside.push_back(it.wall_s - it.run_s / threads);
      ns_per_resume.push_back(it.resumes > 0 ? it.run_s * 1e9 /
                                                   static_cast<double>(
                                                       it.resumes)
                                             : 0.0);
      wall_t.push_back(it.wall_s);
    }
    for (const Iter& it : plain) wall_u.push_back(it.wall_s);

    const Iter& t0 = traced.front();
    rep.add_samples("util.make_workload_s", "s", make_wl);
    rep.add("util.frame_allocs", "count",
            static_cast<double>(t0.frame_allocs));
    rep.add("util.arena_hit_rate", "ratio",
            t0.frame_allocs > 0 ? static_cast<double>(t0.frame_reuses) /
                                      static_cast<double>(t0.frame_allocs)
                                : 0.0);
    rep.add_samples("mcb.run_s", "s", run_s);
    rep.add("mcb.resumes", "count", static_cast<double>(t0.resumes));
    rep.add("mcb.resumes_per_cycle", "ratio",
            t0.cycles > 0 ? static_cast<double>(t0.resumes) /
                                static_cast<double>(t0.cycles)
                          : 0.0);
    rep.add_samples("mcb.ns_per_resume", "ns", ns_per_resume);
    rep.add_samples("algo.outside_run_s", "s", outside);
    rep.add("algo.cycles_vs_theory", "ratio",
            static_cast<double>(t0.cycles) / t0.theory_cycles);
    rep.add("algo.messages_vs_theory", "ratio",
            static_cast<double>(t0.messages) / t0.theory_messages);
    rep.add("algo.filter_phases", "count",
            static_cast<double>(t0.filter_phases));
    rep.add("obs.trace_overhead", "ratio",
            median(wall_t) / median(wall_u) - 1.0);
    rep.add_samples("obs.traced_wall_s", "s", wall_t);
    rep.add_samples("obs.untraced_wall_s", "s", wall_u);

    add_span_metrics(rep, tr, ids, traced);
    w_.layer_extras(tr, rep, ledger_, plain);
  }

  const Ledger& ledger() const { return ledger_; }

 private:
  /// algo.span.<name>.{host_s,self_s,cycles,messages}: per-name sums of one
  /// traced iteration, host times as medians over the traced iterations.
  void add_span_metrics(Report& rep, const Tracer& tr,
                        const std::vector<std::uint64_t>& ids,
                        const std::vector<Iter>& traced) {
    const std::vector<SpanTotals> first =
        program_spans(tr, ids.front(), traced.front());
    for (const SpanTotals& s : first) {
      const std::string base = "algo.span." + s.name;
      if (traced.front().span_summaries.empty()) {
        std::vector<double> host, self;
        for (std::uint64_t id : ids) {
          for (const SpanTotals& t : tr.totals(id)) {
            if (t.program && t.name == s.name) {
              host.push_back(t.host_s);
              self.push_back(t.self_s);
            }
          }
        }
        rep.add_samples(base + ".host_s", "s", host);
        rep.add_samples(base + ".self_s", "s", self);
      }
      rep.add(base + ".count", "count", static_cast<double>(s.count));
      rep.add(base + ".cycles", "count", static_cast<double>(s.cycles));
      rep.add(base + ".messages", "count", static_cast<double>(s.messages));
    }
  }

  const Options& o_;
  Workload& w_;
  Ledger ledger_;
  Iter ref_;
  bool have_ref_ = false;
};

int run(const Options& o) {
  const auto w = make_workload(o.workload, o.seed);
  if (!w) usage("unknown workload " + o.workload);
  banner(o);

  Runner d(o, *w);
  Report rep;
  Tracer tr;
  if (o.trace) {
    d.per_layer(rep, tr);
  } else {
    d.end_to_end(rep);
  }
  const Ledger& l = d.ledger();
  rep.add("fail_ratio", "ratio",
          static_cast<double>(l.failed) /
              static_cast<double>(std::max<std::uint64_t>(l.attempted, 1)));

  std::cout << "# workload: " << w->describe() << "\n" << rep.text();
  for (const std::string& e : l.errors) std::cout << "FAILED: " << e << "\n";
  if (o.trace && !o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    tr.write_json(out);
    if (!out) {
      std::cerr << "perfbench: cannot write " << o.trace_out << "\n";
      return 1;
    }
    std::cout << "# spans: " << tr.spans().size() << " written to "
              << o.trace_out << "\n";
  }
  std::cout << "{\"correct\": " << (l.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << l.attempted
            << ", \"failed\": " << l.failed
            << ", \"metrics\": " << rep.json(o.trace ? kPerLayer : kEndToEnd)
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
