// The four benchmark workloads and the Network setup probe.
//
// Each workload calls the library's public entry points on inputs made
// from the seed, checks every output against a host oracle that does not
// use the library's algorithms, and returns what one iteration measured.
// README.md says why each workload was chosen and which layer metric
// should move which end-to-end metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// What one iteration measured. Host times in seconds; simulated results
/// are exact and compared across iterations by the determinism guard.
struct Iter {
  double wall_s = 0.0;   ///< the entry call, from call to return
  double setup_s = 0.0;  ///< host time outside the engine loop
  /// Σ RunStats::sim_wall_ns of the iteration's runs (serve_mixed: only
  /// when traced, through the profiler's per-batch wall times).
  double run_s = 0.0;
  std::uint64_t ops = 0;  ///< operations attempted (runs, queries, trials)
  std::uint64_t bad = 0;  ///< of which failed verification or threw
  std::string why;        ///< first failure, when bad > 0

  // Simulated results (the determinism signature).
  std::uint64_t cycles = 0;
  std::uint64_t messages = 0;
  std::vector<double> op_cycles;  ///< simulated cycles per operation

  // Layer counters.
  std::uint64_t resumes = 0;
  std::uint64_t frame_allocs = 0;
  std::uint64_t frame_reuses = 0;
  double theory_cycles = 0.0;    ///< Σ theory::*_cycles_term per run
  double theory_messages = 0.0;  ///< Σ theory::*_messages_term per run
  std::uint64_t filter_phases = 0;
  /// Per-name program span cycles/messages when the spans are known only
  /// as summaries (sweep_grid); empty otherwise.
  std::vector<SpanTotals> span_summaries;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of one operation ("run", "query", "trial") and its plural.
  virtual std::string op_name() const = 0;
  virtual std::string ops_name() const { return op_name() + "s"; }
  /// Processor count the Network setup probe uses.
  virtual std::size_t probe_p() const = 0;
  /// Threads the workload runs on (only sweep_grid uses more than one).
  virtual std::size_t threads() const { return 1; }
  /// One-line geometry for the report header.
  virtual std::string describe() const = 0;

  /// One iteration; `tr` non-null makes it the traced variant.
  virtual Iter iterate(Tracer* tr) = 0;
  /// Workload-specific layer metrics of the traced run (serve.*,
  /// harness.*), measured once after the traced iterations; `untraced`
  /// holds the untraced iterations the traced run interleaved with them.
  virtual void layer_extras(Tracer& /*tr*/, Report& /*rep*/,
                            Ledger& /*ledger*/,
                            const std::vector<Iter>& /*untraced*/) {}
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
const std::vector<std::string>& workload_names();

/// Network setup probe at processor count p (k=1): construction, install
/// of a no-op program on every processor, reset() after the (empty) run,
/// and teardown, each the median of `reps` repetitions.
struct ProbeTimes {
  double construct_s = 0.0;
  double install_s = 0.0;
  double reset_s = 0.0;
  double teardown_s = 0.0;
};
ProbeTimes probe_network(std::size_t p, std::size_t reps, Tracer* tr);

}  // namespace perfbench
