// Host-side run profiler: counts Network::run() calls and accumulates their
// wall time.
//
// Every other collector in src/obs runs in *simulated* time; this one runs
// in *host* time. Both engines are serial, so the one host number the
// engine itself can attribute is the wall clock of each run; per-phase host
// time is a separate concern (docs/OBSERVABILITY.md).
//
// Attachment mirrors the SpanSink pattern: ride on SimConfig::profiler,
// nullptr by default, so a missing profiler costs one predicted branch per
// run. Wall time is read exclusively through the obs::Clock seam
// (obs/clock.hpp) — tests inject a FakeClock to pin the arithmetic, and the
// model directories stay free of direct *_clock::now() calls (mcblint
// MCB-L2).
//
// Determinism contract: everything recorded here is host telemetry. It is
// serialized only inside `host_profile` JSON subtrees, which are excluded
// from the byte-identical determinism contract; `mcbsim strip-host` removes
// them so CI can cmp profiled against unprofiled runs. See
// docs/OBSERVABILITY.md ("Host time vs simulated time").
//
// One profiler may span several Network::run() calls (the serving loop
// reset()s and re-runs one network per query batch): begin_run()/end_run()
// bracket each run and the totals accumulate across them.
#pragma once

#include <cstdint>
#include <string>

#include "obs/clock.hpp"

namespace mcb::obs {

class Profiler {
 public:
  /// `clock` nullptr means obs::default_clock().
  explicit Profiler(Clock* clock = nullptr);

  /// Engine hooks (Network::run; guarded by one profiler != nullptr branch).
  void begin_run();
  void end_run();

  std::uint64_t runs() const { return runs_; }
  std::uint64_t run_wall_ns() const { return run_wall_ns_; }

  /// The `host_profile` JSON subtree (strict RFC 8259 object). Host
  /// telemetry — quarantined from the determinism contract.
  std::string json() const;

  /// One-line text rendering for CLI output (same content as json()).
  std::string text() const;

 private:
  Clock* clock_;
  std::uint64_t run_t0_ = 0;
  bool run_open_ = false;
  std::uint64_t runs_ = 0;
  std::uint64_t run_wall_ns_ = 0;
};

}  // namespace mcb::obs
