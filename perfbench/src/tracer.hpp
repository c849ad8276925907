// The traced run's span recorder.
//
// Two kinds of span land in one in-memory list:
//   * benchmark spans, opened from the benchmark's own files around each
//     public call (make_workload, the algo entry, run_server, run_sweep,
//     run_trial, the Network probe steps), and
//   * program spans: the library's existing obs::Span marks, received
//     through SimConfig::span_sink and stamped here with host time.
// Each span keeps its name, start, end and parent; the spans of one
// workload iteration share a trace id. Nothing is written until the run
// ends (write_json). Self time is a span's duration minus the time its
// direct children cover.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "mcb/trace.hpp"

namespace perfbench {

inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::string name;
  bool program = false;  ///< from an obs::Span mark inside the library
  std::size_t parent = kNoSpan;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Simulated cycle and network message count at begin/end (program
  /// spans only; zero for benchmark spans).
  std::uint64_t begin_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::uint64_t begin_messages = 0;
  std::uint64_t end_messages = 0;
};

/// Per-name totals over the spans of one trace id.
struct SpanTotals {
  std::string name;
  bool program = false;
  std::uint64_t count = 0;
  double host_s = 0.0;
  double self_s = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t messages = 0;
};

class Tracer final : public mcb::SpanSink {
 public:
  /// Starts a new trace id; later spans belong to it.
  void next_trace() { ++trace_id_; }
  std::uint64_t trace_id() const { return trace_id_; }

  /// Benchmark spans (use Scope rather than calling these directly).
  std::size_t open(std::string_view name);
  void close(std::size_t index);

  void on_span_begin(std::string_view name, mcb::Cycle cycle,
                     std::uint64_t messages) override;
  void on_span_end(mcb::Cycle cycle, std::uint64_t messages) override;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Per-name totals of one trace id, in first-appearance order.
  std::vector<SpanTotals> totals(std::uint64_t trace_id) const;
  /// Spans of the run as JSON: {"spans": [...]} with one object per span.
  void write_json(std::ostream& os) const;

 private:
  std::size_t push(std::string_view name, bool program);

  std::uint64_t trace_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;  ///< open span indices
};

/// RAII benchmark span; a null tracer (the untraced run) records nothing.
class Scope {
 public:
  Scope(Tracer* tr, std::string_view name)
      : tr_(tr), index_(tr != nullptr ? tr->open(name) : kNoSpan) {}
  ~Scope() {
    if (tr_ != nullptr) tr_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tr_;
  std::size_t index_;
};

}  // namespace perfbench
