#include "tracer.hpp"

#include "common.hpp"

namespace perfbench {

std::size_t Tracer::push(std::string_view name, bool program) {
  SpanRecord r;
  r.trace_id = trace_id_;
  r.name = std::string(name);
  r.program = program;
  r.parent = stack_.empty() ? kNoSpan : stack_.back();
  r.start_ns = now_ns();
  spans_.push_back(std::move(r));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

std::size_t Tracer::open(std::string_view name) { return push(name, false); }

void Tracer::close(std::size_t index) {
  const std::uint64_t t = now_ns();
  // Closing a benchmark span also closes anything a failed call left open
  // beneath it, so one exception cannot corrupt the parent links of the
  // spans that follow.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = t;
    if (top == index) break;
  }
}

void Tracer::on_span_begin(std::string_view name, mcb::Cycle cycle,
                           std::uint64_t messages) {
  const std::size_t i = push(name, true);
  spans_[i].begin_cycle = cycle;
  spans_[i].begin_messages = messages;
}

void Tracer::on_span_end(mcb::Cycle cycle, std::uint64_t messages) {
  const std::uint64_t t = now_ns();
  if (stack_.empty() || !spans_[stack_.back()].program) return;
  SpanRecord& r = spans_[stack_.back()];
  stack_.pop_back();
  r.end_ns = t;
  r.end_cycle = cycle;
  r.end_messages = messages;
}

std::vector<SpanTotals> Tracer::totals(std::uint64_t trace_id) const {
  std::vector<SpanTotals> out;
  std::vector<double> covered(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    if (r.trace_id == trace_id && r.parent != kNoSpan) {
      covered[r.parent] += to_s(r.end_ns - r.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    if (r.trace_id != trace_id) continue;
    SpanTotals* t = nullptr;
    for (SpanTotals& e : out) {
      if (e.name == r.name && e.program == r.program) t = &e;
    }
    if (t == nullptr) {
      out.push_back({r.name, r.program, 0, 0.0, 0.0, 0, 0});
      t = &out.back();
    }
    const double dur = to_s(r.end_ns - r.start_ns);
    ++t->count;
    t->host_s += dur;
    t->self_s += dur - covered[i];
    t->cycles += r.end_cycle - r.begin_cycle;
    t->messages += r.end_messages - r.begin_messages;
  }
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    if (i) os << ",";
    os << "\n  {\"trace\": " << r.trace_id << ", \"name\": \"" << r.name
       << "\", \"kind\": \"" << (r.program ? "program" : "benchmark")
       << "\", \"parent\": "
       << (r.parent == kNoSpan ? std::string("null")
                               : std::to_string(r.parent))
       << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
       << ", \"cycles\": " << r.end_cycle - r.begin_cycle
       << ", \"messages\": " << r.end_messages - r.begin_messages << "}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
