// A digest of a run's observable schedule, for the tests that pin one.
//
// The equivalence grids only compare the engines to each other, so a change
// made identically in both would slip through them. A schedule pin hard-codes
// cycles, messages, resumes, auxiliary words and an FNV-1a digest of every
// trace event and span mark from a known good build instead; a rewrite of
// the protocol must reproduce all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "mcb/stats.hpp"
#include "mcb/trace.hpp"
#include "mcb/types.hpp"

namespace mcb {

/// FNV-1a over 64-bit words, byte by byte (little end first).
class Fnv1a {
 public:
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const std::optional<Message>& m) {
    add(m.has_value());
    if (!m) return;
    add(m->size());
    for (std::size_t w = 0; w < m->size(); ++w) {
      add(static_cast<std::uint64_t>((*m)[w]));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hashes the cycle-by-cycle event stream and the span marks as they
/// arrive, so the digest covers the order the engine produced them in.
class DigestSink final : public TraceSink, public SpanSink {
 public:
  void on_event(const CycleEvent& ev) override {
    fnv.add(ev.cycle);
    fnv.add(ev.proc);
    fnv.add(ev.wrote.has_value());
    fnv.add(ev.wrote.value_or(0));
    fnv.add(ev.sent);
    fnv.add(ev.read.has_value());
    fnv.add(ev.read.value_or(0));
    fnv.add(ev.received);
  }
  void on_span_begin(std::string_view name, Cycle cycle,
                     std::uint64_t messages) override {
    for (char c : name) fnv.add(static_cast<std::uint64_t>(c));
    fnv.add(cycle);
    fnv.add(messages);
  }
  void on_span_end(Cycle cycle, std::uint64_t messages) override {
    fnv.add(cycle);
    fnv.add(messages);
  }

  Fnv1a fnv;
};

}  // namespace mcb
