// Shared pieces of the benchmark binary: host clock, sample statistics,
// the metric report and the failure ledger.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall clock for every timing the benchmark takes (steady, ns).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Median and quartiles of a sample, the quartiles by the same "exclusive"
/// rule as Python's statistics.quantiles(values, n=4).
struct Quartiles {
  std::size_t n = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);
inline double median(const std::vector<double>& v) {
  return quartiles(v).median;
}

/// Nearest-rank percentile (ceil(q * n), floored at rank 1) of a sample.
double percentile(std::vector<double> values, double q);

/// Every metric a run prints, in print order. Host metrics built from
/// samples carry their sample count and quartiles; simulated counts and
/// derived ratios are single values (samples == 0).
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  void add_samples(const std::string& name, const std::string& unit,
                   const std::vector<double>& samples);

  /// Human-readable table (one metric per line, with unit and spread).
  std::string text() const;
  /// JSON object {"name": {"value": v, "unit": u}, ...} over `names`, in
  /// that order. Throws if one of them was never added.
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
    Quartiles q;
  };
  const Entry& find(const std::string& name) const;
  std::vector<Entry> entries_;
};

/// Operations attempted and failed (verification mismatches, exceptions,
/// determinism violations). Failures are counted, printed and never hidden.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Records `ops` attempted operations of which `bad` failed; `why` is
  /// kept (and printed) when bad > 0.
  void record(std::uint64_t ops, std::uint64_t bad, const std::string& why);
};

/// Shortest round-trip decimal form of a double ("%.17g").
std::string num(double v);

}  // namespace perfbench
