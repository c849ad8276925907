#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  q.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), step for step: 1-based
  // position i*(n+1)/4, its integer part clamped to [1, n-1], interpolated
  // (or extrapolated) from the two neighbours.
  auto at = [&](long long i) {
    const long long len = static_cast<long long>(n);
    const long long m = len + 1;
    const long long j = std::clamp<long long>(i * m / 4, 1, len - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * (4.0 - delta) + hi * delta) / 4.0;
  };
  q.q1 = at(1);
  q.q3 = at(3);
  return q;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t r = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, v.size());
  return v[r - 1];
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::add(const std::string& name, const std::string& unit,
                 double value) {
  entries_.push_back({name, unit, value, {}});
}

void Report::add_samples(const std::string& name, const std::string& unit,
                         const std::vector<double>& samples) {
  const Quartiles q = quartiles(samples);
  entries_.push_back({name, unit, q.median, q});
}

const Report::Entry& Report::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw std::logic_error("perfbench: metric " + name + " was not measured");
}

std::string Report::text() const {
  std::ostringstream os;
  for (const Entry& e : entries_) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-34s %16.6g %-6s", e.name.c_str(),
                  e.value, e.unit.c_str());
    os << line;
    if (e.q.n > 0) {
      std::snprintf(line, sizeof line, "  median of n=%zu, q1=%.6g q3=%.6g",
                    e.q.n, e.q.q1, e.q.q3);
      os << line;
    }
    os << '\n';
  }
  return os.str();
}

std::string Report::json(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Entry& e = find(names[i]);
    if (i) os << ", ";
    os << '"' << e.name << "\": {\"value\": " << num(e.value)
       << ", \"unit\": \"" << e.unit << "\"}";
  }
  os << '}';
  return os.str();
}

void Ledger::record(std::uint64_t ops, std::uint64_t bad,
                    const std::string& why) {
  attempted += ops;
  failed += bad;
  if (bad > 0) errors.push_back(why);
}

}  // namespace perfbench
