// Shared helpers for the distributed algorithms.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "mcb/types.hpp"
#include "util/check.hpp"

namespace mcb::algo {

/// Padding value used for the dummy elements of Sections 5.2 and 7.2. It is
/// smaller than every real element, so after a descending sort all dummies
/// sit at the global tail. Inputs must not contain this value (validated at
/// the algorithm entry points).
inline constexpr Word kDummy = std::numeric_limits<Word>::min();

/// A sortable (key, value) pair. The distributed sorts order by key
/// descending (value as a deterministic tie-break); the value tags along —
/// the selection algorithm sorts (median, count) pairs this way, exactly as
/// Section 8 prescribes.
struct KV {
  Word key = 0;
  Word val = 0;

  friend bool operator==(const KV&, const KV&) = default;
  /// Descending-order comparator (largest first).
  friend bool desc_before(const KV& a, const KV& b) {
    return a.key != b.key ? a.key > b.key : a.val > b.val;
  }
};

inline constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Rounds `a` up to a multiple of `b`.
inline constexpr std::size_t round_up(std::size_t a, std::size_t b) {
  return ceil_div(a, b) * b;
}

}  // namespace mcb::algo
