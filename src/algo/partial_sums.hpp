// The Partial-Sums collective of Section 7.1.
//
// Given a value a_i at each processor P_i and a commutative, associative
// operator ⊕, computes at every processor the prefix a_1 ⊕ ... ⊕ a_i (and
// optionally the neighbouring prefix and the total). Implemented exactly as
// the paper describes: Vishkin's tree machine simulated level by level —
// bottom-up combine, top-down prefix distribution — with each tree node
// simulated by the processor that simulates its left son, so only
// father/right-son messages are sent. Levels near the leaves batch their
// messages k at a time over the channels; the top log k levels take one
// cycle each.
//
// Complexity: O(p/k + log k) cycles and O(p) messages, matching the paper.
//
// This is a *collective*: every processor of the network must co_await it
// in the same cycle, like an MPI collective. General p is supported (the
// conceptual tree is padded to a power of two; dummy nodes simply never
// write, and the detectable silence stands in for the identity value).
//
// Implementation shape: each processor walks its schedule in plain code (a
// small non-coroutine walker in partial_sums.cpp) and the coroutine awaits
// every act at one skip + cycle site. GCC 12 gives each local and each
// co_await temporary of a coroutine its own frame slot, so a site per
// phase would cost about 1.3 KB of frame per processor per call; one site
// fits the frame arena's 576-byte class, which the pair sort's frames
// already occupy in selection (docs/ENGINE.md, "Memory model").
// tests/partial_sums_test.cpp pins the exact schedule (cycles, messages,
// resumes, trace digest) and the frame budget.
#pragma once

#include <functional>

#include "mcb/coro.hpp"
#include "mcb/proc.hpp"
#include "mcb/types.hpp"

namespace mcb::algo {

/// The ⊕ operator with its identity element. Must be commutative and
/// associative; both sides only ever see values produced by `a_i`s and ⊕.
struct SumOp {
  std::function<Word(Word, Word)> combine;
  Word identity = 0;

  static SumOp add();
  static SumOp max();
  static SumOp min();
};

struct PartialSumsOptions {
  bool with_total = false;  ///< broadcast the total to all processors
  bool with_next = false;   ///< also obtain the successor's inclusive prefix
};

struct PartialSumsResult {
  Word before = 0;  ///< a_1 ⊕ ... ⊕ a_{i-1}  (identity for P_1)
  Word self = 0;    ///< a_1 ⊕ ... ⊕ a_i
  Word next = 0;    ///< a_1 ⊕ ... ⊕ a_{i+1}  (== self for P_p; needs with_next)
  Word total = 0;   ///< a_1 ⊕ ... ⊕ a_p       (needs with_total)
};

/// The collective. `a_i` is this processor's input value.
Task<PartialSumsResult> partial_sums(Proc& self, Word a_i, const SumOp& op,
                                     PartialSumsOptions opts = {});

}  // namespace mcb::algo
