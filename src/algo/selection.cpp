#include "algo/selection.hpp"

#include <utility>

#include "algo/multi_select.hpp"

namespace mcb::algo {

SelectionResult select_rank(const SimConfig& cfg,
                            const std::vector<std::vector<Word>>& inputs,
                            std::size_t d, SelectionOptions opts,
                            TraceSink* sink) {
  auto batch = select_ranks(cfg, inputs, {d}, opts, sink);
  SelectionResult result;
  result.value = batch.values[0];
  result.filter_phases = batch.filter_phases;
  result.candidates_per_phase = std::move(batch.candidates_per_phase);
  result.stats = std::move(batch.stats);
  return result;
}

SelectionResult select_median(const SimConfig& cfg,
                              const std::vector<std::vector<Word>>& inputs,
                              SelectionOptions opts, TraceSink* sink) {
  std::size_t n = 0;
  for (const auto& in : inputs) n += in.size();
  return select_rank(cfg, inputs, (n + 1) / 2, opts, sink);
}

}  // namespace mcb::algo
