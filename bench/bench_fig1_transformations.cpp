// E1 — Figure 1: the four matrix transformations.
//
// Prints the worked example (what Figure 1 of the paper illustrates),
// verifies the broadcast schedules hit the Koenig round bound across a
// dimension sweep, and times the schedule builders.
#include <benchmark/benchmark.h>

#include <numeric>

#include "bench_common.hpp"
#include "seq/columnsort.hpp"
#include "seq/matrix.hpp"
#include "sched/schedule.hpp"

namespace {

using namespace mcb;

void print_example() {
  bench::section("Figure 1: transformations on a 6x3 example");
  const std::size_t m = 6, k = 3;
  for (auto t : {sched::Transform::kTranspose,
                 sched::Transform::kUndiagonalize, sched::Transform::kUpShift,
                 sched::Transform::kDownShift}) {
    std::vector<Word> data(m * k);
    std::iota(data.begin(), data.end(), Word{1});
    seq::apply_transform(t, data, m, k);
    std::cout << sched::to_string(t) << ":\n";
    seq::ColMatrix mat(data, m, k);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        std::cout.width(4);
        std::cout << mat.at(r, c);
      }
      std::cout << '\n';
    }
  }
}

void print_schedule_table() {
  bench::section("broadcast schedules: rounds vs the Koenig bound (<= m)");
  util::Table t;
  t.header({"transform", "m", "k", "rounds", "bound m", "messages",
            "cross moves"});
  for (auto tr : {sched::Transform::kTranspose,
                  sched::Transform::kUndiagonalize,
                  sched::Transform::kUpShift, sched::Transform::kDownShift}) {
    for (auto [m, k] : std::vector<std::pair<std::size_t, std::size_t>>{
             {64, 8}, {256, 16}, {1024, 32}}) {
      auto table = sched::permutation_table(tr, m, k);
      auto plan = sched::plan_transform(tr, m, k, &table);
      std::uint64_t cross = 0;
      for (std::size_t ell = 0; ell < m * k; ++ell) {
        if (table[ell] / m != ell / m) ++cross;
      }
      t.row({util::Table::txt(sched::to_string(tr)), util::Table::num(m),
             util::Table::num(k), util::Table::num(plan.cycles()),
             util::Table::num(m), util::Table::num(plan.messages()),
             util::Table::num(cross)});
    }
  }
  std::cout << t;
}

void BM_PermutationTable(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::permutation_table(sched::Transform::kUndiagonalize, m, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * 16));
}
BENCHMARK(BM_PermutationTable)->Arg(256)->Arg(4096);

// Plan build cost is dominated by the Birkhoff decomposition: transpose at
// k=16 peels 15 matchings, undiagonalize at (16384, 64) — the shape
// sort_dense's plan builds — peels 3192.
void BM_PlanTransform(benchmark::State& state) {
  const auto t = static_cast<sched::Transform>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::plan_transform(t, m, k));
  }
}
BENCHMARK(BM_PlanTransform)
    ->ArgNames({"transform", "m", "k"})
    ->Args({static_cast<int>(sched::Transform::kTranspose), 256, 16})
    ->Args({static_cast<int>(sched::Transform::kTranspose), 4096, 16})
    ->Args({static_cast<int>(sched::Transform::kUndiagonalize), 16384, 64})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_example();
  print_schedule_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
