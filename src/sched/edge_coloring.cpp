#include "sched/edge_coloring.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace mcb::sched {
namespace {

std::vector<std::uint64_t> row_sums(const CountMatrix& m) {
  std::vector<std::uint64_t> s(m.size(), 0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (auto v : m[i]) s[i] += v;
  }
  return s;
}

std::vector<std::uint64_t> col_sums(const CountMatrix& m) {
  std::vector<std::uint64_t> s(m.size(), 0);
  for (const auto& row : m) {
    for (std::size_t j = 0; j < row.size(); ++j) s[j] += row[j];
  }
  return s;
}

void validate_square(const CountMatrix& m) {
  for (const auto& row : m) {
    MCB_REQUIRE(row.size() == m.size(), "matrix must be square");
  }
}

// Kuhn's augmenting-path matching on the positive support of the counts.
// `support` holds one bit row of `words` 64-bit words per matrix row (bit j
// of row i set iff counts[i][j] > 0); `visited` is the DFS's column set.
// Columns are tried in ascending order: every supported column below the
// one just tried is already visited, so the lowest bit of row & ~visited is
// always the next column a plain 0..k-1 scan would reach.
struct KuhnMatcher {
  static constexpr std::uint32_t kFree = UINT32_MAX;

  const std::uint64_t* support;
  std::size_t words;
  std::uint64_t* visited;
  std::uint32_t* match_col;  ///< row matched to column j, or kFree

  bool augment(std::uint32_t row) const {
    const std::uint64_t* bits = support + row * words;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t open = bits[w] & ~visited[w];
      while (open != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(open));
        visited[w] |= std::uint64_t{1} << b;
        const std::size_t j = w * 64 + b;
        if (match_col[j] == kFree || augment(match_col[j])) {
          match_col[j] = row;
          return true;
        }
        open = bits[w] & ~visited[w];
      }
    }
    return false;
  }
};

}  // namespace

std::uint64_t max_degree(const CountMatrix& counts) {
  validate_square(counts);
  std::uint64_t r = 0;
  for (auto v : row_sums(counts)) r = std::max(r, v);
  for (auto v : col_sums(counts)) r = std::max(r, v);
  return r;
}

CountMatrix pad_to_regular(const CountMatrix& counts) {
  validate_square(counts);
  const std::size_t k = counts.size();
  const std::uint64_t r = max_degree(counts);
  auto rows = row_sums(counts);
  auto cols = col_sums(counts);
  CountMatrix dummy(k, std::vector<std::uint64_t>(k, 0));
  // Greedy transport of row deficits onto column deficits. Total row deficit
  // equals total column deficit (both are k*R - sum), so this terminates
  // with every deficit consumed.
  std::size_t i = 0, j = 0;
  while (i < k && j < k) {
    const std::uint64_t rd = r - rows[i];
    const std::uint64_t cd = r - cols[j];
    if (rd == 0) {
      ++i;
      continue;
    }
    if (cd == 0) {
      ++j;
      continue;
    }
    const std::uint64_t x = std::min(rd, cd);
    dummy[i][j] += x;
    rows[i] += x;
    cols[j] += x;
  }
  return dummy;
}

EdgeColoring euler_color(std::size_t left_size, std::size_t right_size,
                         const std::vector<BipEdge>& edges) {
  const std::size_t n_real = edges.size();
  // Equalize the two sides with virtual vertices so the padding below can
  // reach an exactly regular (hence all-even-degree) multigraph — the Euler
  // walks then consist of circuits only, which is what makes the
  // alternating split exact. Vertex ids: left 0..M-1, right M..2M-1.
  const std::size_t side = std::max(left_size, right_size);
  std::vector<std::uint32_t> eu, ev;
  eu.reserve(n_real);
  ev.reserve(n_real);
  std::vector<std::size_t> degL(side, 0), degR(side, 0);
  for (const auto& e : edges) {
    MCB_REQUIRE(e.left < left_size && e.right < right_size,
                "edge (" << e.left << "," << e.right << ") out of range");
    eu.push_back(e.left);
    ev.push_back(static_cast<std::uint32_t>(side + e.right));
    ++degL[e.left];
    ++degR[e.right];
  }
  std::size_t delta = 0;
  for (auto d : degL) delta = std::max(delta, d);
  for (auto d : degR) delta = std::max(delta, d);

  EdgeColoring out;
  out.colors.assign(n_real, 0);
  if (delta <= 1) {
    out.num_colors = delta == 0 ? 0 : 1;
    return out;
  }
  std::uint32_t ncolors = 1;
  while (ncolors < delta) ncolors *= 2;

  // Pad to ncolors-regular: total deficits on both (equalized) sides match,
  // so the two-pointer transport consumes them exactly.
  {
    std::size_t li = 0, ri = 0;
    while (li < side && ri < side) {
      if (degL[li] == ncolors) {
        ++li;
        continue;
      }
      if (degR[ri] == ncolors) {
        ++ri;
        continue;
      }
      eu.push_back(static_cast<std::uint32_t>(li));
      ev.push_back(static_cast<std::uint32_t>(side + ri));
      ++degL[li];
      ++degR[ri];
    }
    for (std::size_t v = 0; v < side; ++v) {
      MCB_CHECK(degL[v] == ncolors && degR[v] == ncolors,
                "padding failed to regularize vertex " << v);
    }
  }

  const std::size_t nv = 2 * side;
  std::vector<std::uint32_t> all(eu.size());
  for (std::size_t e = 0; e < all.size(); ++e) {
    all[e] = static_cast<std::uint32_t>(e);
  }
  out.num_colors = ncolors;

  // Recursive Euler halving. The padded graph is ncolors-regular with
  // ncolors a power of two, so every level sees an even-regular multigraph:
  // its components decompose into Euler circuits, and assigning edges
  // alternately along each circuit splits every vertex's edges exactly in
  // half (bipartite circuits have even length). Each half is
  // (span/2)-regular, down to perfect matchings at span 1.
  struct Frame {
    std::vector<std::uint32_t> edge_ids;
    std::uint32_t color_base;
    std::uint32_t span;  // number of colors available to this subgraph
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{std::move(all), 0, ncolors});
  // Scratch adjacency reused across frames.
  while (!stack.empty()) {
    Frame fr = std::move(stack.back());
    stack.pop_back();
    if (fr.edge_ids.empty()) continue;
    if (fr.span == 1) {
      for (auto e : fr.edge_ids) {
        if (e < n_real) out.colors[e] = fr.color_base;
      }
      continue;
    }
    // Adjacency over local edge indices (le indexes fr.edge_ids).
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj(nv);
    std::vector<bool> used(fr.edge_ids.size(), false);
    for (std::uint32_t le = 0; le < fr.edge_ids.size(); ++le) {
      const auto e = fr.edge_ids[le];
      adj[eu[e]].push_back({ev[e], le});
      adj[ev[e]].push_back({eu[e], le});
    }
    std::vector<std::size_t> cursor(nv, 0);
    std::vector<std::uint32_t> half_a, half_b;
    half_a.reserve(fr.edge_ids.size() / 2 + 1);
    half_b.reserve(fr.edge_ids.size() / 2 + 1);
    // Start trails preferentially at odd-degree vertices, then circuits.
    auto walk = [&](std::uint32_t start) {
      // Hierholzer-style walk consuming edges; alternate assignment along
      // the trail.
      std::vector<std::uint32_t> trail;
      std::vector<std::uint32_t> vstack{start};
      std::vector<std::uint32_t> estack;
      while (!vstack.empty()) {
        const auto v = vstack.back();
        bool advanced = false;
        while (cursor[v] < adj[v].size()) {
          auto [w, le] = adj[v][cursor[v]];
          ++cursor[v];
          if (used[le]) continue;
          used[le] = true;
          vstack.push_back(w);
          estack.push_back(le);
          advanced = true;
          break;
        }
        if (!advanced) {
          vstack.pop_back();
          if (!estack.empty() && !vstack.empty()) {
            trail.push_back(estack.back());
            estack.pop_back();
          }
        }
      }
      bool to_a = true;
      for (auto le : trail) {
        (to_a ? half_a : half_b).push_back(fr.edge_ids[le]);
        to_a = !to_a;
      }
    };
    for (std::uint32_t v = 0; v < nv; ++v) {
      walk(v);  // consumes v's component; later calls find nothing left
    }
    stack.push_back(Frame{std::move(half_a), fr.color_base, fr.span / 2});
    stack.push_back(
        Frame{std::move(half_b),
              static_cast<std::uint32_t>(fr.color_base + fr.span / 2),
              fr.span / 2});
  }
  return out;
}

std::vector<PermTerm> birkhoff_decompose(const CountMatrix& input) {
  validate_square(input);
  const std::size_t k = input.size();
  auto rows = row_sums(input);
  auto cols = col_sums(input);
  const std::uint64_t r = rows.empty() ? 0 : rows[0];
  for (std::size_t i = 0; i < k; ++i) {
    MCB_REQUIRE(rows[i] == r && cols[i] == r,
                "matrix is not doubly regular: row/col " << i << " sums "
                    << rows[i] << "/" << cols[i] << " vs " << r);
  }

  // Flat k x k counts plus their positive support as bit rows.
  const std::size_t words = (k + 63) / 64;
  std::vector<std::uint64_t> counts(k * k);
  std::vector<std::uint64_t> support(k * words, 0);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      counts[i * k + j] = input[i][j];
      if (input[i][j] > 0) {
        support[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  }
  std::vector<PermTerm> result;
  std::vector<std::uint64_t> visited(words);
  std::vector<std::uint32_t> match_col(k);
  const KuhnMatcher kuhn{support.data(), words, visited.data(),
                         match_col.data()};
  std::uint64_t remaining = r;
  while (remaining > 0) {
    // Perfect matching on the support. An R-regular non-negative integer
    // matrix always has one (Hall's condition holds), so failure here is an
    // internal invariant violation.
    for (auto& owner : match_col) owner = KuhnMatcher::kFree;
    for (std::size_t row = 0; row < k; ++row) {
      for (auto& w : visited) w = 0;
      const bool ok = kuhn.augment(static_cast<std::uint32_t>(row));
      MCB_CHECK(ok, "no perfect matching in regular matrix (row " << row
                                                                  << ")");
    }
    PermTerm term;
    term.perm.resize(k);
    std::uint64_t lambda = UINT64_MAX;
    for (std::size_t j = 0; j < k; ++j) {
      term.perm[match_col[j]] = static_cast<std::uint32_t>(j);
      lambda = std::min(lambda, counts[match_col[j] * k + j]);
    }
    term.count = lambda;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = match_col[j];
      if ((counts[i * k + j] -= lambda) == 0) {
        support[i * words + j / 64] &= ~(std::uint64_t{1} << (j % 64));
      }
    }
    remaining -= lambda;
    result.push_back(std::move(term));
  }
  return result;
}

}  // namespace mcb::sched
