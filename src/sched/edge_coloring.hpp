// Bipartite multigraph edge coloring via Birkhoff–von-Neumann decomposition.
//
// A matrix transformation on k columns is, communication-wise, a bipartite
// multigraph: count[c][c'] elements must move from column c to column c'.
// Scheduling it collision-free on the MCB means partitioning the edges into
// rounds in which every column sends at most once and receives at most once
// — i.e. into (sub-)permutation matrices. König's theorem guarantees that
// R = max row/column sum rounds suffice; this module computes such a
// partition constructively: pad the matrix to an R-regular one, then peel
// off permutation matrices by repeated perfect matching (Kuhn's augmenting
// paths on the k x k support). The cost is not small: each term runs k
// augmentations from an empty matching, and each DFS step scans a row as
// k/64 bit words, so a decomposition costs about terms x k rows x k/64-word
// scans (times the augmenting-path length). The undiagonalize matrix at
// m=16384 peels 3192 terms at k=64 and 9224 at k=128: ~0.06 s and ~0.7 s
// in a release build on a 2 GHz Xeon.
#pragma once

#include <cstdint>
#include <vector>

namespace mcb::sched {

/// A permutation matrix with multiplicity: `perm[i] = j` means edge i -> j,
/// used for `count` consecutive rounds.
struct PermTerm {
  std::vector<std::uint32_t> perm;
  std::uint64_t count = 0;
};

using CountMatrix = std::vector<std::vector<std::uint64_t>>;

/// Decomposes a square non-negative matrix whose row sums and column sums
/// all equal R into permutation terms with counts summing to R (Birkhoff).
/// Throws std::invalid_argument if the sums are not all equal.
std::vector<PermTerm> birkhoff_decompose(const CountMatrix& counts);

/// Pads `counts` (arbitrary square non-negative matrix) with dummy entries
/// so every row and column sums to R = max row/col sum. Returns the dummy
/// matrix (same shape); counts + dummies is R-regular.
CountMatrix pad_to_regular(const CountMatrix& counts);

/// max row/column sum — the number of rounds any schedule needs (and, by
/// König, achieves).
std::uint64_t max_degree(const CountMatrix& counts);

/// One edge of an explicit bipartite multigraph: left vertex -> right
/// vertex.
struct BipEdge {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
};

/// Result of euler_color: colors[e] is edge e's color in [0, num_colors).
struct EdgeColoring {
  std::vector<std::uint32_t> colors;
  std::uint32_t num_colors = 0;
};

/// Colors the edges of an explicit bipartite multigraph so that no two
/// edges of one color share a left or right endpoint, using Euler-split
/// halving: near-linear time, at most 2^ceil(log2(Delta)) < 2*Delta colors
/// (Delta = max degree). Used for the large, irregular transfer graphs of
/// the recursive Columnsort, where the Birkhoff peeling of
/// birkhoff_decompose would be too slow.
EdgeColoring euler_color(std::size_t left_size, std::size_t right_size,
                         const std::vector<BipEdge>& edges);

}  // namespace mcb::sched
