// Vertex partitions into disjoint connected parts.
//
// Shortcut inputs (Definition 1.1 of the paper) are collections
// S = {S_1, ..., S_l} of vertex-disjoint connected subsets.  A Partition
// here is exactly that: it need not cover every vertex.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace lcs::graph {

struct Partition {
  /// parts[i] lists the vertices of S_i (each part non-empty).
  std::vector<std::vector<VertexId>> parts;

  std::size_t num_parts() const { return parts.size(); }

  /// Dense map vertex -> part index, or -1 when the vertex is in no part.
  std::vector<std::int32_t> assignment(std::uint32_t n) const;

  /// Leader of part i: the maximum-id vertex, as in the paper's distributed
  /// input convention ("each part is identified by the node of maximum ID").
  VertexId leader(std::size_t i) const;
};

/// The parts of a Partition laid out flat, for callers that rebuild their
/// parts often (every Borůvka phase): part i is members[offsets[i] ..
/// offsets[i + 1]), and refilling it reuses both arrays.
struct FlatPartition {
  std::vector<VertexId> members;
  /// num_parts() + 1 entries, ascending; empty means no parts.
  std::vector<std::uint32_t> offsets;

  std::size_t num_parts() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const VertexId> part(std::size_t i) const {
    return {members.data() + offsets[i], members.data() + offsets[i + 1]};
  }
};

/// Empty string when valid; otherwise a description of the violation
/// (out-of-range vertex, duplicate membership, or a disconnected part).
std::string validate_partition(const Graph& g, const Partition& p);

// --- partition generators --------------------------------------------------

/// BFS-Voronoi cells around `num_seeds` random seeds.  Every vertex joins
/// the cell of its multi-source-BFS parent, which keeps cells connected.
/// Covers every vertex of a connected graph.
Partition ball_partition(const Graph& g, std::uint32_t num_seeds, Rng& rng);

/// Random spanning-forest chunks of at most `max_part_size` vertices:
/// random edge order, union only when the merged part stays within bound.
Partition forest_partition(const Graph& g, std::uint32_t max_part_size, Rng& rng);

/// Every vertex its own part.
Partition singleton_partition(const Graph& g);

/// One part spanning each connected component.
Partition component_partition(const Graph& g);

}  // namespace lcs::graph
