// Breadth-first search family, connectivity and diameter utilities.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace lcs::graph {

/// Result of a (possibly truncated / multi-source) BFS.
struct BfsResult {
  std::vector<std::uint32_t> dist;   ///< kUnreached where not reached
  std::vector<VertexId> parent;      ///< kNoVertex at sources / unreached
  std::vector<EdgeId> parent_edge;   ///< kNoEdge at sources / unreached
  std::uint32_t max_dist = 0;        ///< eccentricity restricted to reached set
  std::uint32_t reached = 0;         ///< number of reached vertices

  bool reached_vertex(VertexId v) const { return dist[v] != kUnreached; }
};

/// Plain BFS from a single source.
BfsResult bfs(const Graph& g, VertexId source);

/// BFS that never expands beyond `depth_cap` hops.
BfsResult bfs_truncated(const Graph& g, VertexId source, std::uint32_t depth_cap);

/// Multi-source BFS; dist is the distance to the nearest source.
BfsResult bfs_multi(const Graph& g, const std::vector<VertexId>& sources);

/// Reconstruct the source->target path (sequence of vertices) from a BFS.
/// Empty when the target was not reached.
std::vector<VertexId> extract_path(const BfsResult& r, VertexId target);

/// Connected components; returns component id per vertex and the count.
struct Components {
  std::vector<std::uint32_t> id;
  std::uint32_t count = 0;
};
Components connected_components(const Graph& g);

bool is_connected(const Graph& g);

/// Exact diameter by all-pairs BFS, run as a bit-parallel multi-source BFS
/// over blocks of 64 sources: O(ceil(n/64) * D * (n + m)) word operations.
/// Requires a connected graph.  Runs on the calling thread, reusing one
/// scratch across the source blocks.
std::uint32_t diameter_exact(const Graph& g);

/// Lower bound on the diameter by repeated double-sweep (exact on trees and
/// usually exact on our families).  `sweeps` extra restarts tighten it.
std::uint32_t diameter_double_sweep(const Graph& g, unsigned sweeps = 4);

/// Both diameter bounds of a connected graph from one set of sweeps: `lb`
/// is diameter_double_sweep(g, sweeps) and `ub` is 2 * eccentricity(g, 0),
/// read off the first sweep, which is a BFS from vertex 0.
struct DiameterBounds {
  std::uint32_t lb = 0;
  std::uint32_t ub = 0;
};
DiameterBounds diameter_bounds(const Graph& g, unsigned sweeps = 4);

/// Eccentricity of v (max distance to any reachable vertex).
std::uint32_t eccentricity(const Graph& g, VertexId v);

// ---------------------------------------------------------------------------
// Edge-induced subgraphs.
//
// A shortcut subgraph H_i is a set of edge ids of the parent graph; the
// augmented part G[S_i] ∪ H_i is exactly an edge-induced subgraph.  This
// class materialises a local CSR over the touched vertices so the BFS/
// diameter helpers above can run on it unchanged via `local_graph()`.
// ---------------------------------------------------------------------------
class EdgeInducedSubgraph {
 public:
  /// Build from parent graph + edge id set (duplicates tolerated).
  EdgeInducedSubgraph(const Graph& parent, const std::vector<EdgeId>& edge_ids);

  const Graph& local_graph() const { return local_; }
  std::uint32_t num_vertices() const { return local_.num_vertices(); }
  std::uint32_t num_edges() const { return local_.num_edges(); }

  /// Parent-vertex of a local vertex id.
  VertexId to_parent(VertexId local) const {
    LCS_REQUIRE(local < to_parent_.size(), "local vertex out of range");
    return to_parent_[local];
  }
  /// Local id of a parent vertex, if present.
  std::optional<VertexId> to_local(VertexId parent) const;

  /// True when every vertex of `parent_vertices` appears in the subgraph.
  bool contains_all(const std::vector<VertexId>& parent_vertices) const;

 private:
  Graph local_;
  std::vector<VertexId> to_parent_;
  std::vector<VertexId> parent_to_local_;  // dense map, kNoVertex when absent
};

/// Depth at which a BFS from `source` (a parent vertex) inside the subgraph
/// covers all of `targets` (parent vertices); nullopt when it never does.
std::optional<std::uint32_t> cover_radius(const EdgeInducedSubgraph& sub, VertexId source,
                                          const std::vector<VertexId>& targets);

/// Bridges (cut edges) of the graph; returns edge ids.  Iterative Tarjan.
std::vector<EdgeId> bridges(const Graph& g);

}  // namespace lcs::graph
