// Scheduled parallel BFS — the engine behind Theorem 2.1 ([Gha15]) as the
// paper uses it: N BFS algorithms, the i-th restricted to its own
// sub-network (for shortcuts: G[S_i] ∪ H_i), all run together under the
// 1-message-per-edge-per-round CONGEST budget.  Each instance starts after
// a (random) delay and grows one hop per delivery opportunity; tokens that
// find an edge busy wait in per-edge FIFO queues (store-and-forward).
//
// With delays drawn uniformly from [0, C) and per-edge congestion <= C,
// dilation <= d, all instances complete in O(C + d log n) rounds w.h.p. —
// exactly the bound the shortcut construction's final step relies on.
//
// Each instance keeps a CSR adjacency over its own members, addressed by
// instance-local ids (a member's rank among the sorted members); a token
// carries its receiver's local id, so the message path does no lookups.
// An instance whose edge set is all of G, with every vertex a member, uses
// G's own CSR with local id = vertex id.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/edge_queues.hpp"
#include "congest/simulator.hpp"

namespace lcs::congest {

struct BfsInstanceSpec {
  VertexId root = graph::kNoVertex;
  /// Sub-network edges (parent-graph edge ids; duplicates tolerated).
  std::vector<EdgeId> edges;
  std::uint32_t depth_cap = graph::kUnreached;
  std::uint32_t start_round = 0;
};

struct TreeInstanceSpec;  // congest/multitree.hpp

class MultiBfsProgram : public Program {
 public:
  MultiBfsProgram(const Graph& g, std::vector<BfsInstanceSpec> specs);
  // Instances view their own arrays through spans, so a program is
  // neither copied nor moved.
  MultiBfsProgram(const MultiBfsProgram&) = delete;
  MultiBfsProgram& operator=(const MultiBfsProgram&) = delete;

  void on_round(NodeContext& ctx) override;
  /// Busy while tokens are queued or any instance still awaits its delayed
  /// start (otherwise the simulator would quiesce before the start round).
  bool idle() const override {
    return queues_.empty() && started_ == inst_.size();
  }

  std::size_t num_instances() const { return inst_.size(); }

  /// BFS distance of `v` in instance `i`, or kUnreached.
  std::uint32_t dist_of(std::size_t i, VertexId v) const;

  /// BFS parent of `v` in instance `i` (parent-graph vertex), or kNoVertex.
  VertexId parent_of(std::size_t i, VertexId v) const;
  /// Edge to the BFS parent, or kNoEdge.
  EdgeId parent_edge_of(std::size_t i, VertexId v) const;

  /// Round at which instance i adopted its last vertex (0 if it never grew).
  std::uint32_t last_adoption_round(std::size_t i) const;

  /// Largest BFS depth reached by instance i.
  std::uint32_t max_depth(std::size_t i) const;

  /// Members (vertices incident to the instance's edges, plus its root).
  const std::vector<VertexId>& members(std::size_t i) const;

 private:
  friend TreeInstanceSpec tree_spec_from_multibfs(const MultiBfsProgram& prog, std::size_t i);

  struct Instance {
    VertexId root;
    std::uint32_t depth_cap;
    std::uint32_t start_round;
    std::vector<VertexId> members;  // sorted; local id = rank
    std::uint32_t root_local;
    bool whole_graph;  // members are all of G's vertices: local id = vertex id
    // Adjacency over local ids: (neighbour's local id, parent-graph edge).
    // Either G's own CSR (all-of-G instances) or the owned arrays below.
    std::span<const std::uint64_t> offsets;
    std::span<const graph::HalfEdge> adj;
    std::vector<std::uint64_t> own_offsets;
    std::vector<graph::HalfEdge> own_adj;
    // Per-member BFS state.
    std::vector<std::uint32_t> dist;
    std::vector<VertexId> parent;
    std::vector<EdgeId> parent_edge;
    std::uint32_t last_adoption = 0;
    std::uint32_t max_depth = 0;
  };

  /// Local id of `v` in instance i, or kUnreached when v is not a member.
  std::uint32_t local_of(std::size_t i, VertexId v) const;
  void adopt_and_enqueue(std::size_t i, std::uint32_t local, std::uint32_t d, VertexId par,
                         EdgeId par_edge, std::uint32_t round);

  const Graph* g_;
  std::vector<Instance> inst_;
  // Instances by root vertex: rooted_[rooted_offsets_[v] .. rooted_offsets_[v + 1]).
  std::vector<std::uint32_t> rooted_offsets_;
  std::vector<std::uint32_t> rooted_;
  EdgeQueues queues_;
  std::size_t started_ = 0;
};

/// Convenience runner: simulate until every instance stops growing, then
/// report the global round count and message totals.
struct MultiBfsOutcome {
  RunStats stats;
};
MultiBfsOutcome run_multi_bfs(const Graph& g, MultiBfsProgram& program,
                              std::uint32_t max_rounds);

}  // namespace lcs::congest
