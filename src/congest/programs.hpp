// Building-block CONGEST programs: BFS, tree convergecast/broadcast,
// prefix assignment (component numbering) and Bellman–Ford SSSP.
//
// Tree programs operate over a RootedTree (typically derived from a BFS);
// the tree is *input configuration* (who my parent is), not communication.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/weighted.hpp"

namespace lcs::congest {

/// A rooted spanning structure: parent pointers plus per-node child edges.
struct RootedTree {
  VertexId root = graph::kNoVertex;
  std::vector<VertexId> parent;       ///< kNoVertex at root / non-members
  std::vector<EdgeId> parent_edge;    ///< kNoEdge at root / non-members
  std::vector<std::vector<EdgeId>> child_edges;
  std::vector<bool> member;

  static RootedTree from_bfs(const Graph& g, const graph::BfsResult& r, VertexId root);
  std::uint32_t num_members() const;
};

/// Distributed single-source BFS.  After the run, dist/parent describe the
/// BFS tree (kUnreached / kNoVertex where not reached within depth_cap).
class BfsProgram : public Program {
 public:
  BfsProgram(std::uint32_t n, VertexId source,
             std::uint32_t depth_cap = graph::kUnreached);

  void on_round(NodeContext& ctx) override;

  const std::vector<std::uint32_t>& dist() const { return dist_; }
  const std::vector<VertexId>& parent() const { return parent_; }
  const std::vector<EdgeId>& parent_edge() const { return parent_edge_; }

 private:
  VertexId source_;
  std::uint32_t depth_cap_;
  std::vector<std::uint32_t> dist_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
};

/// Convergecast: combine per-node values up a rooted tree with an
/// associative op; the root ends up with op over all member values.
class ConvergecastProgram : public Program {
 public:
  using Op = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;

  ConvergecastProgram(const RootedTree& tree, std::vector<std::uint64_t> values, Op op);

  void on_round(NodeContext& ctx) override;

  /// Aggregate at the root (valid after the run).
  std::uint64_t result() const;
  /// Aggregate of v's subtree (valid after the run).
  std::uint64_t subtree_value(VertexId v) const { return acc_[v]; }

 private:
  void maybe_send_up(NodeContext& ctx);

  const RootedTree* tree_;
  Op op_;
  std::vector<std::uint64_t> acc_;
  std::vector<std::uint32_t> pending_children_;
  std::vector<std::uint8_t> sent_;  // per node: sent its subtree value up
};

/// Broadcast a value from the root down a rooted tree.
class BroadcastProgram : public Program {
 public:
  BroadcastProgram(const RootedTree& tree, std::uint64_t value);

  void on_round(NodeContext& ctx) override;

  bool received(VertexId v) const { return has_value_[v]; }
  std::uint64_t value_at(VertexId v) const;

 private:
  const RootedTree* tree_;
  std::uint64_t root_value_;
  std::vector<std::uint8_t> has_value_;
  std::vector<std::uint64_t> value_;
};

/// Ranks flagged nodes 0..K-1 in DFS order of the tree: convergecast of
/// subtree counts, then offset downcast.  This is the paper's "number the
/// large components in [1, N]" step, O(tree depth) rounds.
class PrefixAssignProgram : public Program {
 public:
  PrefixAssignProgram(const RootedTree& tree, std::vector<bool> flagged);

  void on_round(NodeContext& ctx) override;

  /// Rank of a flagged node (valid after the run); kUnreached otherwise.
  std::uint32_t rank(VertexId v) const { return rank_[v]; }
  /// Total number of flagged nodes (valid after the run, at every node
  /// that participated; exposed from the root here).
  std::uint32_t total() const;

 private:
  void assign_and_forward(NodeContext& ctx, std::uint64_t base);

  const RootedTree* tree_;
  std::vector<bool> flagged_;
  std::vector<std::uint64_t> count_;            // subtree flagged count
  std::vector<std::uint32_t> pending_children_;
  std::vector<std::uint8_t> sent_up_;
  std::vector<std::uint64_t> child_count_;      // per edge id -> child subtree count
  std::vector<std::uint32_t> rank_;
};

/// Distributed Bellman–Ford.  Exact SSSP; rounds = hop radius of the
/// shortest-path tree.  Weights are part of the local edge configuration.
class BellmanFordProgram : public Program {
 public:
  BellmanFordProgram(const Graph& g, graph::WeightSpan w, VertexId source);

  void on_round(NodeContext& ctx) override;

  static constexpr std::uint64_t kInf = static_cast<std::uint64_t>(-1);
  const std::vector<std::uint64_t>& dist() const { return dist_; }
  const std::vector<VertexId>& parent() const { return parent_; }
  const std::vector<EdgeId>& parent_edge() const { return parent_edge_; }

 private:
  graph::WeightSpan w_;
  VertexId source_;
  std::vector<std::uint64_t> dist_;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  std::vector<std::uint8_t> dirty_;  // improved since last send
};

}  // namespace lcs::congest
