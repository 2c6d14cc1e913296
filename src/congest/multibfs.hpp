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
// carries its receiver's local id, and each adjacency entry carries its
// outgoing slot, so the message path does no lookups.  An instance whose
// edge set is all of G, with every vertex a member, uses one program-wide
// copy of G's CSR with local id = vertex id.
//
// Storage is flat: the members, local CSRs and per-member BFS state of all
// instances sit in program-wide arrays at per-instance offsets, so a
// program allocates a handful of arrays however many instances it runs.
// reset() loads a new set of instances into the same arrays (and keeps the
// whole-graph block), so a caller that runs one program per Borůvka phase
// allocates only while the arrays grow.
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

/// One instance over a caller-owned edge list, as MultiBfsProgram::reset
/// takes it: `edges` ascending with no duplicates (what augmented_edges
/// returns) and alive until reset() returns.
struct BfsInstanceView {
  VertexId root = graph::kNoVertex;
  std::span<const EdgeId> edges;
  std::uint32_t depth_cap = graph::kUnreached;
  std::uint32_t start_round = 0;
};

struct TreeInstanceSpec;  // congest/multitree.hpp

class MultiBfsProgram : public Program {
 public:
  MultiBfsProgram(const Graph& g, std::vector<BfsInstanceSpec> specs);
  /// No instances until reset().
  explicit MultiBfsProgram(const Graph& g);

  /// Replace every instance with `instances`, reusing this program's
  /// storage; call it between runs, never during one.  The first invalid
  /// instance throws std::invalid_argument.
  void reset(std::span<const BfsInstanceView> instances);

  void on_round(NodeContext& ctx) override;
  /// Busy while tokens are queued or any instance still awaits its delayed
  /// start (otherwise the simulator would quiesce before the start round).
  /// A root registers each delayed start with NodeContext::wake_at in
  /// round 0.
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

  /// Members (vertices incident to the instance's edges, plus its root),
  /// sorted.
  std::span<const VertexId> members(std::size_t i) const;

 private:
  friend TreeInstanceSpec tree_spec_from_multibfs(const MultiBfsProgram& prog, std::size_t i);
  friend class TreeLayout;

  /// One entry of a local CSR: the neighbour's local id and the outgoing
  /// slot towards the neighbour (its edge is slot / 2).
  struct Hop {
    std::uint32_t to;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  struct Instance {
    VertexId root;
    std::uint32_t depth_cap;
    std::uint32_t start_round;
    std::uint32_t root_local;
    std::uint32_t size;       // members
    bool whole_graph;         // members are all of G's vertices: local id = vertex id
    std::size_t member_base;  // members: members_[member_base, member_base + size)
    std::size_t hop_base;     // local k's hops: hops_[hop_off_[hop_base + k] .. + k + 1])
    std::size_t state_base;   // BFS state of local k at index state_base + k
    std::uint32_t last_adoption = 0;
    std::uint32_t max_depth = 0;
  };

  /// Local id of `v` in instance i, or kUnreached when v is not a member.
  std::uint32_t local_of(std::size_t i, VertexId v) const;
  void adopt_and_enqueue(NodeContext& ctx, std::size_t i, std::uint32_t local, std::uint32_t d,
                         VertexId par, std::uint32_t up_slot);
  /// Members 0..n-1 and G's CSR at the front of members_, hop_off_ and
  /// hops_, built at the first whole-graph instance and kept across resets.
  void build_whole_graph_block();

  const Graph* g_;
  bool has_isolated_ = false;
  bool whole_built_ = false;
  std::vector<Instance> inst_;
  std::vector<VertexId> members_;
  std::vector<std::uint64_t> hop_off_;
  std::vector<Hop> hops_;
  // Per-member BFS state, with the member's vertex beside it: a token's
  // receipt reads one entry.  up_slot is the slot towards the parent (its
  // edge is the parent edge), kNoSlot at the root and before adoption.
  struct State {
    std::uint32_t dist;
    VertexId parent;
    std::uint32_t up_slot;
    VertexId vertex;
  };
  std::vector<State> state_;
  // Instances by root vertex: rooted_[rooted_offsets_[v] .. rooted_offsets_[v + 1]).
  std::vector<std::uint32_t> rooted_offsets_;
  std::vector<std::uint32_t> rooted_;
  // reset() scratch: the local id of each member of the instance being
  // built (stale entries of earlier instances are never read) and the
  // local CSR's fill cursors.
  std::vector<std::uint32_t> local_;
  std::vector<std::uint64_t> fill_;
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
