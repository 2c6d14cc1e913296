// Scheduled multi-instance tree aggregation: N convergecasts (and
// broadcasts) over N trees — typically the BFS trees that MultiBfsProgram
// just built over the augmented subgraphs — sharing the CONGEST bandwidth
// with per-edge FIFO queues, exactly like the multi-BFS stage.
//
// This is the communication pattern behind the shortcut framework's
// applications: "every fragment aggregates its minimum-weight outgoing
// edge over G[S_i] ∪ H_i" is one MultiConvergecast (min) followed by one
// MultiBroadcast of the result.
//
// Both programs run over a TreeLayout: one flat copy of the trees, built
// once (from the BFS program or from specs) and shared by the convergecast
// and the broadcast that follows it.  A layout, a convergecast and a
// broadcast can each be refilled (assign, reset) over their own storage,
// so a Borůvka call builds them once and reuses them in every phase.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "congest/edge_queues.hpp"
#include "congest/simulator.hpp"

namespace lcs::congest {

/// A rooted tree over a subset of vertices, given by parent pointers.
/// members must be distinct and include the root; parent/parent_edge are
/// parallel to members (kNoVertex/kNoEdge at the root), and each parent
/// edge joins its member to that member's parent.
struct TreeInstanceSpec {
  VertexId root = graph::kNoVertex;
  std::vector<VertexId> members;
  std::vector<VertexId> parent;
  std::vector<EdgeId> parent_edge;
  /// Per-member input value (used by the convergecast).
  std::vector<std::uint64_t> value;
};

class MultiBfsProgram;

/// The trees of one scheduled convergecast/broadcast pair, flat: every
/// instance's members, parents and children sit in layout-wide arrays at
/// per-instance offsets.  Built once per set of trees and shared by the
/// programs that run over them.  Member k of instance i (its local id) is
/// flat index begin(i) + k; parent and child links are resolved to local
/// ids and to the outgoing slot of their edge, so a token carries its
/// receiver's local id and the message path does no lookups.
class TreeLayout {
 public:
  /// Validates every spec; the first invalid one throws std::invalid_argument.
  TreeLayout(const Graph& g, const std::vector<TreeInstanceSpec>& specs);
  /// The BFS tree of every instance of `bfs`: the members it reached, in
  /// its member order (what tree_spec_from_multibfs returns, instance by
  /// instance).
  explicit TreeLayout(const MultiBfsProgram& bfs);
  /// No trees until assign().
  TreeLayout() = default;

  /// Replace the trees with those of `bfs`, as the constructor above lays
  /// them out, reusing this layout's storage.  A program over the old
  /// trees must be reset before it runs again.
  void assign(const MultiBfsProgram& bfs);

  std::size_t num_instances() const { return root_local_.size(); }
  /// Flat index of instance i's first member; begin(num_instances()) is
  /// the total member count.
  std::size_t begin(std::size_t i) const { return begin_[i]; }
  /// The vertex of flat member x.
  VertexId vertex(std::size_t x) const { return node_[x].vertex; }

 private:
  friend class MultiConvergecastProgram;
  friend class MultiBroadcastProgram;

  /// Child lists from node_, each in member order.
  void link_children();

  /// What a token's receiver reads, side by side.
  struct Member {
    VertexId vertex;
    std::uint32_t parent_local;  // kNoLocal at the root
    std::uint32_t up_slot;       // slot towards the parent
  };
  struct Child {
    std::uint32_t local;
    std::uint32_t slot;  // slot towards the child
  };

  std::vector<std::size_t> begin_{0};      // per instance, plus the total
  std::vector<std::uint32_t> root_local_;  // per instance
  std::vector<Member> node_;               // per member
  // Children of flat member x: child_[child_off_[x] .. child_off_[x + 1]).
  std::vector<std::size_t> child_off_;
  std::vector<Child> child_;
  // assign() scratch: the tree-local id of each reached member of the
  // instance being laid out (stale entries are never read).
  std::vector<std::uint32_t> tree_local_;
};

class MultiConvergecastProgram : public Program {
 public:
  using Op = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;

  /// `op` must be associative and commutative.  `values` holds one input
  /// per member in the layout's flat order; `layout` must outlive the
  /// program.
  MultiConvergecastProgram(const Graph& g, const TreeLayout& layout,
                           const std::vector<std::uint64_t>& values, Op op);
  /// Builds its own layout from `specs`, with the values of spec.value.
  MultiConvergecastProgram(const Graph& g, const std::vector<TreeInstanceSpec>& specs, Op op);
  /// No trees until reset().
  MultiConvergecastProgram(const Graph& g, Op op);

  /// Start over on `layout` with `values` (one per member, flat order),
  /// reusing this program's storage; call it between runs.  `layout` must
  /// outlive the program's next run.
  void reset(const TreeLayout& layout, std::span<const std::uint64_t> values);

  void on_round(NodeContext& ctx) override;
  bool idle() const override { return queues_.empty(); }

  /// Aggregate over instance i's members (valid after quiescence).
  std::uint64_t result(std::size_t i) const;
  /// True when the root of instance i received all child reports.
  bool complete(std::size_t i) const;

 private:
  /// `ctx` is the turn it runs in, or null from reset().
  void maybe_enqueue_up(NodeContext* ctx, std::size_t i, std::uint32_t local);

  // The spec constructor's layout, or an empty one until reset().
  std::unique_ptr<const TreeLayout> own_;
  const TreeLayout* layout_;
  Op op_;
  struct Acc {
    std::uint64_t value;
    std::uint32_t pending_children;
    std::uint32_t sent;
  };

  std::vector<Acc> acc_;  // per member, in the layout's flat order
  EdgeQueues queues_;
};

class MultiBroadcastProgram : public Program {
 public:
  /// Broadcast `root_values[i]` down tree i; `layout` must outlive the
  /// program.
  MultiBroadcastProgram(const Graph& g, const TreeLayout& layout,
                        const std::vector<std::uint64_t>& root_values);
  /// Builds its own layout from `specs`.
  MultiBroadcastProgram(const Graph& g, const std::vector<TreeInstanceSpec>& specs,
                        const std::vector<std::uint64_t>& root_values);
  /// No trees until reset().
  explicit MultiBroadcastProgram(const Graph& g);

  /// Start over on `layout` with one root value per instance, reusing this
  /// program's storage; call it between runs.  `layout` must outlive the
  /// program's next run.
  void reset(const TreeLayout& layout, std::span<const std::uint64_t> root_values);

  void on_round(NodeContext& ctx) override;
  bool idle() const override { return queues_.empty(); }

  /// Value received by `v` in instance i (valid after quiescence); the
  /// root's value when v participates, nullopt-like kMissing otherwise.
  static constexpr std::uint64_t kMissing = static_cast<std::uint64_t>(-1);
  std::uint64_t value_at(std::size_t i, VertexId v) const;
  bool complete(std::size_t i) const;

 private:
  /// `ctx` is the turn it runs in, or null from reset().
  void deliver(NodeContext* ctx, std::size_t i, std::uint32_t local, std::uint64_t value);

  // The spec constructor's layout, or an empty one until reset().
  std::unique_ptr<const TreeLayout> own_;
  const TreeLayout* layout_;
  std::vector<std::uint64_t> got_;        // per member, in the layout's flat order
  std::vector<std::uint32_t> received_;  // per instance
  EdgeQueues queues_;
};

/// Convenience: derive a TreeInstanceSpec from a MultiBfs result.
TreeInstanceSpec tree_spec_from_multibfs(const MultiBfsProgram& prog, std::size_t i);

}  // namespace lcs::congest
