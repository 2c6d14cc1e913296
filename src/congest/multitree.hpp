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
// Parent and child links are resolved to instance-local ids (a member's
// index in the spec) once, at construction; a token carries its receiver's
// local id, so the message path does no lookups.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
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

class MultiConvergecastProgram : public Program {
 public:
  using Op = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;

  /// `op` must be associative and commutative.
  MultiConvergecastProgram(const Graph& g, const std::vector<TreeInstanceSpec>& specs, Op op);

  void on_round(NodeContext& ctx) override;
  bool idle() const override { return queues_.empty(); }

  /// Aggregate over instance i's members (valid after quiescence).
  std::uint64_t result(std::size_t i) const;
  /// True when the root of instance i received all child reports.
  bool complete(std::size_t i) const;

 private:
  struct Instance {
    std::uint32_t root_local;
    std::vector<VertexId> members;
    std::vector<std::uint32_t> parent_local;  // kNoLocal at the root
    std::vector<EdgeId> parent_edge;
    std::vector<std::uint64_t> acc;
    std::vector<std::uint32_t> pending_children;
    std::vector<std::uint8_t> sent;
  };

  void maybe_enqueue_up(std::size_t i, std::uint32_t local);

  const Graph* g_;
  Op op_;
  std::vector<Instance> inst_;
  EdgeQueues queues_;
};

class MultiBroadcastProgram : public Program {
 public:
  /// Broadcast `root_value[i]` down tree i.
  MultiBroadcastProgram(const Graph& g, const std::vector<TreeInstanceSpec>& specs,
                        const std::vector<std::uint64_t>& root_values);

  void on_round(NodeContext& ctx) override;
  bool idle() const override { return queues_.empty(); }

  /// Value received by `v` in instance i (valid after quiescence); the
  /// root's value when v participates, nullopt-like kMissing otherwise.
  static constexpr std::uint64_t kMissing = static_cast<std::uint64_t>(-1);
  std::uint64_t value_at(std::size_t i, VertexId v) const;
  bool complete(std::size_t i) const;

 private:
  struct Instance {
    std::vector<VertexId> members;
    // Children of local k: children[child_offsets[k] .. child_offsets[k + 1])
    // as (child local id, edge to the child), in member order.
    std::vector<std::uint32_t> child_offsets;
    std::vector<std::pair<std::uint32_t, EdgeId>> children;
    std::vector<std::uint64_t> got;
    std::uint32_t received = 0;
  };

  void deliver(std::size_t i, std::uint32_t local, std::uint64_t value);

  const Graph* g_;
  std::vector<Instance> inst_;
  EdgeQueues queues_;
};

/// Convenience: derive a TreeInstanceSpec from a MultiBfs result.
class MultiBfsProgram;
TreeInstanceSpec tree_spec_from_multibfs(const MultiBfsProgram& prog, std::size_t i);

}  // namespace lcs::congest
