// Synchronous CONGEST-model simulator.
//
// Execution proceeds in rounds.  In each round every node, in increasing id
// order, observes the messages delivered to it (those sent in the previous
// round) and may send at most `edge_capacity` messages per incident edge
// direction.  Over-capacity sends raise an exception: CONGEST algorithms
// must do their own queueing, exactly as on a real network.
//
// Programs are "structure of arrays" objects: one Program instance holds the
// state of *all* nodes, and `on_round(ctx)` is invoked once per node per
// round.  By convention a program only touches the state of ctx.node() —
// locality by discipline, which keeps the simulator fast while preserving
// the round/message accounting the model is about.
//
// Storage is flat and allocated once per simulator: every directed edge d
// (see out_dir) owns `edge_capacity` outbox slots and a send counter, and
// one inbox arena gives node v the slots [offset(v) * capacity,
// offset(v + 1) * capacity) — room for a full round on every incident edge.
// A round allocates nothing.
//
// The simulator runs on its caller's thread: node turns in increasing id
// order, then one delivery walk.  Threads would change neither the round
// nor the message count the model prices, and a served run already sits
// inside the service's own fan-out.  Slots stay single-writer all the same
// — every directed edge has exactly one sending and one receiving node — so
// a node's sends land in its own program order and delivery is a plain
// per-receiver copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace lcs::congest {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

class Simulator;

/// Directed edge slot of `e` sent by `from`: 2*e for (edge.u -> edge.v),
/// 2*e+1 for the reverse.  `from` must be an endpoint of `e`.
inline std::size_t out_dir(const Graph& g, EdgeId e, VertexId from) {
  const graph::Edge ed = g.edge(e);
  LCS_REQUIRE(ed.u == from || ed.v == from, "sender is not an endpoint of the edge");
  return 2 * static_cast<std::size_t>(e) + (ed.u == from ? 0 : 1);
}

/// Per-node view handed to Program::on_round.
class NodeContext {
 public:
  VertexId node() const { return node_; }
  std::uint32_t round() const;
  const Graph& topology() const;

  /// Messages delivered to this node this round (sent by neighbours last round).
  std::span<const Message> inbox() const;

  /// Send a message along an incident edge.  `via_edge` must be incident to
  /// node() and the per-round capacity of that edge direction must not be
  /// exhausted (use Simulator::edge_capacity to plan).
  void send(EdgeId via_edge, const Message& m);

  /// Messages still sendable on `via_edge` this round.
  std::uint32_t remaining_capacity(EdgeId via_edge) const;

 private:
  friend class Simulator;
  NodeContext(Simulator& sim, VertexId node) : sim_(sim), node_(node) {}
  Simulator& sim_;
  VertexId node_;
};

/// A distributed algorithm under simulation.
class Program {
 public:
  virtual ~Program() = default;

  /// Invoked once per node per round, in increasing node order.
  virtual void on_round(NodeContext& ctx) = 0;

  /// "I have queued work even though I sent nothing this round."  The run
  /// ends at the first round where no messages are in flight and every
  /// node is idle.
  virtual bool idle() const { return true; }
};

struct RunStats {
  std::uint32_t rounds = 0;        ///< rounds executed
  std::uint64_t messages = 0;      ///< total messages delivered
  std::uint64_t max_edge_load = 0; ///< max cumulative messages over any edge direction
  bool completed = false;          ///< false when max_rounds was hit first
};

class Simulator {
 public:
  /// `edge_capacity` = messages per edge direction per round (1 = classic CONGEST).
  explicit Simulator(const Graph& g, std::uint32_t edge_capacity = 1);

  const Graph& topology() const { return *g_; }
  std::uint32_t edge_capacity() const { return capacity_; }
  std::uint32_t round() const { return round_; }

  /// Run `p` until quiescence (no in-flight messages, all nodes idle) or
  /// until `max_rounds`.  Statistics accumulate across the whole run.
  RunStats run(Program& p, std::uint32_t max_rounds);

 private:
  friend class NodeContext;

  const Graph* g_;
  std::uint32_t capacity_;
  std::uint32_t round_ = 0;

  // Per directed edge d: outbox slots [d * capacity_, (d + 1) * capacity_),
  // sends this round (zeroed as delivery drains them) and cumulative load.
  std::vector<Message> outbox_;
  std::vector<std::uint32_t> sent_this_round_;
  std::vector<std::uint64_t> cumulative_load_;
  // Incoming directed edge of every CSR position: in_dir_[p] for p in
  // [offset(v), offset(v + 1)) is the slot whose receiver is v.
  std::vector<std::uint32_t> in_dir_;
  // Inbox arena: node v's messages of this round start at
  // inbox_[offset(v) * capacity_]; inbox_len_[v] of them are valid.
  std::vector<Message> inbox_;
  std::vector<std::uint32_t> inbox_len_;
};

}  // namespace lcs::congest
