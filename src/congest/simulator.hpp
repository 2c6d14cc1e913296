// Synchronous CONGEST-model simulator.
//
// Execution proceeds in rounds.  In each round the nodes that have a turn,
// in increasing id order, observe the messages delivered to them (those
// sent in the previous round) and may send at most `edge_capacity`
// messages per incident edge direction.  Over-capacity sends raise an
// exception: CONGEST algorithms must do their own queueing, exactly as on
// a real network.
//
// Turns are event-driven.  Round 0 gives every node a turn; after that a
// node gets a turn in round r only if messages were delivered to it, it
// sent in round r - 1, or it asked for round r through
// NodeContext::wake_at.  A node skipped in a round would have found an
// empty inbox, so a program whose only other reason to act is the round
// number itself (a delayed start, a timer) must register that round with
// wake_at.  A program that queues its own sends (EdgeQueues) needs no
// wake: a node that still holds queued messages after its turn sent in
// that turn, because a drain stops only when an edge's room is spent or
// its queue is empty, and a token that is not sent at once
// (EdgeQueues::send_or_push) queues only behind a backlog, which the
// drain serves, or on an edge whose room the turn already spent.
//
// Programs are "structure of arrays" objects: one Program instance holds the
// state of *all* nodes, and `on_round(ctx)` is invoked once per node turn.
// By convention a program only touches the state of ctx.node() — locality
// by discipline, which keeps the simulator fast while preserving the
// round/message accounting the model is about.
//
// Storage is flat and allocated once per simulator: every directed edge d
// (see out_dir) owns `edge_capacity` outbox slots and a send counter.  A
// slot's first send of a round marks its receiver-side CSR position in a
// 2m-bit bitmap; delivery walks only the marked positions, in ascending
// order, copying each into one inbox arena.  That order is receiver id,
// then the receiver's CSR order, then send order — so a node's inbox reads
// the same as if every incoming edge had been scanned.  A round costs its
// turns and its messages plus one word per 64 nodes and per 64 CSR
// positions, and allocates nothing.
//
// The simulator runs on its caller's thread.  Threads would change neither
// the round nor the message count the model prices, and a served run
// already sits inside the service's own fan-out.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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
inline std::uint32_t out_dir(const Graph& g, EdgeId e, VertexId from) {
  const graph::Edge ed = g.edge(e);
  LCS_REQUIRE(ed.u == from || ed.v == from, "sender is not an endpoint of the edge");
  return 2 * e + (ed.u == from ? 0 : 1);
}

/// Outgoing slot of every CSR position of `g`: entry p, in v's range, is the
/// slot from v towards its p-th neighbour.  The slot into v is entry ^ 1.
std::vector<std::uint32_t> csr_out_slots(const Graph& g);

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

  /// This node's outgoing slots, in CSR (neighbour) order.
  std::span<const std::uint32_t> out_slots() const;

  /// send() by outgoing slot (one of out_slots()) instead of by edge.
  void send_slot(std::uint32_t slot, const Message& m);

  /// remaining_capacity() by outgoing slot.
  std::uint32_t remaining_slot_capacity(std::uint32_t slot) const;

  /// Give this node a turn in round `r` (> round()) even if nothing reaches
  /// it.  A pending wake does not keep the run going: the run still ends at
  /// the first round with nothing in flight and an idle program.
  void wake_at(std::uint32_t r);

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

  /// Invoked once per node turn (see the turn rule above), in increasing
  /// node order within a round.
  virtual void on_round(NodeContext& ctx) = 0;

  /// "I have queued work even though I sent nothing this round."  The run
  /// ends at the first round where no messages are in flight and every
  /// node is idle.
  virtual bool idle() const { return true; }
};

struct RunStats {
  std::uint32_t rounds = 0;        ///< rounds executed
  std::uint64_t messages = 0;      ///< total messages delivered
  /// Max messages over any edge direction during this run.
  std::uint64_t max_edge_load = 0;
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
  /// until `max_rounds`.  A run that an exception left behind leaves no
  /// trace in the next one.
  RunStats run(Program& p, std::uint32_t max_rounds);

 private:
  friend class NodeContext;

  void post(std::uint32_t slot, VertexId sender, const Message& m);
  std::uint64_t deliver();
  void reset();

  const Graph* g_;
  std::uint32_t capacity_;
  std::uint32_t round_ = 0;
  std::uint32_t run_ = 0;
  std::uint64_t max_load_ = 0;

  // Per directed edge d: the sends of this round (zeroed as delivery drains
  // them), the receiver-side CSR position and this run's load, side by side
  // since a send and its delivery touch all three; and the outbox slots
  // [d * capacity_, (d + 1) * capacity_).  A load counts only while its
  // `run` stamp equals run_, so a new run starts every load at zero without
  // a pass over the slots.
  struct Slot {
    std::uint32_t sent = 0;
    std::uint32_t recv_pos = 0;
    std::uint32_t load = 0;
    std::uint32_t run = 0;
  };
  static_assert(sizeof(Slot) == 16);
  std::vector<Slot> slots_;
  std::vector<Message> outbox_;
  // Per CSR position: its owner, the outgoing slot (csr_out_slots), and one
  // bit per position whose incoming slot sent this round.
  std::vector<VertexId> owner_;
  std::vector<std::uint32_t> out_slot_;
  std::vector<std::uint64_t> pending_;
  // Turn sets (one bit per node) of this round and the next, and the later
  // wakes as a min-heap of (round, node).
  std::vector<std::uint64_t> due_;
  std::vector<std::uint64_t> next_due_;
  std::vector<std::pair<std::uint32_t, VertexId>> wakes_;
  // Inbox arena: this round's receivers in ascending id, node v's messages
  // at [inbox_begin_[v], inbox_begin_[v] + inbox_len_[v]).  Lengths are
  // zero for every node outside receivers_.
  std::vector<Message> inbox_;
  std::vector<std::size_t> inbox_begin_;
  std::vector<std::uint32_t> inbox_len_;
  std::vector<VertexId> receivers_;
};

// The per-message calls, inline: they run once or twice per simulated
// message.

namespace detail {
constexpr std::uint64_t bit_of(std::size_t i) { return std::uint64_t{1} << (i & 63); }
}  // namespace detail

inline std::span<const Message> NodeContext::inbox() const {
  return {sim_.inbox_.data() + sim_.inbox_begin_[node_], sim_.inbox_len_[node_]};
}

inline std::span<const std::uint32_t> NodeContext::out_slots() const {
  const std::span<const std::uint64_t> offsets = sim_.g_->csr_offsets();
  return {sim_.out_slot_.data() + offsets[node_], sim_.out_slot_.data() + offsets[node_ + 1]};
}

inline void NodeContext::send_slot(std::uint32_t slot, const Message& m) {
  const graph::Edge ed = sim_.g_->edge(slot / 2);
  LCS_REQUIRE((slot & 1 ? ed.v : ed.u) == node_, "sender does not own the slot");
  sim_.post(slot, node_, m);
}

inline std::uint32_t NodeContext::remaining_slot_capacity(std::uint32_t slot) const {
  LCS_REQUIRE(slot < sim_.slots_.size(), "slot out of range");
  return sim_.capacity_ - sim_.slots_[slot].sent;
}

inline void Simulator::post(std::uint32_t slot, VertexId sender, const Message& m) {
  Slot& s = slots_[slot];
  LCS_REQUIRE(s.sent < capacity_, "edge capacity exceeded; CONGEST programs must queue");
  if (s.sent == 0) pending_[s.recv_pos / 64] |= detail::bit_of(s.recv_pos);
  outbox_[static_cast<std::size_t>(slot) * capacity_ + s.sent] = m;
  ++s.sent;
  next_due_[sender / 64] |= detail::bit_of(sender);
}

}  // namespace lcs::congest
