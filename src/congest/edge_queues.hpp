// Per-directed-edge FIFO message queues for the scheduled programs.
//
// A scheduled program (multi-BFS, multi-convergecast, multi-broadcast,
// multi-Bellman–Ford) multiplexes many instances over one CONGEST network:
// a token that finds its edge direction busy waits in that direction's
// FIFO (store-and-forward), and every node drains its outgoing queues each
// round up to the edge capacity.  EdgeQueues is that queue and that drain,
// shared by all of them.
//
// Storage is one pooled arena of linked slots per program: a directed edge
// holds a head and tail index, a sent message's slot goes on a free list
// and is reused by the next push, so a run allocates only while its peak
// backlog grows.  A per-node queued count lets a node with nothing queued
// skip its drain without touching its edges.
//
// Pushes and drains touch shared state (the arena, the free list, the
// totals); the simulator runs node turns one at a time, so no node turn
// ever sees another's half-done push.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/message.hpp"
#include "congest/simulator.hpp"

namespace lcs::congest {

class EdgeQueues {
 public:
  explicit EdgeQueues(const Graph& g)
      : g_(&g),
        head_(2 * static_cast<std::size_t>(g.num_edges()), kNil),
        tail_(2 * static_cast<std::size_t>(g.num_edges()), kNil),
        queued_(g.num_vertices(), 0) {}

  /// Queue `m` behind every message already waiting on `via_edge` in the
  /// direction leaving `sender`.
  void push(VertexId sender, EdgeId via_edge, const Message& m) {
    const std::size_t d = out_dir(*g_, via_edge, sender);
    std::uint32_t slot = free_;
    if (slot != kNil) {
      free_ = arena_[slot].next;
      arena_[slot] = Slot{m, kNil};
    } else {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(Slot{m, kNil});
    }
    if (head_[d] == kNil)
      head_[d] = slot;
    else
      arena_[tail_[d]].next = slot;
    tail_[d] = slot;
    ++queued_[sender];
    ++total_;
  }

  /// No message waits anywhere.
  bool empty() const { return total_ == 0; }

  /// Send ctx.node()'s queued messages, oldest first on each incident edge
  /// (CSR order), until that edge's capacity for this round is spent.  A
  /// message for which `keep` returns false is dropped without spending
  /// capacity (a stale announcement, say).
  template <typename Keep>
  void drain(NodeContext& ctx, Keep&& keep) {
    const VertexId v = ctx.node();
    if (queued_[v] == 0) return;
    for (const graph::HalfEdge he : g_->neighbors(v)) {
      const std::size_t d = out_dir(*g_, he.edge, v);
      if (head_[d] == kNil) continue;
      std::uint32_t room = ctx.remaining_capacity(he.edge);
      while (head_[d] != kNil && room > 0) {
        const std::uint32_t slot = head_[d];
        head_[d] = arena_[slot].next;
        arena_[slot].next = free_;
        free_ = slot;
        --queued_[v];
        --total_;
        if (!keep(arena_[slot].m)) continue;
        ctx.send(he.edge, arena_[slot].m);
        --room;
      }
      if (queued_[v] == 0) return;
    }
  }

  void drain(NodeContext& ctx) {
    drain(ctx, [](const Message&) { return true; });
  }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  struct Slot {
    Message m;
    std::uint32_t next;
  };

  const Graph* g_;
  std::vector<Slot> arena_;
  std::uint32_t free_ = kNil;       // free-list head through Slot::next
  std::vector<std::uint32_t> head_;  // by directed edge
  std::vector<std::uint32_t> tail_;  // by directed edge; valid while head_ is set
  std::vector<std::uint32_t> queued_;  // by sending node
  std::uint64_t total_ = 0;
};

}  // namespace lcs::congest
