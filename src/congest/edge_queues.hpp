// Per-directed-edge FIFO message queues for the scheduled programs.
//
// A scheduled program (multi-BFS, multi-convergecast, multi-broadcast,
// multi-Bellman–Ford) multiplexes many instances over one CONGEST network:
// a token that finds its edge direction busy waits in that direction's
// FIFO (store-and-forward), and a node with queued tokens drains its
// outgoing queues every round up to the edge capacity (its sends earn it
// the next round's turn).  EdgeQueues is that queue and that drain,
// shared by all of them.
//
// Send now, queue only behind a backlog: inside a turn, send_or_push puts
// a token straight into the outbox when its slot has nothing queued and
// room left this round, and queues it otherwise; the turn's drain then
// serves the backlog.  A token queued in that turn would have been sent by
// the same drain in the same slot order (each slot's FIFO holds its
// backlog first, then the turn's tokens in push order, and the drain sends
// until the room is spent), so inboxes, rounds, messages and loads are the
// same as push-then-drain.  Multi-BFS, multi-convergecast and
// multi-broadcast send this way; tokens pushed outside a turn (a program's
// reset) queue for round 0.  Multi-Bellman–Ford keeps push-then-drain: its
// `keep` predicate drops an announcement that a later message of the same
// turn made stale, so it must see the end-of-turn state before anything
// leaves.
//
// Queues are keyed by outgoing slot (the directed edge, out_dir), which
// callers resolve once and store beside their adjacency, so neither a push
// nor a drain looks an edge up.  Storage is one pooled arena of linked
// cells per program: a slot holds a head and tail index, a sent message's
// cell goes on a free list and is reused by the next push, so a run
// allocates only while its peak backlog grows.  A per-node queued count
// lets a node with nothing queued skip its drain without touching its
// edges.
//
// Pushes and drains touch shared state (the arena, the free list, the
// totals); the simulator runs node turns one at a time, so no node turn
// ever sees another's half-done push.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/message.hpp"
#include "congest/simulator.hpp"

namespace lcs::congest {

class EdgeQueues {
 public:
  explicit EdgeQueues(const Graph& g)
      : queue_(2 * static_cast<std::size_t>(g.num_edges())), queued_(g.num_vertices(), 0) {}

  /// Queue `m` behind every message already waiting on `slot`, an outgoing
  /// slot of `sender` (out_dir, csr_out_slots).
  void push(VertexId sender, std::uint32_t slot, const Message& m) {
    std::uint32_t cell = free_;
    if (cell != kNil) {
      free_ = arena_[cell].next;
      arena_[cell] = Cell{m, kNil};
    } else {
      cell = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(Cell{m, kNil});
    }
    Queue& q = queue_[slot];
    if (q.head == kNil)
      q.head = cell;
    else
      arena_[q.tail].next = cell;
    q.tail = cell;
    ++queued_[sender];
    ++total_;
  }

  /// Inside ctx.node()'s turn: send `m` on `slot` at once when nothing
  /// waits there and the slot has room left this round, else queue it as
  /// push() does.  Same tokens, same per-slot order as push() followed by
  /// this turn's drain.
  void send_or_push(NodeContext& ctx, std::uint32_t slot, const Message& m) {
    if (queue_[slot].head == kNil && ctx.remaining_slot_capacity(slot) > 0)
      ctx.send_slot(slot, m);
    else
      push(ctx.node(), slot, m);
  }

  /// Drop every queued message (a run cut short leaves some behind) and
  /// hand cells out in arena order again, so the next run's pushes sit
  /// side by side rather than along the last run's free list.  The storage
  /// stays.
  void clear() {
    if (total_ != 0) {
      std::fill(queue_.begin(), queue_.end(), Queue{});
      std::fill(queued_.begin(), queued_.end(), 0);
      total_ = 0;
    }
    arena_.clear();
    free_ = kNil;
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
    for (const std::uint32_t d : ctx.out_slots()) {
      Queue& q = queue_[d];
      if (q.head == kNil) continue;
      std::uint32_t room = ctx.remaining_slot_capacity(d);
      while (q.head != kNil && room > 0) {
        const std::uint32_t cell = q.head;
        q.head = arena_[cell].next;
        arena_[cell].next = free_;
        free_ = cell;
        --queued_[v];
        --total_;
        if (!keep(arena_[cell].m)) continue;
        ctx.send_slot(d, arena_[cell].m);
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

  struct Cell {
    Message m;
    std::uint32_t next;
  };

  struct Queue {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;  // valid while head is set
  };

  std::vector<Cell> arena_;
  std::uint32_t free_ = kNil;  // free-list head through Cell::next
  std::vector<Queue> queue_;   // by outgoing slot
  std::vector<std::uint32_t> queued_;  // by sending node
  std::uint64_t total_ = 0;
};

}  // namespace lcs::congest
