// Scheduled multi-source weighted SSSP: K Bellman–Ford executions (one per
// source) sharing the CONGEST bandwidth with per-edge FIFO queues.
//
// This is the communication pattern behind the landmark-based approximate
// SSSP of Corollary 4.2: every landmark grows its weighted Voronoi region
// concurrently; the simulated round count replaces the analytic charge.
// Unlike BFS, a vertex's distance can improve repeatedly; each improvement
// re-enqueues its announcements (standard distributed Bellman–Ford, just
// multiplexed).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/edge_queues.hpp"
#include "congest/simulator.hpp"
#include "graph/weighted.hpp"

namespace lcs::congest {

class MultiBellmanFordProgram : public Program {
 public:
  static constexpr std::uint64_t kInf = static_cast<std::uint64_t>(-1);

  /// One execution per source, all over the full graph with weights `w`.
  MultiBellmanFordProgram(const Graph& g, graph::WeightSpan w,
                          std::vector<VertexId> sources);

  void on_round(NodeContext& ctx) override;
  bool idle() const override { return queues_.empty(); }

  std::size_t num_sources() const { return sources_.size(); }
  /// Distance of v from source i (valid after quiescence).
  std::uint64_t dist_of(std::size_t i, VertexId v) const;
  VertexId parent_of(std::size_t i, VertexId v) const;

 private:
  void improve(std::size_t i, VertexId v, std::uint64_t d, VertexId par);

  const Graph* g_;
  graph::WeightSpan w_;
  std::vector<VertexId> sources_;
  // dist_[i * n + v] layout (K * n words; K is small: landmarks).
  std::vector<std::uint64_t> dist_;
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> out_slot_;  // csr_out_slots(g)
  // Pending announcements per directed edge, each carrying the sender's
  // distance at enqueue time.  Stale entries (already improved) are
  // dropped at send time.
  EdgeQueues queues_;
};

}  // namespace lcs::congest
