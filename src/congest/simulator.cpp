#include "congest/simulator.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lcs::congest {

std::uint32_t NodeContext::round() const { return sim_.round_; }
const Graph& NodeContext::topology() const { return *sim_.g_; }

std::span<const Message> NodeContext::inbox() const {
  const std::size_t first = sim_.g_->csr_offsets()[node_] * sim_.capacity_;
  return {sim_.inbox_.data() + first, sim_.inbox_len_[node_]};
}

void NodeContext::send(EdgeId via_edge, const Message& m) {
  const std::size_t d = out_dir(*sim_.g_, via_edge, node_);
  std::uint32_t& sent = sim_.sent_this_round_[d];
  LCS_REQUIRE(sent < sim_.capacity_, "edge capacity exceeded; CONGEST programs must queue");
  sim_.outbox_[d * sim_.capacity_ + sent] = m;
  ++sent;
}

std::uint32_t NodeContext::remaining_capacity(EdgeId via_edge) const {
  return sim_.capacity_ - sim_.sent_this_round_[out_dir(*sim_.g_, via_edge, node_)];
}

Simulator::Simulator(const Graph& g, std::uint32_t edge_capacity)
    : g_(&g), capacity_(edge_capacity) {
  LCS_REQUIRE(edge_capacity >= 1, "edge capacity must be positive");
  const std::size_t dirs = 2 * static_cast<std::size_t>(g.num_edges());
  outbox_.resize(dirs * capacity_);
  sent_this_round_.assign(dirs, 0);
  cumulative_load_.assign(dirs, 0);
  inbox_.resize(dirs * capacity_);
  inbox_len_.assign(g.num_vertices(), 0);
  // v's CSR entry (neighbour u, edge e) names the direction u -> v, the
  // one v receives on.
  const std::span<const graph::HalfEdge> adj = g.csr_adjacency();
  LCS_REQUIRE(dirs <= UINT32_MAX, "too many edges for 32-bit directed slots");
  in_dir_.resize(adj.size());
  for (std::size_t p = 0; p < adj.size(); ++p)
    in_dir_[p] = static_cast<std::uint32_t>(out_dir(g, adj[p].edge, adj[p].to));
}

RunStats Simulator::run(Program& p, std::uint32_t max_rounds) {
  RunStats stats;
  // Delivery zeroes every counter it drains; only a round cut short by an
  // exception can leave sends behind, and they must not count against the
  // next run's capacity.
  std::fill(sent_this_round_.begin(), sent_this_round_.end(), 0);
  for (std::uint32_t r = 0; r < max_rounds; ++r) {
    round_ = r;

    const std::uint32_t n = g_->num_vertices();
    for (VertexId v = 0; v < n; ++v) {
      NodeContext ctx(*this, v);
      p.on_round(ctx);
    }
    ++stats.rounds;

    // Deliver: copy each node's incoming outbox slots into its inbox slots
    // for next round, incoming edges in CSR order and each edge in send
    // order.
    bool in_flight = false;
    std::uint64_t delivered = 0;
    const std::span<const std::uint64_t> offsets = g_->csr_offsets();
    for (VertexId v = 0; v < n; ++v) {
      Message* box = inbox_.data() + offsets[v] * capacity_;
      std::uint32_t len = 0;
      for (std::uint64_t pos = offsets[v]; pos < offsets[v + 1]; ++pos) {
        const std::uint32_t d = in_dir_[pos];
        const std::uint32_t count = sent_this_round_[d];
        if (count == 0) continue;
        const Message* slots = outbox_.data() + static_cast<std::size_t>(d) * capacity_;
        std::copy(slots, slots + count, box + len);
        len += count;
        cumulative_load_[d] += count;
        sent_this_round_[d] = 0;
      }
      inbox_len_[v] = len;
      delivered += len;
      in_flight |= len > 0;
    }
    stats.messages += delivered;

    if (!in_flight && p.idle()) {
      stats.completed = true;
      break;
    }
  }
  stats.max_edge_load = cumulative_load_.empty()
                            ? 0
                            : *std::max_element(cumulative_load_.begin(), cumulative_load_.end());
  return stats;
}

}  // namespace lcs::congest
