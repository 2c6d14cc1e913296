#include "congest/simulator.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/check.hpp"

namespace lcs::congest {

namespace {
constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }
}  // namespace

std::vector<std::uint32_t> csr_out_slots(const Graph& g) {
  const std::span<const std::uint64_t> offsets = g.csr_offsets();
  const std::span<const graph::HalfEdge> adj = g.csr_adjacency();
  const std::span<const graph::Edge> edges = g.edges();
  std::vector<std::uint32_t> slots(adj.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (std::uint64_t p = offsets[v]; p < offsets[v + 1]; ++p)
      slots[p] = 2 * adj[p].edge + (edges[adj[p].edge].u == v ? 0 : 1);
  return slots;
}

std::uint32_t NodeContext::round() const { return sim_.round_; }
const Graph& NodeContext::topology() const { return *sim_.g_; }

void NodeContext::send(EdgeId via_edge, const Message& m) {
  sim_.post(out_dir(*sim_.g_, via_edge, node_), node_, m);
}

std::uint32_t NodeContext::remaining_capacity(EdgeId via_edge) const {
  return sim_.capacity_ - sim_.slots_[out_dir(*sim_.g_, via_edge, node_)].sent;
}

void NodeContext::wake_at(std::uint32_t r) {
  LCS_REQUIRE(r > sim_.round_, "wake_at needs a round after the current one");
  if (r == sim_.round_ + 1) {
    sim_.next_due_[node_ / 64] |= detail::bit_of(node_);
  } else {
    sim_.wakes_.emplace_back(r, node_);
    std::push_heap(sim_.wakes_.begin(), sim_.wakes_.end(), std::greater<>());
  }
}

Simulator::Simulator(const Graph& g, std::uint32_t edge_capacity)
    : g_(&g), capacity_(edge_capacity) {
  LCS_REQUIRE(edge_capacity >= 1, "edge capacity must be positive");
  const std::size_t dirs = 2 * static_cast<std::size_t>(g.num_edges());
  LCS_REQUIRE(dirs <= UINT32_MAX, "too many edges for 32-bit directed slots");
  slots_.resize(dirs);
  outbox_.resize(dirs * capacity_);
  out_slot_ = csr_out_slots(g);
  for (std::uint32_t p = 0; p < dirs; ++p) slots_[out_slot_[p] ^ 1].recv_pos = p;
  owner_.resize(dirs);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    std::fill(owner_.begin() + static_cast<std::ptrdiff_t>(g.csr_offsets()[v]),
              owner_.begin() + static_cast<std::ptrdiff_t>(g.csr_offsets()[v + 1]), v);
  pending_.assign(words_for(dirs), 0);
  due_.assign(words_for(g.num_vertices()), 0);
  next_due_.assign(due_.size(), 0);
  inbox_.resize(dirs * capacity_);
  inbox_begin_.assign(g.num_vertices(), 0);
  inbox_len_.assign(g.num_vertices(), 0);
  receivers_.reserve(g.num_vertices());
}

std::uint64_t Simulator::deliver() {
  for (const VertexId v : receivers_) inbox_len_[v] = 0;
  receivers_.clear();
  std::size_t len = 0;
  for (std::size_t w = 0; w < pending_.size(); ++w) {
    for (std::uint64_t bits = pending_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t pos = 64 * w + static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint32_t d = out_slot_[pos] ^ 1;
      const VertexId v = owner_[pos];
      if (receivers_.empty() || receivers_.back() != v) {
        receivers_.push_back(v);
        inbox_begin_[v] = len;
        next_due_[v / 64] |= detail::bit_of(v);
      }
      Slot& s = slots_[d];
      const Message* sent = outbox_.data() + static_cast<std::size_t>(d) * capacity_;
      for (std::uint32_t k = 0; k < s.sent; ++k) inbox_[len + k] = sent[k];
      len += s.sent;
      inbox_len_[v] += s.sent;
      if (s.run != run_) {
        s.run = run_;
        s.load = 0;
      }
      LCS_CHECK(s.load <= UINT32_MAX - s.sent, "edge load overflows 32 bits in one run");
      s.load += s.sent;
      max_load_ = std::max<std::uint64_t>(max_load_, s.load);
      s.sent = 0;
    }
    pending_[w] = 0;
  }
  return len;
}

void Simulator::reset() {
  // Only a round cut short by an exception leaves sends, turns or wakes
  // behind, and only the slots it marked hold a count.
  for (std::size_t w = 0; w < pending_.size(); ++w) {
    for (std::uint64_t bits = pending_[w]; bits != 0; bits &= bits - 1)
      slots_[out_slot_[64 * w + std::countr_zero(bits)] ^ 1].sent = 0;
    pending_[w] = 0;
  }
  std::fill(next_due_.begin(), next_due_.end(), 0);
  wakes_.clear();
  for (const VertexId v : receivers_) inbox_len_[v] = 0;
  receivers_.clear();
  // A new run stamp zeroes every load; at wrap-around the stamps restart.
  if (++run_ == 0) {
    for (Slot& s : slots_) s.run = 0;
    run_ = 1;
  }
  max_load_ = 0;
  // Round 0 gives every node a turn.
  const std::uint32_t n = g_->num_vertices();
  std::fill(due_.begin(), due_.end(), ~std::uint64_t{0});
  if (n % 64 != 0) due_.back() = detail::bit_of(n) - 1;
}

RunStats Simulator::run(Program& p, std::uint32_t max_rounds) {
  reset();
  RunStats stats;
  for (std::uint32_t r = 0; r < max_rounds; ++r) {
    round_ = r;
    while (!wakes_.empty() && wakes_.front().first == r) {
      due_[wakes_.front().second / 64] |= detail::bit_of(wakes_.front().second);
      std::pop_heap(wakes_.begin(), wakes_.end(), std::greater<>());
      wakes_.pop_back();
    }
    for (std::size_t w = 0; w < due_.size(); ++w) {
      const std::uint64_t word = due_[w];
      due_[w] = 0;
      for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
        NodeContext ctx(*this, static_cast<VertexId>(64 * w + std::countr_zero(bits)));
        p.on_round(ctx);
      }
    }
    ++stats.rounds;

    const std::uint64_t delivered = deliver();
    stats.messages += delivered;
    due_.swap(next_due_);
    if (delivered == 0 && p.idle()) {
      stats.completed = true;
      break;
    }
  }
  stats.max_edge_load = max_load_;
  return stats;
}

}  // namespace lcs::congest
