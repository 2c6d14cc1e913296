#include "congest/multibf.hpp"

#include "util/check.hpp"

namespace lcs::congest {

namespace {
constexpr std::uint32_t kDistToken = 30;
}  // namespace

MultiBellmanFordProgram::MultiBellmanFordProgram(const Graph& g,
                                                 graph::WeightSpan w,
                                                 std::vector<VertexId> sources)
    : g_(&g), w_(w), sources_(std::move(sources)), out_slot_(csr_out_slots(g)), queues_(g) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weights do not match graph");
  LCS_REQUIRE(!sources_.empty(), "need at least one source");
  for (const graph::Weight x : w) LCS_REQUIRE(x >= 0, "negative weights unsupported");
  const std::size_t n = g.num_vertices();
  dist_.assign(sources_.size() * n, kInf);
  parent_.assign(sources_.size() * n, graph::kNoVertex);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    LCS_REQUIRE(sources_[i] < n, "source out of range");
    improve(i, sources_[i], 0, graph::kNoVertex);
  }
}

void MultiBellmanFordProgram::improve(std::size_t i, VertexId v, std::uint64_t d,
                                      VertexId par) {
  const std::size_t idx = i * g_->num_vertices() + v;
  if (d >= dist_[idx]) return;
  dist_[idx] = d;
  parent_[idx] = par;
  const std::span<const std::uint64_t> offsets = g_->csr_offsets();
  const std::span<const graph::HalfEdge> adj = g_->csr_adjacency();
  for (std::uint64_t p = offsets[v]; p < offsets[v + 1]; ++p) {
    Message m;
    m.algo = static_cast<std::uint32_t>(i);
    m.kind = kDistToken;
    m.a = d;
    m.b = (static_cast<std::uint64_t>(adj[p].edge) << 32) | v;
    queues_.push(v, out_slot_[p], m);
  }
}

void MultiBellmanFordProgram::on_round(NodeContext& ctx) {
  const VertexId v = ctx.node();
  for (const Message& m : ctx.inbox()) {
    if (m.kind != kDistToken) continue;
    const std::size_t i = m.algo;
    const EdgeId via = static_cast<EdgeId>(m.b >> 32);
    const std::uint64_t cand = m.a + static_cast<std::uint64_t>(w_[via]);
    improve(i, v, cand, static_cast<VertexId>(m.b & 0xffffffffu));
  }
  // Drop stale announcements: the sender has improved since enqueue, and a
  // fresher entry is behind this one in some queue.
  const std::size_t n = g_->num_vertices();
  queues_.drain(ctx, [&](const Message& m) {
    return dist_[m.algo * n + static_cast<VertexId>(m.b)] == m.a;
  });
}

std::uint64_t MultiBellmanFordProgram::dist_of(std::size_t i, VertexId v) const {
  LCS_REQUIRE(i < sources_.size(), "source index out of range");
  LCS_REQUIRE(v < g_->num_vertices(), "vertex out of range");
  return dist_[i * g_->num_vertices() + v];
}

VertexId MultiBellmanFordProgram::parent_of(std::size_t i, VertexId v) const {
  LCS_REQUIRE(i < sources_.size(), "source index out of range");
  LCS_REQUIRE(v < g_->num_vertices(), "vertex out of range");
  return parent_[i * g_->num_vertices() + v];
}

}  // namespace lcs::congest
