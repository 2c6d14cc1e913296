#include "sssp/ch.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace lcs::sssp {

namespace {

// Min-heap over (dist, vertex); pair ordering breaks distance ties by vertex
// id, which is what makes settled counts deterministic across rebuilds.
using HeapItem = std::pair<std::uint64_t, graph::VertexId>;
using MinHeap = std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return (a == kInfDist || b == kInfDist) ? kInfDist : a + b;
}

// ---------------------------------------------------------------------------
// Bidirectional Dijkstra over G
// ---------------------------------------------------------------------------

PointToPointResult bidi_search(const Graph& g, WeightSpan w, VertexId s, VertexId t) {
  const std::uint32_t n = g.num_vertices();
  LCS_REQUIRE(s < n && t < n, "vertex out of range");
  PointToPointResult out;
  if (s == t) {
    out.distance = 0;
    return out;
  }
  std::vector<std::uint64_t> dist[2] = {std::vector<std::uint64_t>(n, kInfDist),
                                        std::vector<std::uint64_t>(n, kInfDist)};
  MinHeap pq[2];
  dist[0][s] = 0;
  pq[0].push({0, s});
  dist[1][t] = 0;
  pq[1].push({0, t});
  std::uint64_t best = kInfDist;
  while (true) {
    const std::uint64_t top0 = pq[0].empty() ? kInfDist : pq[0].top().first;
    const std::uint64_t top1 = pq[1].empty() ? kInfDist : pq[1].top().first;
    if (sat_add(top0, top1) >= best) break;
    const int side = top0 <= top1 ? 0 : 1;
    const auto [d, v] = pq[side].top();
    pq[side].pop();
    if (d != dist[side][v]) continue;  // stale entry
    ++out.settled;
    if (dist[1 - side][v] != kInfDist) best = std::min(best, sat_add(d, dist[1 - side][v]));
    for (const graph::HalfEdge he : g.neighbors(v)) {
      const VertexId u = he.to;
      const std::uint64_t nd = d + static_cast<std::uint64_t>(w[he.edge]);
      if (nd < dist[side][u]) {
        dist[side][u] = nd;
        pq[side].push({nd, u});
      }
      if (dist[1 - side][u] != kInfDist) best = std::min(best, sat_add(nd, dist[1 - side][u]));
    }
  }
  out.distance = best;
  return out;
}

// ---------------------------------------------------------------------------
// CH preprocessing
// ---------------------------------------------------------------------------

// One arc of the mutable contraction overlay.  `orig` marks arcs still
// representing an original edge of G at its own weight; shortcut insertion
// (or a shortcut undercutting a heavy direct edge) clears it.
struct OverlayArc {
  VertexId to = 0;
  std::uint64_t len = 0;
  bool orig = false;
};

// Per-vertex arc lists kept sorted by target id; symmetric (u->v iff v->u).
class ContractionOverlay {
 public:
  explicit ContractionOverlay(std::uint32_t n) : adj_(n) {}

  const std::vector<OverlayArc>& arcs(VertexId v) const { return adj_[v]; }

  void upsert(VertexId u, VertexId v, std::uint64_t len, bool orig) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(
        a.begin(), a.end(), v, [](const OverlayArc& x, VertexId y) { return x.to < y; });
    if (it != a.end() && it->to == v) {
      if (len < it->len) {
        it->len = len;
        it->orig = orig;
      }
      return;
    }
    a.insert(it, OverlayArc{v, len, orig});
  }

  void erase(VertexId u, VertexId v) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(
        a.begin(), a.end(), v, [](const OverlayArc& x, VertexId y) { return x.to < y; });
    if (it != a.end() && it->to == v) a.erase(it);
  }

  void clear(VertexId v) {
    std::vector<OverlayArc>().swap(adj_[v]);
  }

 private:
  std::vector<std::vector<OverlayArc>> adj_;
};

// Stamped scratch arrays for the (settle- and hop-limited) witness Dijkstra,
// reused across all witness runs of one build.
class WitnessSearch {
 public:
  explicit WitnessSearch(std::uint32_t n)
      : dist_(n, 0), hop_(n, 0), stamp_(n, 0) {}

  void run(const ContractionOverlay& ov, VertexId source, VertexId skip,
           std::uint64_t cutoff, const ChOptions& opt) {
    ++cur_;
    MinHeap pq;
    label(source, 0, 0);
    pq.push({0, source});
    std::uint32_t settled = 0;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist_at(v)) continue;  // stale entry
      if (d > cutoff) break;
      if (++settled > opt.witness_settle_limit) break;
      const std::uint32_t h = hop_[v];
      if (opt.witness_hop_limit != 0 && h >= opt.witness_hop_limit) continue;
      for (const OverlayArc& arc : ov.arcs(v)) {
        if (arc.to == skip) continue;
        const std::uint64_t nd = d + arc.len;
        if (nd > cutoff) continue;
        if (nd < dist_at(arc.to)) {
          label(arc.to, nd, h + 1);
          pq.push({nd, arc.to});
        }
      }
    }
  }

  std::uint64_t dist_at(VertexId v) const {
    return stamp_[v] == cur_ ? dist_[v] : kInfDist;
  }

 private:
  void label(VertexId v, std::uint64_t d, std::uint32_t h) {
    dist_[v] = d;
    hop_[v] = h;
    stamp_[v] = cur_;
  }

  std::vector<std::uint64_t> dist_;
  std::vector<std::uint32_t> hop_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t cur_ = 0;
};

struct CandidateShortcut {
  VertexId a = 0;
  VertexId b = 0;
  std::uint64_t len = 0;
};

class ChBuilder {
 public:
  ChBuilder(const Graph& g, WeightSpan w, const ChOptions& opt)
      : opt_(opt),
        n_(g.num_vertices()),
        overlay_(n_),
        witness_(n_),
        deleted_neighbors_(n_, 0),
        contracted_(n_, 0),
        up_(n_) {
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      LCS_REQUIRE(w[e] >= 0, "negative edge weight");
      const auto len = static_cast<std::uint64_t>(w[e]);
      overlay_.upsert(ed.u, ed.v, len, /*orig=*/true);
      overlay_.upsert(ed.v, ed.u, len, /*orig=*/true);
    }
  }

  ChIndex build() {
    ChIndex out;
    out.n = n_;
    out.rank.assign(n_, 0);
    // Lazy-update priority queue: recompute on pop, re-insert if the fresh
    // priority no longer beats the queue head.  Ties break by vertex id, so
    // the contraction order is a pure function of (g, w, opt).
    using PrioItem = std::pair<std::int64_t, VertexId>;
    std::priority_queue<PrioItem, std::vector<PrioItem>, std::greater<>> queue;
    for (VertexId v = 0; v < n_; ++v) queue.push({priority(v), v});
    std::uint32_t next_rank = 0;
    while (!queue.empty()) {
      const auto [p, v] = queue.top();
      queue.pop();
      if (contracted_[v] != 0) continue;
      const std::int64_t fresh = priority(v);
      if (!queue.empty() && fresh > queue.top().first) {
        queue.push({fresh, v});
        continue;
      }
      contract(v);
      out.rank[v] = next_rank++;
    }
    LCS_CHECK(next_rank == n_, "contraction did not cover every vertex");
    // Assemble the canonical CSR: arcs grouped by owner, sorted by target
    // (the overlay lists were already target-sorted).
    out.up_offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (VertexId v = 0; v < n_; ++v) out.up_offsets[v + 1] = out.up_offsets[v] + up_[v].size();
    out.up_arcs.reserve(out.up_offsets[n_]);
    for (VertexId v = 0; v < n_; ++v) {
      out.up_arcs.insert(out.up_arcs.end(), up_[v].begin(), up_[v].end());
    }
    out.num_shortcuts = num_shortcuts_;
    return out;
  }

 private:
  // Witness-check every pair of current neighbours of `v`; count (and, when
  // `out` is non-null, record) the pairs whose only remaining shortest route
  // would run through `v`.
  std::uint32_t plan_shortcuts(VertexId v, std::vector<CandidateShortcut>* out) {
    const std::vector<OverlayArc>& nbrs = overlay_.arcs(v);
    std::uint32_t needed = 0;
    for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
      const OverlayArc& a = nbrs[i];
      std::uint64_t max_b = 0;
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) max_b = std::max(max_b, nbrs[j].len);
      witness_.run(overlay_, a.to, v, a.len + max_b, opt_);
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const OverlayArc& b = nbrs[j];
        const std::uint64_t via = a.len + b.len;
        if (witness_.dist_at(b.to) > via) {
          ++needed;
          if (out != nullptr) out->push_back({a.to, b.to, via});
        }
      }
    }
    return needed;
  }

  std::int64_t priority(VertexId v) {
    const auto deg = static_cast<std::int64_t>(overlay_.arcs(v).size());
    const auto needed = static_cast<std::int64_t>(plan_shortcuts(v, nullptr));
    return 2 * (needed - deg) + static_cast<std::int64_t>(deleted_neighbors_[v]);
  }

  void contract(VertexId v) {
    const std::vector<OverlayArc> nbrs = overlay_.arcs(v);  // copy: upserts below mutate
    up_[v].reserve(nbrs.size());
    for (const OverlayArc& a : nbrs) {
      up_[v].push_back(ChArc{a.to, a.len});
      if (!a.orig) ++num_shortcuts_;
    }
    std::vector<CandidateShortcut> plan;
    plan_shortcuts(v, &plan);
    for (const CandidateShortcut& c : plan) {
      overlay_.upsert(c.a, c.b, c.len, /*orig=*/false);
      overlay_.upsert(c.b, c.a, c.len, /*orig=*/false);
    }
    for (const OverlayArc& a : nbrs) {
      overlay_.erase(a.to, v);
      ++deleted_neighbors_[a.to];
    }
    overlay_.clear(v);
    contracted_[v] = 1;
  }

  const ChOptions opt_;
  std::uint32_t n_;
  ContractionOverlay overlay_;
  WitnessSearch witness_;
  std::vector<std::uint32_t> deleted_neighbors_;
  std::vector<std::uint8_t> contracted_;
  std::vector<std::vector<ChArc>> up_;
  std::uint64_t num_shortcuts_ = 0;
};

}  // namespace

PointToPointResult bidirectional_dijkstra(const Graph& g, WeightSpan w, VertexId s,
                                          VertexId t) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weight array size mismatch");
  return bidi_search(g, w, s, t);
}

ChIndex build_ch(const Graph& g, WeightSpan w, const ChOptions& opt) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weight array size mismatch");
  return ChBuilder(g, w, opt).build();
}

PointToPointResult ch_query(const ChIndex& ch, VertexId s, VertexId t) {
  LCS_REQUIRE(s < ch.n && t < ch.n, "vertex out of range");
  PointToPointResult out;
  if (s == t) {
    out.distance = 0;
    return out;
  }
  // Sparse distance labels: a CH query settles a vanishing fraction of the
  // graph, so hash maps beat O(n) array initialization at every size the
  // bench sweeps.
  std::unordered_map<VertexId, std::uint64_t> dist[2];
  MinHeap pq[2];
  dist[0][s] = 0;
  pq[0].push({0, s});
  dist[1][t] = 0;
  pq[1].push({0, t});
  std::uint64_t best = kInfDist;
  while (true) {
    const std::uint64_t top0 = pq[0].empty() ? kInfDist : pq[0].top().first;
    const std::uint64_t top1 = pq[1].empty() ? kInfDist : pq[1].top().first;
    // Upward searches cannot stop at top0+top1 >= best (the meeting vertex
    // may sit above both endpoints); each direction runs until its own
    // frontier passes the best candidate.
    if (std::min(top0, top1) >= best) break;
    const int side = top0 <= top1 ? 0 : 1;
    const auto [d, v] = pq[side].top();
    pq[side].pop();
    const auto self = dist[side].find(v);
    if (self == dist[side].end() || d != self->second) continue;  // stale entry
    if (d >= best) continue;
    ++out.settled;
    const auto other = dist[1 - side].find(v);
    if (other != dist[1 - side].end()) best = std::min(best, sat_add(d, other->second));
    for (std::uint64_t i = ch.up_offsets[v]; i < ch.up_offsets[v + 1]; ++i) {
      const ChArc& arc = ch.up_arcs[i];
      const std::uint64_t nd = d + arc.len;
      const auto [it, fresh] = dist[side].try_emplace(arc.to, nd);
      if (!fresh) {
        if (nd >= it->second) continue;
        it->second = nd;
      }
      pq[side].push({nd, arc.to});
    }
  }
  out.distance = best;
  return out;
}

}  // namespace lcs::sssp
