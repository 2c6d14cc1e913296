// Point-to-point engines (sssp/ch.hpp): bidirectional Dijkstra and
// contraction hierarchies must return the one-to-all Dijkstra distance on
// every (graph, weights, s, t), and CH preprocessing must be a
// deterministic pure function of its inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "sssp/ch.hpp"
#include "sssp/sssp.hpp"
#include "util/rng.hpp"

namespace lcs {
namespace {

using graph::Graph;
using graph::VertexId;

struct Instance {
  Graph g;
  graph::EdgeWeights w;
};

std::vector<Instance> test_instances() {
  std::vector<Instance> out;
  Rng rng(99);
  const auto add = [&](Graph g) {
    Rng wrng(g.num_vertices() ^ 0x5eedULL);
    graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
    out.push_back({std::move(g), std::move(w)});
  };
  add(graph::path_graph(17));
  add(graph::grid_graph(6, 7));
  add(graph::dumbbell_graph(5, 4));
  add(graph::random_tree(40, rng));
  add(graph::connected_gnm(60, 120, rng));
  add(graph::road_network(80, rng));
  add(graph::transit_network(70, 5, rng));
  // Disconnected: two components, so unreachable pairs exist.
  {
    graph::GraphBuilder b(12);
    for (VertexId v = 0; v + 1 < 6; ++v) b.add_edge(v, v + 1);
    for (VertexId v = 6; v + 1 < 12; ++v) b.add_edge(v, v + 1);
    add(std::move(b).build());
  }
  return out;
}

TEST(ChTest, BothEnginesMatchDijkstraOnEveryFamily) {
  for (const Instance& in : test_instances()) {
    const sssp::ChIndex ch = sssp::build_ch(in.g, in.w);
    const std::uint32_t n = in.g.num_vertices();
    Rng qrng(3);
    for (int q = 0; q < 40; ++q) {
      const auto s = static_cast<VertexId>(qrng.uniform(n));
      const auto t = static_cast<VertexId>(qrng.uniform(n));
      const std::uint64_t want = sssp::dijkstra(in.g, in.w, s).dist[t];
      EXPECT_EQ(sssp::bidirectional_dijkstra(in.g, in.w, s, t).distance, want)
          << "bidi n=" << n << " s=" << s << " t=" << t;
      EXPECT_EQ(sssp::ch_query(ch, s, t).distance, want)
          << "ch n=" << n << " s=" << s << " t=" << t;
    }
  }
}

TEST(ChTest, SourceEqualsTargetIsZero) {
  const Graph g = graph::grid_graph(4, 4);
  Rng wrng(1);
  const graph::EdgeWeights w = graph::random_weights(g, 9, wrng);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  EXPECT_EQ(sssp::bidirectional_dijkstra(g, w, 5, 5).distance, 0u);
  EXPECT_EQ(sssp::ch_query(ch, 5, 5).distance, 0u);
}

TEST(ChTest, UnreachablePairsReportInfDist) {
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  const Graph g = std::move(b).build();
  const graph::EdgeWeights w(g.num_edges(), 2);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  EXPECT_EQ(sssp::bidirectional_dijkstra(g, w, 0, 4).distance, sssp::kInfDist);
  EXPECT_EQ(sssp::ch_query(ch, 0, 4).distance, sssp::kInfDist);
}

TEST(ChTest, BuildIsDeterministic) {
  Rng rng(5);
  const Graph g = graph::road_network(120, rng);
  Rng wrng(8);
  const graph::EdgeWeights w = graph::random_weights(g, 12, wrng);
  const sssp::ChIndex a = sssp::build_ch(g, w);
  const sssp::ChIndex b = sssp::build_ch(g, w);
  EXPECT_EQ(a, b);  // identical vectors, not merely equivalent answers
  EXPECT_EQ(a.n, g.num_vertices());
  EXPECT_EQ(a.up_offsets.back(), a.up_arcs.size());
  // Ranks are a permutation of [0, n).
  std::vector<bool> seen(a.n, false);
  for (const std::uint32_t r : a.rank) {
    ASSERT_LT(r, a.n);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
  // Every arc points strictly upward.
  for (VertexId v = 0; v < a.n; ++v)
    for (std::uint64_t i = a.up_offsets[v]; i < a.up_offsets[v + 1]; ++i)
      EXPECT_GT(a.rank[a.up_arcs[i].to], a.rank[v]);
}

TEST(ChTest, TightWitnessLimitsPreserveExactness) {
  // Starved witness searches may only add extra shortcuts, never lose
  // correctness.
  Rng rng(11);
  const Graph g = graph::connected_gnm(50, 100, rng);
  Rng wrng(12);
  const graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  sssp::ChOptions tight;
  tight.witness_settle_limit = 1;
  tight.witness_hop_limit = 1;
  const sssp::ChIndex loose = sssp::build_ch(g, w);
  const sssp::ChIndex starved = sssp::build_ch(g, w, tight);
  EXPECT_GE(starved.num_shortcuts, loose.num_shortcuts);
  for (VertexId s = 0; s < g.num_vertices(); s += 7) {
    const sssp::SsspResult ref = sssp::dijkstra(g, w, s);
    for (VertexId t = 0; t < g.num_vertices(); t += 5)
      EXPECT_EQ(sssp::ch_query(starved, s, t).distance, ref.dist[t]);
  }
}

TEST(ChTest, ChSettlesFewerNodesThanBidiOnLargeRoadNetwork) {
  Rng rng(17);
  const Graph g = graph::road_network(4000, rng);
  Rng wrng(18);
  const graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  Rng qrng(19);
  std::uint64_t bidi_settled = 0;
  std::uint64_t ch_settled = 0;
  for (int q = 0; q < 20; ++q) {
    const auto s = static_cast<VertexId>(qrng.uniform(g.num_vertices()));
    const auto t = static_cast<VertexId>(qrng.uniform(g.num_vertices()));
    const sssp::PointToPointResult a = sssp::bidirectional_dijkstra(g, w, s, t);
    const sssp::PointToPointResult b = sssp::ch_query(ch, s, t);
    EXPECT_EQ(a.distance, b.distance);
    bidi_settled += a.settled;
    ch_settled += b.settled;
  }
  EXPECT_LT(ch_settled, bidi_settled);
}

// ---------------------------------------------------------------------------
// Reused scratches: one PointToPointScratch carried across families, graphs
// and both engines must give every query the answer of a fresh scratch.
// ---------------------------------------------------------------------------

/// test_instances() plus a copy of each with every weight 1, whose many
/// equal-length paths make the heaps' vertex-id tie-breaks decide.
std::vector<Instance> scratch_instances() {
  std::vector<Instance> out = test_instances();
  const std::size_t weighted = out.size();
  for (std::size_t i = 0; i < weighted; ++i) {
    Graph g = out[i].g;
    graph::EdgeWeights unit(g.num_edges(), 1);
    out.push_back({std::move(g), std::move(unit)});
  }
  return out;
}

/// A long road trip, to grow a scratch's label table past its first size.
struct LongTrip {
  Instance road;
  sssp::ChIndex ch;
  VertexId s = 0;
  VertexId t = 0;
};

LongTrip long_trip() {
  Rng rng(23);
  Graph g = graph::road_network(3000, rng);
  Rng wrng(24);
  graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  LongTrip out{{std::move(g), std::move(w)}, {}, 0, 0};
  out.ch = sssp::build_ch(out.road.g, out.road.w);
  // Among a grid of candidate pairs, the first that leaves the largest
  // label table behind.
  const std::uint32_t n = out.road.g.num_vertices();
  std::size_t most = 0;
  for (VertexId s = 0; s < n; s += 37) {
    for (VertexId t = 1; t < n; t += 97) {
      sssp::PointToPointScratch scratch;
      (void)sssp::ch_query(out.ch, s, t, scratch);
      if (scratch.label_slots() > most) {
        most = scratch.label_slots();
        out.s = s;
        out.t = t;
      }
    }
  }
  return out;
}

TEST(ChScratch, OneScratchServesEveryFamilyAndBothEngines) {
  // The families run after a long trip has grown the table, so a stale
  // label of an earlier search or graph would surface as a wrong answer.
  const LongTrip trip = long_trip();
  sssp::PointToPointScratch scratch;
  (void)sssp::ch_query(trip.ch, trip.s, trip.t, scratch);
  const std::size_t grown = scratch.label_slots();
  ASSERT_GT(grown, 256u);
  for (const Instance& in : scratch_instances()) {
    const sssp::ChIndex ch = sssp::build_ch(in.g, in.w);
    const std::uint32_t n = in.g.num_vertices();
    for (VertexId s = 0; s < n; ++s) {
      const sssp::SsspResult ref = sssp::dijkstra(in.g, in.w, s);
      for (VertexId t = 0; t < n; ++t) {
        const sssp::PointToPointResult fresh_ch = sssp::ch_query(ch, s, t);
        const sssp::PointToPointResult fresh_bidi = sssp::bidirectional_dijkstra(in.g, in.w, s, t);
        const sssp::PointToPointResult ch_got = sssp::ch_query(ch, s, t, scratch);
        const sssp::PointToPointResult bidi_got =
            sssp::bidirectional_dijkstra(in.g, in.w, s, t, scratch);
        ASSERT_EQ(ch_got.distance, ref.dist[t]) << "ch n=" << n << " s=" << s << " t=" << t;
        ASSERT_EQ(bidi_got.distance, ref.dist[t]) << "bidi n=" << n << " s=" << s << " t=" << t;
        ASSERT_EQ(ch_got.settled, fresh_ch.settled) << "n=" << n << " s=" << s << " t=" << t;
        ASSERT_EQ(bidi_got.settled, fresh_bidi.settled) << "n=" << n << " s=" << s << " t=" << t;
      }
    }
  }
  // The small families never outgrow the table the long trip left.
  EXPECT_EQ(scratch.label_slots(), grown);
}

TEST(ChScratch, ShortTripsAfterALongTripReadNoStaleLabels) {
  const LongTrip trip = long_trip();
  const Graph& g = trip.road.g;
  sssp::PointToPointScratch scratch;
  const std::size_t first = scratch.label_slots();
  Rng qrng(41);
  for (int round = 0; round < 20; ++round) {
    const sssp::PointToPointResult long_got = sssp::ch_query(trip.ch, trip.s, trip.t, scratch);
    EXPECT_EQ(long_got.distance, sssp::dijkstra(g, trip.road.w, trip.s).dist[trip.t]);
    // Short trips from the long trip's endpoints and from random vertices:
    // s == t, s to a neighbour, s a few hops away.
    for (int q = 0; q < 10; ++q) {
      const VertexId s = q < 2 ? (q == 0 ? trip.s : trip.t)
                               : static_cast<VertexId>(qrng.uniform(g.num_vertices()));
      VertexId t = s;
      const sssp::SsspResult ref = sssp::dijkstra(g, trip.road.w, s);
      for (int hop = 0; hop < 4; ++hop) {
        const sssp::PointToPointResult got = sssp::ch_query(trip.ch, s, t, scratch);
        const sssp::PointToPointResult fresh = sssp::ch_query(trip.ch, s, t);
        ASSERT_EQ(got.distance, ref.dist[t]) << "s=" << s << " t=" << t;
        ASSERT_EQ(got.settled, fresh.settled) << "s=" << s << " t=" << t;
        const auto nb = g.neighbors(t);
        t = nb[qrng.uniform(nb.size())].to;
      }
    }
  }
  // The table grew once, kept its size, and stays far below n.
  EXPECT_GT(scratch.label_slots(), first);
  EXPECT_LT(scratch.label_slots(), std::size_t{g.num_vertices()});
}

TEST(ChScratch, SourceEqualsTargetAndUnreachablePairsOnAUsedScratch) {
  const LongTrip trip = long_trip();
  sssp::PointToPointScratch scratch;
  (void)sssp::ch_query(trip.ch, trip.s, trip.t, scratch);
  // Two components; the long trip's vertex ids overlap both.
  graph::GraphBuilder b(8);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 7);
  const Graph g = std::move(b).build();
  const graph::EdgeWeights w(g.num_edges(), 3);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  for (VertexId s = 0; s < 8; ++s) {
    for (VertexId t = 0; t < 8; ++t) {
      const bool same_side = (s < 4) == (t < 4);
      const std::uint64_t want =
          same_side ? 3 * static_cast<std::uint64_t>(s > t ? s - t : t - s) : sssp::kInfDist;
      EXPECT_EQ(sssp::ch_query(ch, s, t, scratch).distance, want) << s << "-" << t;
      EXPECT_EQ(sssp::bidirectional_dijkstra(g, w, s, t, scratch).distance, want)
          << s << "-" << t;
    }
  }
  EXPECT_EQ(sssp::ch_query(ch, 5, 5, scratch).settled, 0u);
}

// ---------------------------------------------------------------------------
// Differentials: in-test copies of the engines the flat heap, the flat query
// labels and the early-stopping witness search replaced (std::priority_queue,
// std::unordered_map labels, witness runs to the cutoff or the settle
// limit, one fresh plan per contraction).  Distances, settled counts and
// whole indexes must match them exactly.  The reference query stalls as
// ch_query does; run without the stall it is the query before
// stall-on-demand, whose distances ch_query must still return.
// ---------------------------------------------------------------------------

namespace reference {

using HeapItem = std::pair<std::uint64_t, VertexId>;
using MinHeap = std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return (a == sssp::kInfDist || b == sssp::kInfDist) ? sssp::kInfDist : a + b;
}

/// ch_query with (stall = true) or without stall-on-demand.
sssp::PointToPointResult ch_query(const sssp::ChIndex& ch, VertexId s, VertexId t,
                                  bool stall = true) {
  sssp::PointToPointResult out;
  if (s == t) {
    out.distance = 0;
    return out;
  }
  std::unordered_map<VertexId, std::uint64_t> dist[2];
  MinHeap pq[2];
  dist[0][s] = 0;
  pq[0].push({0, s});
  dist[1][t] = 0;
  pq[1].push({0, t});
  std::uint64_t best = sssp::kInfDist;
  while (true) {
    const std::uint64_t top0 = pq[0].empty() ? sssp::kInfDist : pq[0].top().first;
    const std::uint64_t top1 = pq[1].empty() ? sssp::kInfDist : pq[1].top().first;
    if (std::min(top0, top1) >= best) break;
    const int side = top0 <= top1 ? 0 : 1;
    const auto [d, v] = pq[side].top();
    pq[side].pop();
    const auto self = dist[side].find(v);
    if (self == dist[side].end() || d != self->second) continue;
    if (d >= best) continue;
    ++out.settled;
    const auto other = dist[1 - side].find(v);
    if (other != dist[1 - side].end()) best = std::min(best, sat_add(d, other->second));
    for (std::uint64_t i = ch.up_offsets[v]; i < ch.up_offsets[v + 1]; ++i) {
      const sssp::ChArc& arc = ch.up_arcs[i];
      const auto label = dist[side].find(arc.to);
      if (stall && label != dist[side].end() && label->second + arc.len < d) break;
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

struct Arc {
  VertexId to = 0;
  std::uint64_t len = 0;
  bool orig = false;
};

/// build_ch with witness runs that go on to the cutoff or the settle limit
/// and a fresh witness plan inside every contraction.
class Builder {
 public:
  Builder(const Graph& g, const graph::EdgeWeights& w, const sssp::ChOptions& opt)
      : opt_(opt), n_(g.num_vertices()), adj_(n_), dist_(n_), hop_(n_), stamp_(n_, 0),
        deleted_(n_, 0), contracted_(n_, 0), up_(n_) {
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto len = static_cast<std::uint64_t>(w[e]);
      upsert(g.edge(e).u, g.edge(e).v, len, true);
      upsert(g.edge(e).v, g.edge(e).u, len, true);
    }
  }

  sssp::ChIndex build() {
    sssp::ChIndex out;
    out.n = n_;
    out.rank.assign(n_, 0);
    using PrioItem = std::pair<std::int64_t, VertexId>;
    std::priority_queue<PrioItem, std::vector<PrioItem>, std::greater<>> queue;
    for (VertexId v = 0; v < n_; ++v) queue.push({priority(v), v});
    std::uint32_t next_rank = 0;
    while (!queue.empty()) {
      const VertexId v = queue.top().second;
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
    out.up_offsets.assign(std::size_t{n_} + 1, 0);
    for (VertexId v = 0; v < n_; ++v) out.up_offsets[v + 1] = out.up_offsets[v] + up_[v].size();
    for (VertexId v = 0; v < n_; ++v)
      out.up_arcs.insert(out.up_arcs.end(), up_[v].begin(), up_[v].end());
    out.num_shortcuts = shortcuts_;
    return out;
  }

 private:
  struct Shortcut {
    VertexId a, b;
    std::uint64_t len;
  };

  void upsert(VertexId u, VertexId v, std::uint64_t len, bool orig) {
    auto& a = adj_[u];
    const auto it = std::lower_bound(a.begin(), a.end(), v,
                                     [](const Arc& x, VertexId y) { return x.to < y; });
    if (it != a.end() && it->to == v) {
      if (len < it->len) *it = Arc{v, len, orig};
      return;
    }
    a.insert(it, Arc{v, len, orig});
  }

  std::uint64_t dist_at(VertexId v) const { return stamp_[v] == cur_ ? dist_[v] : sssp::kInfDist; }

  void witness(VertexId source, VertexId skip, std::uint64_t cutoff) {
    ++cur_;
    MinHeap pq;
    dist_[source] = 0;
    hop_[source] = 0;
    stamp_[source] = cur_;
    pq.push({0, source});
    std::uint32_t settled = 0;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist_at(v)) continue;
      if (d > cutoff) break;
      if (++settled > opt_.witness_settle_limit) break;
      const std::uint32_t h = hop_[v];
      if (opt_.witness_hop_limit != 0 && h >= opt_.witness_hop_limit) continue;
      for (const Arc& arc : adj_[v]) {
        const std::uint64_t nd = d + arc.len;
        if (arc.to == skip || nd > cutoff || nd >= dist_at(arc.to)) continue;
        dist_[arc.to] = nd;
        hop_[arc.to] = h + 1;
        stamp_[arc.to] = cur_;
        pq.push({nd, arc.to});
      }
    }
  }

  std::uint32_t plan(VertexId v, std::vector<Shortcut>* out) {
    const std::vector<Arc>& nbrs = adj_[v];
    std::uint32_t needed = 0;
    for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
      std::uint64_t max_b = 0;
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) max_b = std::max(max_b, nbrs[j].len);
      witness(nbrs[i].to, v, nbrs[i].len + max_b);
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const std::uint64_t via = nbrs[i].len + nbrs[j].len;
        if (dist_at(nbrs[j].to) > via) {
          ++needed;
          if (out != nullptr) out->push_back({nbrs[i].to, nbrs[j].to, via});
        }
      }
    }
    return needed;
  }

  std::int64_t priority(VertexId v) {
    const auto deg = static_cast<std::int64_t>(adj_[v].size());
    return 2 * (static_cast<std::int64_t>(plan(v, nullptr)) - deg) + deleted_[v];
  }

  void contract(VertexId v) {
    const std::vector<Arc> nbrs = adj_[v];
    for (const Arc& a : nbrs) {
      up_[v].push_back(sssp::ChArc{a.to, a.len});
      if (!a.orig) ++shortcuts_;
    }
    std::vector<Shortcut> shortcuts;
    plan(v, &shortcuts);
    for (const Shortcut& c : shortcuts) {
      upsert(c.a, c.b, c.len, false);
      upsert(c.b, c.a, c.len, false);
    }
    for (const Arc& a : nbrs) {
      auto& l = adj_[a.to];
      l.erase(std::find_if(l.begin(), l.end(), [&](const Arc& x) { return x.to == v; }));
      ++deleted_[a.to];
    }
    adj_[v].clear();
    contracted_[v] = 1;
  }

  sssp::ChOptions opt_;
  std::uint32_t n_;
  std::vector<std::vector<Arc>> adj_;
  std::vector<std::uint64_t> dist_;
  std::vector<std::uint32_t> hop_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t cur_ = 0;
  std::vector<std::int64_t> deleted_;
  std::vector<std::uint8_t> contracted_;
  std::vector<std::vector<sssp::ChArc>> up_;
  std::uint64_t shortcuts_ = 0;
};

sssp::ChIndex build_ch(const Graph& g, const graph::EdgeWeights& w,
                       const sssp::ChOptions& opt = {}) {
  return Builder(g, w, opt).build();
}

}  // namespace reference

const std::vector<sssp::ChOptions> kDifferentialOptions = {
    {}, {4, 2}, {1, 1}, {2, 0}, {1000, 3}};

TEST(ChDifferential, QueryMatchesReferenceOnEveryPair) {
  for (const Instance& in : test_instances()) {
    const std::uint32_t n = in.g.num_vertices();
    for (const sssp::ChOptions& opt : kDifferentialOptions) {
      const sssp::ChIndex ch = sssp::build_ch(in.g, in.w, opt);
      for (VertexId s = 0; s < n; ++s) {
        for (VertexId t = 0; t < n; ++t) {
          const sssp::PointToPointResult got = sssp::ch_query(ch, s, t);
          const sssp::PointToPointResult want = reference::ch_query(ch, s, t);
          ASSERT_EQ(got.distance, want.distance) << "n=" << n << " s=" << s << " t=" << t;
          ASSERT_EQ(got.settled, want.settled) << "n=" << n << " s=" << s << " t=" << t;
        }
      }
    }
  }
}

TEST(ChDifferential, StallKeepsEveryDistance) {
  // Every pair of every family: the stalled query returns the unstalled
  // query's distance, and over all pairs it settles no more vertices.
  for (const Instance& in : test_instances()) {
    const std::uint32_t n = in.g.num_vertices();
    const sssp::ChIndex ch = sssp::build_ch(in.g, in.w);
    std::uint64_t stalled = 0;
    std::uint64_t unstalled = 0;
    for (VertexId s = 0; s < n; ++s) {
      for (VertexId t = 0; t < n; ++t) {
        const sssp::PointToPointResult got = sssp::ch_query(ch, s, t);
        const sssp::PointToPointResult plain = reference::ch_query(ch, s, t, false);
        ASSERT_EQ(got.distance, plain.distance) << "n=" << n << " s=" << s << " t=" << t;
        stalled += got.settled;
        unstalled += plain.settled;
      }
    }
    EXPECT_LE(stalled, unstalled) << "n=" << n;
  }
}

TEST(ChDifferential, QueryMatchesReferenceWhereLabelTablesGrow) {
  // Long trips on a larger road network touch more vertices than the
  // label table's first size holds.
  Rng rng(23);
  const Graph g = graph::road_network(3000, rng);
  Rng wrng(24);
  const graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  const sssp::ChIndex ch = sssp::build_ch(g, w);
  Rng qrng(25);
  for (int q = 0; q < 300; ++q) {
    const auto s = static_cast<VertexId>(qrng.uniform(g.num_vertices()));
    const auto t = static_cast<VertexId>(qrng.uniform(g.num_vertices()));
    const sssp::PointToPointResult got = sssp::ch_query(ch, s, t);
    const sssp::PointToPointResult want = reference::ch_query(ch, s, t);
    ASSERT_EQ(got.distance, want.distance) << "s=" << s << " t=" << t;
    ASSERT_EQ(got.settled, want.settled) << "s=" << s << " t=" << t;
  }
}

TEST(ChDifferential, BuildMatchesReferenceOnEveryFamily) {
  for (const Instance& in : test_instances()) {
    for (const sssp::ChOptions& opt : kDifferentialOptions) {
      EXPECT_EQ(sssp::build_ch(in.g, in.w, opt), reference::build_ch(in.g, in.w, opt))
          << "n=" << in.g.num_vertices() << " settle=" << opt.witness_settle_limit
          << " hops=" << opt.witness_hop_limit;
    }
  }
}

/// Edge list with lengths -> (graph, weights) in the graph's edge order.
Instance weighted(std::uint32_t n, const std::vector<std::array<std::uint32_t, 3>>& edges) {
  graph::GraphBuilder b(n);
  for (const auto& [u, v, len] : edges) b.add_edge(u, v);
  Graph g = std::move(b).build();
  graph::EdgeWeights w(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const auto& [u, v, len] : edges) {
      if (std::minmax(u, v) == std::minmax(g.edge(e).u, g.edge(e).v)) w[e] = len;
    }
  }
  return {std::move(g), std::move(w)};
}

TEST(ChDifferential, WitnessTargetsBeyondTheCutoffOrSettleLimit) {
  // Centre 0 with neighbours 1, 2, 3 at lengths 1, 1, 5; 1-2 at 1, the
  // detour 1-4-3 at 1 + 1 and a direct 1-3 at 10.  Default options: the
  // run from 1 settles target 2 first, and target 3 only after its
  // tentative label 10 drops to 2, so a stop at the first settled target
  // would plan an extra shortcut.
  const Instance near = weighted(5, {{0, 1, 1}, {0, 2, 1}, {0, 3, 5}, {1, 2, 1},
                                     {1, 4, 1}, {4, 3, 1}, {1, 3, 10}});
  // Settle limit 2: vertex 3 goes first, and its run from 0 settles 0 and
  // target 1, then stops with target 4 labelled 2 but unsettled.
  // Detour 1-4-3 at 1 + 9: vertex 0's runs from 1 and 2 cannot reach
  // target 3 within the cutoff 1 + 5, so neither run stops early.
  const Instance far = weighted(5, {{0, 1, 1}, {0, 2, 1}, {0, 3, 5}, {1, 2, 1},
                                    {1, 4, 1}, {4, 3, 9}, {1, 3, 10}});
  for (const Instance* in : {&near, &far}) {
    for (const sssp::ChOptions& opt : {sssp::ChOptions{}, sssp::ChOptions{2, 0}}) {
      const sssp::ChIndex ch = sssp::build_ch(in->g, in->w, opt);
      EXPECT_EQ(ch, reference::build_ch(in->g, in->w, opt))
          << (in == &near ? "near" : "far") << " settle=" << opt.witness_settle_limit;
      for (VertexId s = 0; s < in->g.num_vertices(); ++s) {
        const sssp::SsspResult ref = sssp::dijkstra(in->g, in->w, s);
        for (VertexId t = 0; t < in->g.num_vertices(); ++t)
          EXPECT_EQ(sssp::ch_query(ch, s, t).distance, ref.dist[t]) << s << "-" << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pins: literals recorded from the std::priority_queue / std::unordered_map
// engines.  Every ChIndex vector and every (distance, settled) pair must
// reproduce them byte for byte; a mismatch prints the observed literal.
// The `ch` literals were re-recorded when ch_query gained stall-on-demand:
// its settled counts moved, its distances did not
// (ChDifferential.StallKeepsEveryDistance).
// ---------------------------------------------------------------------------

std::uint64_t fold(std::uint64_t h, std::uint64_t x) { return hash64(h ^ x); }

/// Hash of rank, up_offsets and up_arcs, in that order.
std::uint64_t index_hash(const sssp::ChIndex& ch) {
  std::uint64_t h = hash64(ch.n);
  for (const std::uint32_t r : ch.rank) h = fold(h, r);
  for (const std::uint64_t o : ch.up_offsets) h = fold(h, o);
  for (const sssp::ChArc& a : ch.up_arcs) h = fold(fold(h, a.to), a.len);
  return h;
}

struct ChPin {
  std::uint64_t index;      ///< index_hash
  std::uint64_t shortcuts;  ///< num_shortcuts
  std::uint64_t ch;         ///< (distance, settled) of ch_query over the pairs
  std::uint64_t bidi;       ///< (distance, settled) of bidirectional_dijkstra
};

std::string literal(const ChPin& p) {
  std::ostringstream os;
  os << std::hex << "{0x" << p.index << "ULL, " << std::dec << p.shortcuts << ", 0x" << std::hex
     << p.ch << "ULL, 0x" << p.bidi << "ULL}";
  return os.str();
}

ChPin observe(const Instance& in, const sssp::ChOptions& opt) {
  const sssp::ChIndex ch = sssp::build_ch(in.g, in.w, opt);
  ChPin p{index_hash(ch), ch.num_shortcuts, hash64(1), hash64(2)};
  const std::uint32_t n = in.g.num_vertices();
  Rng qrng(0x9195ULL ^ n);
  for (int q = 0; q < 200; ++q) {
    const auto s = static_cast<VertexId>(qrng.uniform(n));
    const auto t = static_cast<VertexId>(qrng.uniform(n));
    const sssp::PointToPointResult a = sssp::ch_query(ch, s, t);
    const sssp::PointToPointResult b = sssp::bidirectional_dijkstra(in.g, in.w, s, t);
    p.ch = fold(fold(p.ch, a.distance), a.settled);
    p.bidi = fold(fold(p.bidi, b.distance), b.settled);
  }
  return p;
}

void expect_pins(const Instance& in, const ChPin& want_default, const ChPin& want_starved) {
  const ChPin got_default = observe(in, {});
  const ChPin got_starved = observe(in, sssp::ChOptions{4, 2});
  EXPECT_EQ(literal(got_default), literal(want_default)) << "default ChOptions";
  EXPECT_EQ(literal(got_starved), literal(want_starved)) << "ChOptions{4, 2}";
}

/// S9's smoke leg: road_network(4000) with the scenario's default seed.
Instance s9_road() {
  const std::uint64_t seed = 91;
  const std::uint32_t n = 4000;
  Rng gen(seed ^ n);
  Graph g = graph::road_network(n, gen);
  Rng wrng(seed ^ n ^ 0x77ULL);
  graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  return {std::move(g), std::move(w)};
}

Instance weighted_grid() {
  Graph g = graph::grid_graph(30, 40);
  Rng wrng(0x6717ULL);
  graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  return {std::move(g), std::move(w)};
}

/// The mix_gnm benchmark's graph: connected_gnm(300, 900) from its fixed seed.
Instance mix_gnm() {
  Rng gen(0x6d69785f676e6dULL);
  Graph g = graph::connected_gnm(300, 900, gen);
  Rng wrng(0x901dULL);
  graph::EdgeWeights w = graph::random_weights(g, 16, wrng);
  return {std::move(g), std::move(w)};
}

TEST(ChPins, S9RoadNetwork) {
  expect_pins(s9_road(),
              {0xd61ba412a642e40eULL, 7546, 0xcc46aa477d9d6f40ULL, 0x7f02d2acfadecb8eULL},
              {0xeb89f172f21243b2ULL, 29268, 0x272910b429d0508aULL, 0x7f02d2acfadecb8eULL});
}

TEST(ChPins, Grid) {
  expect_pins(weighted_grid(),
              {0x48d109104646c303ULL, 2342, 0x6cb96179f5a2dac5ULL, 0x901fd8e190edb9ddULL},
              {0x8ad514ea53f9b943ULL, 9364, 0x417b1a58f98e8d27ULL, 0x901fd8e190edb9ddULL});
}

TEST(ChPins, MixGnm) {
  expect_pins(mix_gnm(),
              {0x56ff63e45b1e63b9ULL, 1276, 0xf120d3a4eae03b4cULL, 0x7b3e97af90f616d1ULL},
              {0xf8fcf83c77ec98e5ULL, 4569, 0x3f91af167a02c83dULL, 0x7b3e97af90f616d1ULL});
}

}  // namespace
}  // namespace lcs
