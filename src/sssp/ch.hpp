// Point-to-point s–t distance engines: plain bidirectional Dijkstra (the
// oracle) and contraction hierarchies (preprocessing + bidirectional upward
// query).
//
// Both engines are exact: on every (graph, weights, s, t) they return
// byte-identical distances.  The CH witness search is settle- and
// hop-limited; hitting a limit errs toward inserting an extra shortcut,
// which can only add arcs whose length equals a true path length, so
// exactness is preserved.  A witness search also stops once every pair
// target is settled: settled labels are final, so the plan is the same.
//
// Everything here is deterministic in its inputs alone: ties are broken by
// vertex id, no RNG is consumed, and rebuilding an index from the same
// (graph, weights) yields identical vectors — which is what lets the CH
// index live in the snapshot artifact cache and serialize canonically.
// All searches pop one lazy-deletion heap ordered by (dist, vertex), so
// `settled` counts are pure in the inputs too.  A build reuses one witness
// search and its heap throughout.
//
// Query memory.  Both s–t engines run on a caller-owned
// PointToPointScratch: one open-addressing label table holding both
// directions' labels, and one heap per direction.  The table and heaps
// keep their capacity between searches; starting a search only bumps the
// table's generation stamp, so a search costs O(vertices it touches) and
// allocates only when it touches more than any earlier search on that
// scratch.  Memory is never O(n): it is the largest search's footprint.
// The overloads without a scratch run on fresh search memory per call.
//
// Stall-on-demand (Geisberger et al., "Contraction Hierarchies", WEA 2008).
// Settling v at distance d in one direction is one pass over v's up-arcs.
// If an arc (v -> u, len) has label(u) + len < d, the pass stops there: a
// shorter path to v runs down from u, so d is not v's distance and v
// relaxes nothing more.  Arcs relaxed earlier in the pass stay relaxed;
// their labels d + len are lengths of real paths, so every label still
// bounds a true distance from above.  A vertex of the shortest up–down
// s–t path is settled at its exact distance, and no label(u) + len can
// undercut an exact distance, so such a vertex never stalls: the path is
// still found and distances stay exact.  `settled` counts every pop that
// is not stale, stalled pops included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sssp/sssp.hpp"

namespace lcs::sssp {

/// Result of one s–t query: exact distance (kInfDist when t is unreachable
/// from s) plus the number of settled heap pops, the work/latency telemetry
/// the bench scenarios compare across engines.
struct PointToPointResult {
  std::uint64_t distance = kInfDist;
  std::uint64_t settled = 0;
};

struct ChIndex;

namespace detail {
struct SearchState;  // label table + two heaps, defined in ch.cpp
}  // namespace detail

/// Reusable search memory of the s–t engines (see "Query memory" above).
/// One scratch serves one search at a time; give each concurrent caller
/// its own.  A scratch never influences a result.
class PointToPointScratch {
 public:
  PointToPointScratch();
  ~PointToPointScratch();
  PointToPointScratch(PointToPointScratch&&) noexcept;
  PointToPointScratch& operator=(PointToPointScratch&&) noexcept;

  /// Slots of the label table: a power of two, at least twice the largest
  /// number of vertices one search on this scratch has touched.
  std::size_t label_slots() const;

 private:
  friend PointToPointResult bidirectional_dijkstra(const Graph&, WeightSpan, VertexId,
                                                   VertexId, PointToPointScratch&);
  friend PointToPointResult ch_query(const ChIndex&, VertexId, VertexId,
                                     PointToPointScratch&);
  std::unique_ptr<detail::SearchState> state_;
};

/// Plain bidirectional Dijkstra over G — the oracle engine.
PointToPointResult bidirectional_dijkstra(const Graph& g, WeightSpan w, VertexId s,
                                          VertexId t, PointToPointScratch& scratch);
PointToPointResult bidirectional_dijkstra(const Graph& g, WeightSpan w, VertexId s,
                                          VertexId t);

/// One upward arc of the hierarchy: `to` has strictly higher rank than the
/// arc's owner; `len` is a true shortest-path length in G.
struct ChArc {
  VertexId to = 0;
  std::uint64_t len = 0;

  bool operator==(const ChArc&) const = default;
};

struct ChOptions {
  /// Witness searches stop after settling this many vertices; exceeding the
  /// limit conservatively inserts the candidate shortcut.
  std::uint32_t witness_settle_limit = 64;
  /// Hop bound for witness paths (0 = unbounded).
  std::uint32_t witness_hop_limit = 16;
};

/// The preprocessed hierarchy: a contraction order (rank) and, per vertex,
/// the arcs to higher-ranked neighbours in CSR form.  Arcs are sorted by
/// (owner, to) so the structure is canonical for serialization.
struct ChIndex {
  std::uint32_t n = 0;
  std::vector<std::uint32_t> rank;        ///< rank[v] in [0, n), unique
  std::vector<std::uint64_t> up_offsets;  ///< size n+1
  std::vector<ChArc> up_arcs;             ///< grouped by owner, sorted by `to`
  std::uint64_t num_shortcuts = 0;        ///< arcs not present as edges of G

  bool operator==(const ChIndex&) const = default;
};

/// Contract all vertices in edge-difference order (lazy priority queue,
/// deleted-neighbour tiebreak, then vertex id), inserting witness-checked
/// shortcuts.  Deterministic in (g, w, opt).
ChIndex build_ch(const Graph& g, WeightSpan w, const ChOptions& opt = {});

/// Bidirectional upward search over the hierarchy, with stall-on-demand.
/// Exact.
PointToPointResult ch_query(const ChIndex& ch, VertexId s, VertexId t,
                            PointToPointScratch& scratch);
PointToPointResult ch_query(const ChIndex& ch, VertexId s, VertexId t);

}  // namespace lcs::sssp
