// Low-congestion shortcuts: the central data type and its quality metrics.
//
// Definition 1.1 (Ghaffari–Haeupler): given G and vertex-disjoint connected
// parts S_1..S_l, a (c, d)-shortcut assigns each part a subgraph H_i ⊆ G
// such that diam(G[S_i] ∪ H_i) <= d and no edge lies in more than c of the
// augmented subgraphs.  Here H_i is simply a set of edge ids of G.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace lcs::core {

using graph::EdgeId;
using graph::Graph;
using graph::Partition;
using graph::VertexId;

/// A shortcut assignment: H_i per part (parallel to partition.parts).
struct ShortcutSet {
  std::vector<std::vector<EdgeId>> h;

  std::size_t num_parts() const { return h.size(); }
};

/// Vertex membership marks that one caller reuses across the parts it
/// visits: marking a part costs O(|S_i|), so the edge lists of a whole
/// partition cost O(n + m) plus their sorts, not O(n) per part.  Each mark()
/// starts a new epoch, so nothing is cleared between parts.
class PartMarks {
 public:
  explicit PartMarks(std::uint32_t n) : stamp_(n, 0) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(stamp_.size()); }

  /// Make `part` the marked set (every vertex must be < size()).
  void mark(std::span<const VertexId> part);

  bool marked(VertexId v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Edge ids of G[S]: edges with both endpoints inside the part, ascending.
/// `marks` (sized to G) is the caller's scratch; the overload without it
/// allocates one.
std::vector<EdgeId> induced_part_edges(const Graph& g, const std::vector<VertexId>& part,
                                       PartMarks& marks);
std::vector<EdgeId> induced_part_edges(const Graph& g, const std::vector<VertexId>& part);

/// True when `h_i` is all of E: exactly the ids 0..m-1, each once, ascending
/// (KP's H_i once p clamps to 1).  One scan, no hashing.  False for m = 0.
bool is_all_edges(const Graph& g, const std::vector<EdgeId>& h_i);

/// Edge ids of the augmented subgraph G[S_i] ∪ H_i (deduplicated, ascending).
std::vector<EdgeId> augmented_edges(const Graph& g, const std::vector<VertexId>& part,
                                    const std::vector<EdgeId>& h_i, PartMarks& marks);
std::vector<EdgeId> augmented_edges(const Graph& g, const std::vector<VertexId>& part,
                                    const std::vector<EdgeId>& h_i);

/// Per-part dilation measurements.
///
/// Contract: `exact` is true only when lb == ub is the exact diameter of the
/// whole (connected) augmented subgraph; an uncovered part is never exact.
/// When stray shortcut edges disconnect the augmented subgraph away from
/// S_i, the part still counts as covered (S_i itself is connected through
/// the leader), and — within QualityOptions::exact_diameter_max_vertices —
/// lb == ub is the exact diameter of the leader's component with
/// exact == false recording the disconnection caveat.
struct PartDilation {
  bool covered = false;            ///< augmented subgraph connects all of S_i
  std::uint32_t cover_radius = 0;  ///< BFS depth from the leader covering S_i
  std::uint32_t diameter_lb = 0;   ///< double-sweep lower bound on diam(G[S_i] ∪ H_i)
  std::uint32_t diameter_ub = 0;   ///< upper bound (exact when small, else 2*radius)
  bool exact = false;              ///< lb == ub == exact diameter of the connected subgraph
};

struct QualityReport {
  std::uint32_t congestion = 0;        ///< max over edges of #augmented subgraphs containing it
  std::uint32_t dilation_lb = 0;       ///< max over parts of diameter_lb
  std::uint32_t dilation_ub = 0;       ///< max over parts of diameter_ub
  std::uint32_t max_cover_radius = 0;  ///< max over parts of cover_radius
  bool all_covered = true;
  std::vector<PartDilation> parts;

  /// Headline quality c + d, using the upper-bound dilation.
  std::uint64_t quality() const {
    return static_cast<std::uint64_t>(congestion) + dilation_ub;
  }
};

struct QualityOptions {
  /// Exact diameter is computed for augmented subgraphs with at most this
  /// many vertices; larger ones get the double-sweep / 2*radius bracket.
  std::uint32_t exact_diameter_max_vertices = 700;
};

/// Measure congestion and dilation of a shortcut assignment, by definition.
QualityReport measure_quality(const Graph& g, const Partition& parts,
                              const ShortcutSet& sc, const QualityOptions& opt = {});

/// Dilation of one augmented subgraph.
PartDilation measure_part_dilation(const Graph& g, const std::vector<VertexId>& part,
                                   VertexId leader, const std::vector<EdgeId>& h_i,
                                   const QualityOptions& opt = {});

namespace detail {

/// measure_part_dilation over an already-built `edges` =
/// augmented_edges(g, part, h_i), for the quality measurements that also
/// count those edges towards congestion and so build the list anyway.
PartDilation augmented_part_dilation(const Graph& g, const std::vector<VertexId>& part,
                                     VertexId leader, const std::vector<EdgeId>& edges,
                                     const QualityOptions& opt);

}  // namespace detail

/// Exact congestion vector: for each edge, the number of augmented
/// subgraphs containing it.  (measure_quality reports its max.)
std::vector<std::uint32_t> edge_congestion(const Graph& g, const Partition& parts,
                                           const ShortcutSet& sc);

}  // namespace lcs::core
