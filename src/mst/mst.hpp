// Minimum spanning tree: the Kruskal reference and the shortcut-driven
// Boruvka algorithm of Corollary 1.2 (via [Gha17, Thm 6.1.2]).
//
// The Boruvka driver runs O(log n) phases.  In each phase the current
// fragments are the parts of a shortcut instance; every fragment finds its
// minimum-weight outgoing edge (MWOE) by a convergecast over the BFS tree
// of its augmented subgraph G[S_i] ∪ H_i.  All fragments do this together
// under the random-delay scheduler, so a phase costs Õ(c + d) rounds —
// Õ(k_D) with the Kogan–Parter shortcuts, Õ(sqrt(n)) with the
// Ghaffari–Haeupler baseline, and Θ(fragment diameter) with no shortcuts.
//
// What is simulated vs charged: the scheduled parallel BFS over the
// augmented subgraphs, the MWOE convergecast up the resulting trees, and
// the broadcast of each fragment's decision back down all run for real on
// the CONGEST simulator (rounds measured).  Fragment merging is charged
// one round (hook decisions are local once MWOEs are known).  Shortcut
// construction itself is charged per phase with the measured/analytic
// cost of its scheme (Theorem 1.1 / the GH baseline).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/kp.hpp"
#include "graph/weighted.hpp"

namespace lcs::mst {

using graph::EdgeId;
using graph::EdgeWeights;
using graph::WeightSpan;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

struct MstResult {
  std::vector<EdgeId> edges;  ///< sorted edge ids
  Weight weight = 0;
};

/// Kruskal reference (spanning forest on disconnected graphs).
/// Ties broken by edge id, so the result is unique and comparable.
MstResult kruskal(const Graph& g, WeightSpan w);

enum class ShortcutScheme { kKoganParter, kGhaffariHaeupler, kNone };

struct BoruvkaOptions {
  ShortcutScheme scheme = ShortcutScheme::kKoganParter;
  double beta = 1.0;
  std::uint64_t seed = 1;
  std::optional<unsigned> diameter;  ///< known D for the KP parameters
  std::uint32_t max_phases = 64;
};

struct PhaseStats {
  std::uint32_t fragments = 0;       ///< fragments at phase start
  std::uint32_t bfs_rounds = 0;      ///< measured scheduled-BFS rounds
  std::uint32_t up_rounds = 0;       ///< measured MWOE convergecast rounds
  std::uint32_t down_rounds = 0;     ///< measured decision broadcast rounds
  std::uint32_t rounds_charged = 0;  ///< bfs + up + down + 1 (hooking)
  std::uint64_t messages = 0;
};

struct BoruvkaResult {
  MstResult mst;
  std::uint32_t phases = 0;
  std::uint64_t aggregation_rounds = 0;   ///< sum of rounds_charged
  std::uint64_t construction_rounds = 0;  ///< charged shortcut-construction cost
  std::uint64_t total_rounds() const { return aggregation_rounds + construction_rounds; }
  std::uint64_t messages = 0;
  std::vector<PhaseStats> phase_stats;
};

/// The storage of boruvka_mst calls on one graph: the CONGEST simulator,
/// the three scheduled programs with the trees they share, and the
/// per-phase arrays.  Every phase refills it, so a call allocates only
/// while its arrays grow; a caller that runs many MSTs on one graph keeps
/// one scratch for all of them.  It holds memory, never a result: a call on
/// a used scratch returns what a call on a fresh one returns.  `g` must
/// outlive the scratch, and a scratch serves one call at a time.
class BoruvkaScratch {
 public:
  explicit BoruvkaScratch(const Graph& g);
  ~BoruvkaScratch();
  BoruvkaScratch(const BoruvkaScratch&) = delete;
  BoruvkaScratch& operator=(const BoruvkaScratch&) = delete;

  const Graph& graph() const;

 private:
  friend BoruvkaResult boruvka_mst(const Graph& g, WeightSpan w, const BoruvkaOptions& opt,
                                   BoruvkaScratch& scratch);
  struct State;
  std::unique_ptr<State> state_;
};

/// Boruvka over shortcuts.  Requires a connected graph.
BoruvkaResult boruvka_mst(const Graph& g, WeightSpan w,
                          const BoruvkaOptions& opt = {});
/// The same on a scratch built for `g`.
BoruvkaResult boruvka_mst(const Graph& g, WeightSpan w, const BoruvkaOptions& opt,
                          BoruvkaScratch& scratch);

}  // namespace lcs::mst
