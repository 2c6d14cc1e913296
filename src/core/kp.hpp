// The Kogan–Parter shortcut construction (Section 2 of the paper), plus the
// baseline constructions it is evaluated against.
//
// Centralized construction, for each large part S_i (|S_i| > k_D):
//   Step 1: every edge incident to S_i joins H_i.
//   Step 2: every node u outside S_i samples each incident directed edge
//           (u, v) into H_i with probability p = beta * k_D * ln(n) / N,
//           independently, D times.
// Congestion is O(D * k_D * log n) w.h.p. by Chernoff; dilation is
// O(k_D log n) w.h.p. by the shortcut-tree argument (Section 3).
#pragma once

#include <cstdint>
#include <optional>

#include "core/shortcut.hpp"
#include "util/math.hpp"

namespace lcs::core {

struct KpOptions {
  double beta = 1.0;            ///< scales the sampling probability (EA2 ablation)
  std::uint64_t seed = 1;       ///< shared randomness
  /// Unweighted diameter of G.  When absent it is estimated by double sweep
  /// (the distributed algorithm would get a 2-approximation from a BFS).
  std::optional<unsigned> diameter;
  /// Number of independent sampling repetitions; defaults to D (EA1 ablation).
  std::optional<unsigned> repetitions;
  /// Direct override of the sampling probability (diagnostics only).
  std::optional<double> probability_override;
};

struct KpBuildResult {
  ShortcutSet shortcuts;       ///< H_i per part (empty for small parts)
  ShortcutParams params;
  std::vector<bool> is_large;
  std::vector<std::uint32_t> large_index;  ///< index in [0, N) or kUnreached
  std::uint32_t num_large = 0;
};

/// Materialize the full shortcut assignment.  Memory is
/// O(total |H_i|) = O(m * congestion); for large sweeps prefer
/// measure_kp_quality below.
KpBuildResult build_kp_shortcuts(const Graph& g, const Partition& parts,
                                 const KpOptions& opt = {});
/// The same shortcuts over the same parts laid out flat.
KpBuildResult build_kp_shortcuts(const Graph& g, const graph::FlatPartition& parts,
                                 const KpOptions& opt = {});

/// Sampled H_i of a single part, ascending, computed independently (same
/// coins as the full construction — the coins are hashes of shared
/// randomness).  When params.sample_prob >= 1 and repetitions > 0 every coin
/// lands, so H_i is all of E: the result is 0..m-1, returned without marking
/// the part or visiting an edge.  With repetitions == 0 no coin is flipped at
/// any p and H_i is the Step-1 edges alone.  `marks` (sized to G) is the
/// caller's scratch; the overload without it allocates one.
std::vector<EdgeId> kp_edges_for_part(const Graph& g, const Partition& parts,
                                      std::size_t part, const ShortcutParams& params,
                                      std::uint32_t large_idx, std::uint64_t seed,
                                      unsigned repetitions, PartMarks& marks);
std::vector<EdgeId> kp_edges_for_part(const Graph& g, const Partition& parts,
                                      std::size_t part, const ShortcutParams& params,
                                      std::uint32_t large_idx, std::uint64_t seed,
                                      unsigned repetitions);

/// Streamed quality measurement: identical outcome to
/// measure_quality(build_kp_shortcuts(...)) but only one H_i is alive at a
/// time.  Fast path when p clamps to 1 on a connected G (the usual case for
/// D >= 5 below n ≈ 10⁴): every large part's H_i is all of E, so its
/// augmented subgraph is G itself.  G's diameter (exact up to
/// qopt.exact_diameter_max_vertices, else the double sweep the per-part
/// path takes) is then computed once per call, each large part adds one
/// cover-radius BFS, and congestion is num_large plus the small parts'
/// induced-edge loads.  Small parts, disconnected G and p < 1 take the
/// general per-part path; measure_quality(build_kp_shortcuts(...)) stays
/// the oracle.
struct KpStreamReport {
  QualityReport quality;
  ShortcutParams params;
  std::uint32_t num_large = 0;
  std::uint64_t total_shortcut_edges = 0;  ///< sum over parts of |H_i|
};
KpStreamReport measure_kp_quality(const Graph& g, const Partition& parts,
                                  const KpOptions& opt = {}, const QualityOptions& qopt = {});

// --- baselines --------------------------------------------------------------

/// Ghaffari–Haeupler (SODA 2016) general-graph construction: parts with at
/// least sqrt(n) vertices take all of G as their shortcut; smaller parts
/// take nothing.  Quality O(D + sqrt(n)).
ShortcutSet build_gh_shortcuts(const Graph& g, const Partition& parts);
ShortcutSet build_gh_shortcuts(const Graph& g, const graph::FlatPartition& parts);

/// No shortcuts at all; dilation is the diameter of the parts themselves.
ShortcutSet build_trivial_shortcuts(const Partition& parts);
ShortcutSet build_trivial_shortcuts(const graph::FlatPartition& parts);

/// Kitamura et al. (DISC 2019) style D=3 construction: single-repetition
/// sampling at the D=3 rate.  (The paper notes its own construction
/// coincides with this scheme for D = 3.)
KpBuildResult build_kkoi_d3(const Graph& g, const Partition& parts, std::uint64_t seed,
                            double beta = 1.0);

/// Deterministic tree baseline (a natural candidate for the paper's
/// derandomization open problem): every large part takes the truncated
/// global BFS tree from its leader, depth <= depth_cap (default: the graph
/// diameter estimate).  Dilation is <= 2*depth_cap by construction, but
/// congestion degrades to the number of large parts on hub edges — the
/// measured gap to the sampled construction is exactly what randomization
/// buys.  Parts sized over k_D (same rule as KP) get the tree.
ShortcutSet build_deterministic_tree_shortcuts(const Graph& g, const Partition& parts,
                                               std::uint32_t depth_cap = 0);

/// Parameters the construction would use (exposed for harnesses).
ShortcutParams kp_params(const Graph& g, const KpOptions& opt);

// --- odd diameter via subdivision (Section 3.2) -----------------------------

/// The paper's odd-D construction: subdivide every edge (G' has even
/// diameter 2D), sample each half-edge with probability sqrt(p), and keep an
/// original edge in H_i iff both halves were sampled in the same repetition.
/// Edges incident to S_i are kept with probability 1, as the two-edge path.
/// The result lives on the *original* graph.
KpBuildResult build_kp_shortcuts_odd(const Graph& g, const Partition& parts,
                                     const KpOptions& opt = {});

}  // namespace lcs::core
