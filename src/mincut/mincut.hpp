// Minimum cut: exact references and the tree-packing approximation that
// backs Corollary 1.2's (1+eps) min-cut claim.
//
// The distributed (1+eps) algorithm the paper cites ([Gha17, Thm 7.6.1],
// following Karger) packs O(log n) spanning trees and finds the best cut
// that 2-respects one of them; every tree computation and aggregation is a
// shortcut-accelerated MST-like step.  We implement the packing with
// 1-respecting cuts (ratio <= 2 in theory, ~1 in practice on these
// families; see DESIGN.md §4) and account rounds as #trees x MST rounds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/weighted.hpp"
#include "util/rng.hpp"

namespace lcs::mincut {

using graph::EdgeId;
using graph::EdgeWeights;
using graph::WeightSpan;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

struct CutResult {
  Weight value = 0;
  /// Vertices on one side of the cut, ascending.  Which side depends on the
  /// engine: stoer_wagner and tree_packing_mincut return a side of at most
  /// n/2 vertices (the complement of the side they found when that one is
  /// larger); the sparsified estimators return stoer_wagner's side on the
  /// skeleton (on G when the skeleton is disconnected); karger_mincut
  /// returns vertex 0's side, whatever its size.
  std::vector<VertexId> side;
};

/// Exact global minimum cut (Stoer–Wagner, JACM 1997, heap form).
/// O(n * m * log n) time and O(n + m) extra space: each of the n - 1
/// maximum-adjacency phases scans every CSR half-edge once through an
/// indexed max-heap.  Requires a connected graph with >= 2 vertices and
/// positive weights.  Sequential; ties go to the smallest supernode id, so
/// the returned side is a pure function of (g, w).
CutResult stoer_wagner(const Graph& g, WeightSpan w);

/// Karger's randomized contraction, `trials` independent repetitions.
/// Weighted sampling via exponential clocks.  Monte Carlo: result is an
/// upper bound that equals the min cut w.h.p. for trials = Omega(n^2 log n).
/// Trials run one after another on the caller's thread, each on its own
/// counter-based RNG stream (one draw of `rng` seeds the family; trial t uses
/// split(t)); the earliest trial with the smallest cut wins, and only the
/// best side so far is held.
CutResult karger_mincut(const Graph& g, WeightSpan w, std::uint32_t trials,
                        Rng& rng);

struct TreePackingResult {
  CutResult cut;
  std::uint32_t num_trees = 0;
  /// Index of the tree (and its edge) realising the best 1-respecting cut.
  std::uint32_t best_tree = 0;
};

/// Greedy spanning-tree packing + minimum 1-respecting cut per tree.
/// `num_trees = 0` selects ceil(3 ln n) trees.
TreePackingResult tree_packing_mincut(const Graph& g, WeightSpan w,
                                      std::uint32_t num_trees = 0);

/// Karger's sampling estimator — the (1±eps) mechanism behind the
/// corollary's epsilon dependence: sample each unit of capacity with
/// probability p = min(1, c·ln n / (eps^2 · lambda_hat)) (lambda_hat from a
/// quick tree packing), find the skeleton's minimum cut, rescale by 1/p.
/// Monte Carlo: the returned *side* realises a (1+eps)-near-minimum cut of
/// G w.h.p.; `value` is that side's exact cut value in G.  The binomial
/// thinning draws one O(1) Binomial(w[e], p) per edge on a counter-based
/// per-edge stream seeded by a single `rng` draw, so edge e's thinning
/// depends only on (that draw, e) (draw semantics changed from the seed's
/// one-bernoulli-per-capacity-unit loop).
struct SparsifiedResult {
  CutResult cut;          ///< side + exact value in G
  double sample_prob = 1.0;
  Weight skeleton_cut = 0;  ///< the (unscaled) cut value in the skeleton
};
SparsifiedResult sparsified_mincut(const Graph& g, WeightSpan w, double eps,
                                   Rng& rng);

/// The reusable sampling phase of sparsified_mincut: per-edge thinned
/// capacities (units[e] ~ Binomial(w[e], p)).  A pure function of
/// (g, w, eps, seed) — the artifact the snapshot cache shares across
/// queries.  It is the composition of the three pieces below:
///   p = sparsify_sample_prob(g, eps, λ̂ = sparsify_lambda_hat(g, w)),
///   sample = sparsify_edges_at(g, w, p, seed).
/// The split lets a caller learn p before it looks a sample up.  At p >= 1
/// (every graph whose λ̂ is small against 3·ln n / eps²) the sample is the
/// weights themselves for every seed and eps, so the snapshot keys it by
/// content: one identity entry, and one skeleton cut, shared by all queries.
struct SparsifiedSample {
  double sample_prob = 1.0;
  std::vector<Weight> units;  ///< thinned capacity per edge of g
};
SparsifiedSample sparsify_edges(const Graph& g, WeightSpan w, double eps,
                                std::uint64_t seed);

/// λ̂: the cheap 2-approximate min cut that prices the sample, from a
/// three-tree packing.  Pure in (g, w).
Weight sparsify_lambda_hat(const Graph& g, WeightSpan w);

/// p = min(1, 3·ln n / (eps²·λ̂)).  Checks, in this order and with the texts
/// every sparsified entry point reports: "eps must be in (0, 1)", "min cut
/// of a disconnected graph is zero", then calls `estimate` for λ̂ (its own
/// errors, e.g. tree packing's, come next), then "lambda estimate must be
/// positive".
double sparsify_sample_prob(const Graph& g, double eps,
                            const std::function<Weight()>& estimate);

/// Binomial thinning at a known p (the identity sample when p >= 1, where
/// `seed` is unused).
SparsifiedSample sparsify_edges_at(const Graph& g, WeightSpan w, double sample_prob,
                                   std::uint64_t seed);

/// The solve phase: skeleton assembly + Stoer–Wagner on the sample.
/// sparsified_mincut(g, w, eps, rng) is exactly this over the rng-seeded
/// sample, with the pre-existing draw semantics: rng advances once, only
/// when the computed sample_prob is < 1 (a p >= 1 or throwing call
/// consumes no state).
SparsifiedResult sparsified_mincut_on_sample(const Graph& g, WeightSpan w,
                                             const SparsifiedSample& sample);

/// Cut value of a vertex subset (sum of crossing edge weights).
Weight cut_value(const Graph& g, WeightSpan w, const std::vector<VertexId>& side);

}  // namespace lcs::mincut
