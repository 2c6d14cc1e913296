#include "core/kp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/coin.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace lcs::core {

namespace {

unsigned effective_diameter(const Graph& g, const KpOptions& opt) {
  if (opt.diameter.has_value()) return *opt.diameter;
  // Double sweep is exact on our generator families and never above the
  // true diameter, matching what a BFS-based 2-approximation would allow.
  return std::max(1u, graph::diameter_double_sweep(g));
}

ShortcutParams make_params(const Graph& g, const KpOptions& opt) {
  const unsigned d = effective_diameter(g, opt);
  ShortcutParams p = ShortcutParams::make(g.num_vertices(), d, opt.beta);
  if (opt.repetitions.has_value()) p.repetitions = std::max(1u, *opt.repetitions);
  if (opt.probability_override.has_value())
    p.sample_prob = std::clamp(*opt.probability_override, 0.0, 1.0);
  return p;
}

struct Classification {
  std::vector<bool> is_large;
  std::vector<std::uint32_t> large_index;
  std::uint32_t num_large = 0;
};

// The builders below take a Partition or a FlatPartition; these read a
// part of either.
std::size_t part_count(const Partition& parts) { return parts.parts.size(); }
std::size_t part_count(const graph::FlatPartition& parts) { return parts.num_parts(); }
std::span<const VertexId> part_members(const Partition& parts, std::size_t i) {
  return parts.parts[i];
}
std::span<const VertexId> part_members(const graph::FlatPartition& parts, std::size_t i) {
  return parts.part(i);
}

template <typename Parts>
Classification classify(const Parts& parts, const ShortcutParams& params) {
  Classification c;
  const std::size_t np = part_count(parts);
  c.is_large.resize(np);
  c.large_index.assign(np, graph::kUnreached);
  for (std::size_t i = 0; i < np; ++i) {
    c.is_large[i] = part_members(parts, i).size() > params.large_threshold;
    if (c.is_large[i]) c.large_index[i] = c.num_large++;
  }
  return c;
}

/// Max edge load (0 on an edgeless graph).
std::uint32_t max_load(const std::vector<std::uint32_t>& load) {
  return load.empty() ? 0 : *std::max_element(load.begin(), load.end());
}

/// True when p clamps to 1 and at least one repetition runs: every coin
/// lands, so every large part's H_i is all of E.
bool every_coin_lands(const ShortcutParams& params, unsigned repetitions) {
  return params.sample_prob >= 1.0 && repetitions > 0;
}

/// True when every large part's H_i is all of E and G[S_i] ∪ H_i is G
/// itself: every coin lands and G is connected with an edge.  Disconnected
/// G keeps the per-part path (its augmented subgraphs drop isolated
/// vertices and may split).
bool large_parts_take_g(const Graph& g, const ShortcutParams& params,
                        const Classification& c) {
  return c.num_large > 0 && every_coin_lands(params, params.repetitions) &&
         g.num_edges() > 0 && graph::is_connected(g);
}

/// measure_kp_quality when large_parts_take_g holds.  Every large part
/// measures the same graph, so G's diameter is computed once; each large
/// part then needs only its cover-radius BFS.  Small parts (H_i empty) and
/// the congestion they add are measured exactly as on the general path.
/// Returns the max small-part edge load; every edge also carries num_large.
std::uint32_t measure_parts_taking_g(const Graph& g, const Partition& parts,
                                     const Classification& c, const QualityOptions& qopt,
                                     std::vector<PartDilation>& out) {
  // What the per-part path measures on EdgeInducedSubgraph(g, all edges):
  // the exact diameter up to the threshold; above it, a double sweep of that
  // subgraph's local graph, whose vertex order (first appearance in edge
  // order) steers the sweep — so sweep that graph, not g.
  const bool exact = g.num_vertices() <= qopt.exact_diameter_max_vertices;
  std::uint32_t diameter = 0;
  if (exact) {
    diameter = graph::diameter_exact(g);
  } else {
    std::vector<EdgeId> all(g.num_edges());
    std::iota(all.begin(), all.end(), EdgeId{0});
    diameter = graph::diameter_double_sweep(graph::EdgeInducedSubgraph(g, all).local_graph());
  }

  std::vector<std::uint32_t> load(g.num_edges(), 0);
  PartMarks marks(g.num_vertices());
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    if (!c.is_large[i]) {
      const std::vector<EdgeId> edges = induced_part_edges(g, parts.parts[i], marks);
      for (const EdgeId e : edges) ++load[e];
      out[i] = detail::augmented_part_dilation(g, parts.parts[i], parts.leader(i), edges, qopt);
      continue;
    }
    const graph::BfsResult r = graph::bfs(g, parts.leader(i));
    PartDilation& pd = out[i];
    pd.covered = true;
    for (const VertexId v : parts.parts[i]) pd.cover_radius = std::max(pd.cover_radius, r.dist[v]);
    pd.diameter_lb = diameter;
    pd.diameter_ub = exact ? diameter : std::max(diameter, 2 * pd.cover_radius);
    pd.exact = exact;
  }
  return max_load(load);
}

/// kp_edges_for_part on the part's members.
std::vector<EdgeId> edges_for_members(const Graph& g, std::span<const VertexId> part,
                                      const ShortcutParams& params, std::uint32_t large_idx,
                                      std::uint64_t seed, unsigned repetitions,
                                      PartMarks& marks) {
  LCS_REQUIRE(marks.size() == g.num_vertices(), "part marks do not match the graph");
  const CoinFlipper coins(seed, params.sample_prob);
  if (every_coin_lands(params, repetitions)) {
    // Step 2 takes each edge Step 1 does not.
    std::vector<EdgeId> all(g.num_edges());
    std::iota(all.begin(), all.end(), EdgeId{0});
    return all;
  }
  marks.mark(part);

  std::vector<EdgeId> h;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (marks.marked(ed.u) || marks.marked(ed.v)) {
      // Step 1: all edges incident to S_i, with probability 1.
      h.push_back(e);
      continue;
    }
    // Step 2: both endpoints sample the directed edge, `repetitions` times.
    // Each direction's (seed, edge, part) hashes are shared by its
    // repetitions, so only the last hash runs per coin.
    const std::uint64_t key_u = coins.key(e, 0, large_idx);
    const std::uint64_t key_v = coins.key(e, 1, large_idx);
    bool taken = false;
    for (unsigned rep = 0; rep < repetitions && !taken; ++rep)
      taken = coins.flip_keyed(key_u, rep) || coins.flip_keyed(key_v, rep);
    if (taken) h.push_back(e);
  }
  return h;
}

template <typename Parts>
KpBuildResult build_kp(const Graph& g, const Parts& parts, const KpOptions& opt) {
  KpBuildResult out;
  out.params = make_params(g, opt);
  Classification c = classify(parts, out.params);
  out.is_large = std::move(c.is_large);
  out.large_index = std::move(c.large_index);
  out.num_large = c.num_large;

  // The coin flips are stateless hashes of (seed, edge, direction, part,
  // repetition), i.e. counter-based streams indexed by the
  // (repetition x large-part x edge) coordinates, so the sampled set does not
  // depend on the order parts are visited in.
  const std::size_t np = part_count(parts);
  out.shortcuts.h.resize(np);
  PartMarks marks(g.num_vertices());
  for (std::size_t i = 0; i < np; ++i) {
    if (!out.is_large[i]) continue;  // small parts get no shortcut
    out.shortcuts.h[i] = edges_for_members(g, part_members(parts, i), out.params,
                                           out.large_index[i], opt.seed,
                                           out.params.repetitions, marks);
  }
  return out;
}

template <typename Parts>
ShortcutSet build_gh(const Graph& g, const Parts& parts) {
  const double threshold = std::sqrt(static_cast<double>(g.num_vertices()));
  ShortcutSet sc;
  sc.h.resize(part_count(parts));
  std::vector<EdgeId> all;
  for (std::size_t i = 0; i < sc.h.size(); ++i) {
    if (static_cast<double>(part_members(parts, i).size()) < threshold) continue;
    if (all.empty()) {
      all.resize(g.num_edges());
      for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
    }
    sc.h[i] = all;
  }
  return sc;
}

}  // namespace

ShortcutParams kp_params(const Graph& g, const KpOptions& opt) {
  return make_params(g, opt);
}

std::vector<EdgeId> kp_edges_for_part(const Graph& g, const Partition& parts,
                                      std::size_t part, const ShortcutParams& params,
                                      std::uint32_t large_idx, std::uint64_t seed,
                                      unsigned repetitions, PartMarks& marks) {
  LCS_REQUIRE(part < parts.parts.size(), "part out of range");
  return edges_for_members(g, parts.parts[part], params, large_idx, seed, repetitions, marks);
}

std::vector<EdgeId> kp_edges_for_part(const Graph& g, const Partition& parts,
                                      std::size_t part, const ShortcutParams& params,
                                      std::uint32_t large_idx, std::uint64_t seed,
                                      unsigned repetitions) {
  PartMarks marks(g.num_vertices());
  return kp_edges_for_part(g, parts, part, params, large_idx, seed, repetitions, marks);
}

KpBuildResult build_kp_shortcuts(const Graph& g, const Partition& parts,
                                 const KpOptions& opt) {
  return build_kp(g, parts, opt);
}

KpBuildResult build_kp_shortcuts(const Graph& g, const graph::FlatPartition& parts,
                                 const KpOptions& opt) {
  return build_kp(g, parts, opt);
}

KpStreamReport measure_kp_quality(const Graph& g, const Partition& parts,
                                  const KpOptions& opt, const QualityOptions& qopt) {
  KpStreamReport out;
  out.params = make_params(g, opt);
  const Classification c = classify(parts, out.params);
  out.num_large = c.num_large;

  const std::size_t np = parts.parts.size();
  QualityReport& rep = out.quality;
  rep.parts.resize(np);
  if (large_parts_take_g(g, out.params, c)) {
    rep.congestion = c.num_large + measure_parts_taking_g(g, parts, c, qopt, rep.parts);
    out.total_shortcut_edges = std::uint64_t{c.num_large} * g.num_edges();
  } else {
    // Streamed: each part's H_i is sampled, counted and measured, then
    // dropped.
    std::vector<std::uint32_t> load(g.num_edges(), 0);
    PartMarks marks(g.num_vertices());
    for (std::size_t i = 0; i < np; ++i) {
      std::vector<EdgeId> h_i;
      if (c.is_large[i]) {
        h_i = kp_edges_for_part(g, parts, i, out.params, c.large_index[i], opt.seed,
                                out.params.repetitions, marks);
        out.total_shortcut_edges += h_i.size();
      }
      const std::vector<EdgeId> edges = augmented_edges(g, parts.parts[i], h_i, marks);
      for (const EdgeId e : edges) ++load[e];
      rep.parts[i] =
          detail::augmented_part_dilation(g, parts.parts[i], parts.leader(i), edges, qopt);
    }
    rep.congestion = max_load(load);
  }
  for (const PartDilation& pd : rep.parts) {
    rep.all_covered = rep.all_covered && pd.covered;
    rep.dilation_lb = std::max(rep.dilation_lb, pd.diameter_lb);
    rep.dilation_ub = std::max(rep.dilation_ub, pd.diameter_ub);
    rep.max_cover_radius = std::max(rep.max_cover_radius, pd.cover_radius);
  }
  return out;
}

ShortcutSet build_gh_shortcuts(const Graph& g, const Partition& parts) {
  return build_gh(g, parts);
}

ShortcutSet build_gh_shortcuts(const Graph& g, const graph::FlatPartition& parts) {
  return build_gh(g, parts);
}

ShortcutSet build_trivial_shortcuts(const Partition& parts) {
  ShortcutSet sc;
  sc.h.resize(parts.parts.size());
  return sc;
}

ShortcutSet build_trivial_shortcuts(const graph::FlatPartition& parts) {
  ShortcutSet sc;
  sc.h.resize(parts.num_parts());
  return sc;
}

KpBuildResult build_kp_shortcuts_odd(const Graph& g, const Partition& parts,
                                     const KpOptions& opt) {
  KpBuildResult out;
  out.params = make_params(g, opt);
  LCS_REQUIRE(out.params.diameter % 2 == 1, "odd-diameter construction needs odd D");
  Classification c = classify(parts, out.params);
  out.is_large = std::move(c.is_large);
  out.large_index = std::move(c.large_index);
  out.num_large = c.num_large;

  const graph::Subdivision sub = graph::subdivide(g);
  const double p_half = std::sqrt(out.params.sample_prob);
  const CoinFlipper coins(opt.seed, p_half);

  const std::size_t np = parts.parts.size();
  out.shortcuts.h.resize(np);
  // The coins are stateless hashes, so the sample does not depend on the
  // order parts are visited in.
  PartMarks marks(g.num_vertices());
  for (std::size_t i = 0; i < np; ++i) {
    if (!out.is_large[i]) continue;
    marks.mark(parts.parts[i]);
    const std::uint32_t li = out.large_index[i];
    auto& h = out.shortcuts.h[i];
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      if (marks.marked(ed.u) || marks.marked(ed.v)) {
        h.push_back(e);  // step 1: the two-edge path with probability 1
        continue;
      }
      bool taken = false;
      for (unsigned rep = 0; rep < out.params.repetitions && !taken; ++rep) {
        // Both halves must be sampled in the same repetition: probability
        // sqrt(p)^2 = p per repetition, exactly as in the paper.
        taken = coins.flip(sub.half_a[e], 0, li, rep) && coins.flip(sub.half_b[e], 0, li, rep);
      }
      if (taken) h.push_back(e);
    }
  }
  return out;
}

KpBuildResult build_kkoi_d3(const Graph& g, const Partition& parts, std::uint64_t seed,
                            double beta) {
  KpOptions opt;
  opt.beta = beta;
  opt.seed = seed;
  opt.diameter = 3;
  opt.repetitions = 1;
  return build_kp_shortcuts(g, parts, opt);
}

ShortcutSet build_deterministic_tree_shortcuts(const Graph& g, const Partition& parts,
                                               std::uint32_t depth_cap) {
  if (depth_cap == 0) depth_cap = std::max(1u, graph::diameter_double_sweep(g));
  const ShortcutParams params =
      ShortcutParams::make(std::max<std::uint64_t>(2, g.num_vertices()),
                           std::max(1u, depth_cap));
  ShortcutSet sc;
  sc.h.resize(parts.parts.size());
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    if (parts.parts[i].size() <= params.large_threshold) continue;
    const graph::BfsResult r = graph::bfs_truncated(g, parts.leader(i), depth_cap);
    auto& h = sc.h[i];
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (r.parent_edge[v] != graph::kNoEdge) h.push_back(r.parent_edge[v]);
    std::sort(h.begin(), h.end());
  }
  return sc;
}

}  // namespace lcs::core
