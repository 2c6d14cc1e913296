#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "congest/multibfs.hpp"
#include "congest/programs.hpp"
#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lcs::core {

namespace {

using congest::BfsInstanceSpec;
using congest::MultiBfsProgram;
using congest::Simulator;

struct Stage1 {
  std::uint32_t ecc = 0;
  std::uint32_t rounds = 0;
  std::uint64_t messages = 0;
  congest::RootedTree tree;
};

Stage1 run_global_bfs(const Graph& g) {
  Stage1 out;
  congest::BfsProgram bfs(g.num_vertices(), 0);
  Simulator sim(g, 1);
  const congest::RunStats st = sim.run(bfs, 4 * g.num_vertices() + 16);
  LCS_CHECK(st.completed, "global BFS did not quiesce");
  out.rounds = st.rounds;
  out.messages = st.messages;
  graph::BfsResult r;
  r.dist = bfs.dist();
  r.parent = bfs.parent();
  r.parent_edge = bfs.parent_edge();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (r.dist[v] != graph::kUnreached) {
      out.ecc = std::max(out.ecc, r.dist[v]);
      ++r.reached;
    }
  out.tree = congest::RootedTree::from_bfs(g, r, 0);
  return out;
}

/// One attempt with fixed parameters; fills everything except `attempts`.
DistributedOutcome attempt(const Graph& g, const Partition& parts,
                           const DistributedOptions& opt, unsigned diameter,
                           const Stage1& s1) {
  DistributedOutcome out;
  out.params = ShortcutParams::make(std::max<std::uint64_t>(2, g.num_vertices()),
                                    std::max(1u, diameter), opt.beta);
  out.diameter_estimate = 2 * s1.ecc;
  out.rounds.global_bfs = s1.rounds;
  out.messages += s1.messages;

  const double ln_n = ln_clamped(g.num_vertices());

  // --- stage 2: per-part truncated leader BFS (parallel, disjoint) ---------
  const std::uint32_t detect_depth =
      static_cast<std::uint32_t>(out.params.large_threshold);
  std::vector<BfsInstanceSpec> detect;
  detect.reserve(parts.parts.size());
  PartMarks marks(g.num_vertices());
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    BfsInstanceSpec spec;
    spec.root = parts.leader(i);
    spec.edges = induced_part_edges(g, parts.parts[i], marks);
    spec.depth_cap = detect_depth;
    detect.push_back(std::move(spec));
  }
  {
    MultiBfsProgram prog(g, std::move(detect));
    Simulator sim(g, 1);
    const congest::RunStats st = sim.run(prog, 4 * g.num_vertices() + 16);
    LCS_CHECK(st.completed, "part-detection BFS did not quiesce");
    out.messages += st.messages;
    out.is_large.resize(parts.parts.size());
    for (std::size_t i = 0; i < parts.parts.size(); ++i) {
      bool spans = true;
      for (const VertexId v : parts.parts[i])
        spans = spans && prog.dist_of(i, v) != graph::kUnreached;
      out.is_large[i] = !spans;
    }
    // Spanning verification = one convergecast over each truncated tree,
    // bounded by the truncation depth (charged, not simulated).
    out.rounds.part_detection = st.rounds + detect_depth;
  }

  // --- stage 3: numbering of large parts on the global tree ----------------
  std::vector<std::uint32_t> large_index(parts.parts.size(), graph::kUnreached);
  {
    std::vector<bool> flagged(g.num_vertices(), false);
    for (std::size_t i = 0; i < parts.parts.size(); ++i)
      if (out.is_large[i]) flagged[parts.leader(i)] = true;
    congest::PrefixAssignProgram prog(s1.tree, flagged);
    Simulator sim(g, 1);
    const congest::RunStats st = sim.run(prog, 8 * g.num_vertices() + 16);
    LCS_CHECK(st.completed, "numbering did not quiesce");
    out.messages += st.messages;
    out.rounds.numbering = st.rounds;
    for (std::size_t i = 0; i < parts.parts.size(); ++i)
      if (out.is_large[i]) {
        large_index[i] = prog.rank(parts.leader(i));
        ++out.num_large;
      }
    LCS_CHECK(prog.total() == out.num_large, "numbering disagrees with flag count");
  }
  // Shared randomness broadcast: O(D + log n) rounds, as in [Gha15].
  out.rounds.sr_broadcast =
      s1.ecc + static_cast<std::uint32_t>(std::ceil(std::log2(std::max(2u, g.num_vertices()))));

  // --- stage 4: local sampling (coins; zero rounds) -------------------------
  out.shortcuts.h.resize(parts.parts.size());
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    if (!out.is_large[i]) continue;
    out.shortcuts.h[i] = kp_edges_for_part(g, parts, i, out.params, large_index[i],
                                           opt.seed, out.params.repetitions, marks);
  }

  // --- stage 5: scheduled parallel BFS over the augmented subgraphs --------
  out.depth_cap = std::max<std::uint32_t>(
      detect_depth + 1,
      static_cast<std::uint32_t>(opt.depth_cap_factor * out.params.k_d * ln_n));
  std::vector<BfsInstanceSpec> grow;
  std::vector<std::size_t> grow_part;  // instance -> part
  // Delay range: the actual per-edge instance congestion (every node can
  // compute its local load; the scheduler needs delays ~ the max).
  std::vector<std::uint32_t> edge_instances(g.num_edges(), 0);
  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    if (!out.is_large[i]) continue;
    BfsInstanceSpec spec;
    spec.root = parts.leader(i);
    spec.edges = augmented_edges(g, parts.parts[i], out.shortcuts.h[i], marks);
    for (const graph::EdgeId e : spec.edges) ++edge_instances[e];
    spec.depth_cap = out.depth_cap;
    grow.push_back(std::move(spec));
    grow_part.push_back(i);
  }
  out.delay_range = 1;
  for (const std::uint32_t c : edge_instances) out.delay_range = std::max(out.delay_range, c);

  if (!grow.empty()) {
    Rng delays(hash64(opt.seed ^ 0xd15c0ULL));
    for (auto& spec : grow)
      spec.start_round = static_cast<std::uint32_t>(delays.uniform(out.delay_range));
    const std::uint32_t round_cap = std::max<std::uint32_t>(
        out.delay_range + 2 * out.depth_cap + 8,
        static_cast<std::uint32_t>(opt.round_cap_factor * out.params.k_d * ln_n * ln_n));
    MultiBfsProgram prog(g, std::move(grow));
    Simulator sim(g, 1);
    const congest::RunStats st = sim.run(prog, round_cap);
    out.messages += st.messages;
    out.rounds.multi_bfs = st.rounds;
    // Spanning verification: one convergecast per truncated BFS tree, all
    // scheduled together — the trees are the ones just built, so the charge
    // is the max observed tree depth (bounded by depth_cap) plus the same
    // congestion-driven delay the growth stage paid.
    std::uint32_t max_tree_depth = 0;
    for (std::size_t k = 0; k < grow_part.size(); ++k)
      max_tree_depth = std::max(max_tree_depth, prog.max_depth(k));
    out.rounds.verification = max_tree_depth + out.delay_range;

    out.success = st.completed;
    for (std::size_t k = 0; k < grow_part.size(); ++k) {
      const auto& part = parts.parts[grow_part[k]];
      for (const VertexId v : part)
        if (prog.dist_of(k, v) == graph::kUnreached) out.success = false;
    }
  } else {
    out.success = true;  // no large parts: nothing to do
  }
  return out;
}

}  // namespace

DistributedOutcome build_distributed(const Graph& g, const Partition& parts,
                                     const DistributedOptions& opt) {
  LCS_REQUIRE(g.num_vertices() >= 2, "need at least two vertices");
  const std::string err = validate_partition(g, parts);
  LCS_REQUIRE(err.empty(), "invalid partition: " + err);
  const Stage1 s1 = run_global_bfs(g);
  const unsigned diameter =
      opt.diameter.has_value() ? *opt.diameter : std::max(1u, 2 * s1.ecc);
  return attempt(g, parts, opt, diameter, s1);
}

DistributedOutcome build_distributed_guessing(const Graph& g, const Partition& parts,
                                              DistributedOptions opt) {
  LCS_REQUIRE(g.num_vertices() >= 2, "need at least two vertices");
  const std::string err = validate_partition(g, parts);
  LCS_REQUIRE(err.empty(), "invalid partition: " + err);
  const Stage1 s1 = run_global_bfs(g);
  const unsigned lo = std::max(3u, s1.ecc);
  const unsigned hi = std::max(lo, 2 * s1.ecc);

  DistributedOutcome best;
  std::uint32_t accumulated_rounds = 0;
  std::uint64_t accumulated_messages = 0;
  unsigned attempts = 0;
  for (unsigned guess = lo; guess <= hi; ++guess) {
    ++attempts;
    DistributedOutcome cur = attempt(g, parts, opt, guess, s1);
    // Stage 1 is shared across attempts; count it only once.
    if (attempts > 1) cur.rounds.global_bfs = 0;
    accumulated_rounds += cur.rounds.total();
    accumulated_messages += cur.messages;
    if (cur.success || guess == hi) {
      cur.rounds.multi_bfs +=
          accumulated_rounds - cur.rounds.total();  // fold earlier attempts in
      cur.messages = accumulated_messages;
      cur.attempts = attempts;
      return cur;
    }
    best = std::move(cur);
  }
  return best;  // unreachable
}

}  // namespace lcs::core
