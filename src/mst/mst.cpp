#include "mst/mst.hpp"

#include <algorithm>
#include <cmath>

#include "congest/multibfs.hpp"
#include "congest/multitree.hpp"
#include "congest/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/union_find.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace lcs::mst {

MstResult kruskal(const Graph& g, WeightSpan w) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weights do not match graph");
  std::vector<EdgeId> order(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) order[e] = e;
  // (weight, id) keys are a total order, so the sorted sequence is unique.
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return std::make_pair(w[a], a) < std::make_pair(w[b], b);
  });
  graph::UnionFind uf(g.num_vertices());
  MstResult out;
  for (const EdgeId e : order) {
    const graph::Edge ed = g.edge(e);
    if (uf.unite(ed.u, ed.v)) {
      out.edges.push_back(e);
      out.weight += w[e];
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

namespace {

/// Fragments of the current Boruvka forest as a Partition.
graph::Partition fragments_of(const Graph& g, graph::UnionFind& uf) {
  std::vector<std::int32_t> root_to_part(g.num_vertices(), -1);
  graph::Partition p;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexId r = uf.find(v);
    if (root_to_part[r] == -1) {
      root_to_part[r] = static_cast<std::int32_t>(p.parts.size());
      p.parts.emplace_back();
    }
    p.parts[static_cast<std::size_t>(root_to_part[r])].push_back(v);
  }
  return p;
}

core::ShortcutSet shortcuts_for(const Graph& g, const graph::Partition& frags,
                                const BoruvkaOptions& opt, std::uint32_t phase) {
  switch (opt.scheme) {
    case ShortcutScheme::kKoganParter: {
      core::KpOptions ko;
      ko.beta = opt.beta;
      ko.seed = hash64(opt.seed ^ (0xb0f0ull + phase));
      ko.diameter = opt.diameter;
      return core::build_kp_shortcuts(g, frags, ko).shortcuts;
    }
    case ShortcutScheme::kGhaffariHaeupler:
      return core::build_gh_shortcuts(g, frags);
    case ShortcutScheme::kNone:
      return core::build_trivial_shortcuts(frags);
  }
  LCS_CHECK(false, "unknown scheme");
}

/// Charged per-phase construction cost of the scheme (rounds).
std::uint64_t construction_charge(const Graph& g, const BoruvkaOptions& opt) {
  const std::uint64_t n = std::max<std::uint64_t>(2, g.num_vertices());
  const double ln_n = ln_clamped(n);
  switch (opt.scheme) {
    case ShortcutScheme::kKoganParter: {
      const unsigned d =
          opt.diameter.value_or(std::max(1u, graph::diameter_double_sweep(g)));
      // Theorem 1.1: Õ(k_D) — charged as k_D * ln^2 n.
      return static_cast<std::uint64_t>(std::ceil(k_d_of(n, d) * ln_n * ln_n));
    }
    case ShortcutScheme::kGhaffariHaeupler:
      // O(sqrt(n) + D): identifying the >= sqrt(n)-size parts needs only
      // the part-internal BFS already charged in aggregation; take sqrt(n).
      return static_cast<std::uint64_t>(std::ceil(std::sqrt(static_cast<double>(n))));
    case ShortcutScheme::kNone:
      return 0;
  }
  LCS_CHECK(false, "unknown scheme");
}

}  // namespace

BoruvkaResult boruvka_mst(const Graph& g, WeightSpan w, const BoruvkaOptions& opt) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weights do not match graph");
  LCS_REQUIRE(graph::is_connected(g), "boruvka_mst requires a connected graph");

  BoruvkaResult out;
  graph::UnionFind uf(g.num_vertices());
  // KP's D, resolved once as KP itself would (the double sweep) rather
  // than once per phase: the graph does not change between phases.
  BoruvkaOptions kp_opt = opt;
  if (opt.scheme == ShortcutScheme::kKoganParter && !opt.diameter.has_value())
    kp_opt.diameter = std::max(1u, graph::diameter_double_sweep(g));
  const std::uint64_t per_phase_construction = construction_charge(g, kp_opt);
  Rng delay_rng(hash64(opt.seed ^ 0xdead5eedULL));
  // One simulator serves every simulated run of the call: a completed run
  // leaves no message in flight, and every run's stats are its own.
  congest::Simulator sim(g, 1);
  // Phase scratch, reused across phases.
  std::vector<EdgeId> mwoe;
  std::vector<std::uint32_t> edge_load;
  core::PartMarks marks(g.num_vertices());
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> decisions;

  for (std::uint32_t phase = 0; phase < opt.max_phases; ++phase) {
    if (uf.num_sets() == 1) break;
    graph::Partition frags = fragments_of(g, uf);
    const std::vector<std::int32_t> frag_of = frags.assignment(g.num_vertices());

    // --- MWOE per fragment (computed centrally; communicated via the
    // convergecast charged below) --------------------------------------
    const EdgeId kNone = graph::kNoEdge;
    const std::size_t nf = frags.parts.size();
    mwoe.assign(nf, kNone);
    auto better = [&](EdgeId a, EdgeId b) {
      if (b == kNone) return false;
      if (a == kNone) return true;
      return std::make_pair(w[b], b) < std::make_pair(w[a], a);
    };
    // (weight, id) is a total order, so each fragment's minimum is unique.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      const auto fu = static_cast<std::size_t>(frag_of[ed.u]);
      const auto fv = static_cast<std::size_t>(frag_of[ed.v]);
      if (fu == fv) continue;
      if (better(mwoe[fu], e)) mwoe[fu] = e;
      if (better(mwoe[fv], e)) mwoe[fv] = e;
    }
    bool any = false;
    for (const EdgeId e : mwoe) any = any || e != kNone;
    if (!any) break;  // disconnected (excluded by precondition) or done

    // --- measured scheduled BFS over the augmented fragments ------------
    const core::ShortcutSet sc = shortcuts_for(g, frags, kp_opt, phase);
    std::vector<congest::BfsInstanceSpec> specs(nf);
    edge_load.assign(g.num_edges(), 0);
    for (std::size_t i = 0; i < nf; ++i) {
      specs[i].root = frags.leader(i);
      specs[i].edges = core::augmented_edges(g, frags.parts[i], sc.h[i], marks);
      for (const EdgeId e : specs[i].edges) ++edge_load[e];
    }
    std::uint32_t delay_range = 1;
    for (const std::uint32_t c : edge_load) delay_range = std::max(delay_range, c);
    for (auto& spec : specs)
      spec.start_round = static_cast<std::uint32_t>(delay_rng.uniform(delay_range));

    congest::MultiBfsProgram prog(g, std::move(specs));
    const congest::RunStats st =
        sim.run(prog, 8 * g.num_vertices() + 4 * delay_range + 64);
    LCS_CHECK(st.completed, "phase BFS did not quiesce");

    // --- simulated MWOE convergecast + decision broadcast ----------------
    // Per-member value: its best *outgoing* edge packed as (weight, edge);
    // relay vertices (tree members outside the fragment) contribute the
    // identity.  The min over the tree must equal the centrally computed
    // MWOE — a structural cross-check on the whole pipeline.
    constexpr std::uint64_t kIdentity = static_cast<std::uint64_t>(-1);
    auto pack = [&](EdgeId e) {
      LCS_CHECK(e < (1u << 24), "edge id exceeds packing width");
      const std::uint64_t wgt = static_cast<std::uint64_t>(w[e]);
      LCS_CHECK(wgt < (1ULL << 39), "weight exceeds packing width");
      return (wgt << 24) | e;
    };
    const congest::TreeLayout trees(prog);
    values.resize(trees.begin(nf));
    for (std::size_t i = 0; i < nf; ++i) {
      for (std::size_t x = trees.begin(i); x < trees.begin(i + 1); ++x) {
        const VertexId v = trees.vertex(x);
        std::uint64_t best = kIdentity;
        if (frag_of[v] == static_cast<std::int32_t>(i)) {
          for (const graph::HalfEdge he : g.neighbors(v))
            if (frag_of[he.to] != static_cast<std::int32_t>(i))
              best = std::min(best, pack(he.edge));
        }
        values[x] = best;
      }
    }
    congest::MultiConvergecastProgram up(
        g, trees, values,
        [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
    const congest::RunStats up_st = up.idle()
                                        ? congest::RunStats{0, 0, 0, true}
                                        : sim.run(up, 8 * g.num_vertices() + 64);
    LCS_CHECK(up_st.completed, "phase convergecast did not quiesce");
    decisions.resize(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      LCS_CHECK(up.complete(i), "convergecast did not reach the root");
      decisions[i] = up.result(i);
      const EdgeId central = mwoe[i];
      const EdgeId distributed =
          decisions[i] == kIdentity ? kNone
                                    : static_cast<EdgeId>(decisions[i] & 0xffffff);
      LCS_CHECK(central == distributed, "distributed MWOE disagrees with oracle");
    }
    congest::MultiBroadcastProgram down(g, trees, decisions);
    const congest::RunStats down_st =
        down.idle() ? congest::RunStats{0, 0, 0, true}
                    : sim.run(down, 8 * g.num_vertices() + 64);
    LCS_CHECK(down_st.completed, "phase broadcast did not quiesce");

    PhaseStats ps;
    ps.fragments = static_cast<std::uint32_t>(frags.parts.size());
    ps.bfs_rounds = st.rounds;
    ps.up_rounds = up_st.rounds;
    ps.down_rounds = down_st.rounds;
    ps.rounds_charged = st.rounds + up_st.rounds + down_st.rounds + 1;
    ps.messages = st.messages + up_st.messages + down_st.messages;
    out.aggregation_rounds += ps.rounds_charged;
    out.construction_rounds += per_phase_construction;
    out.messages += ps.messages;
    out.phase_stats.push_back(ps);

    // --- merge along MWOEs ----------------------------------------------
    for (const EdgeId e : mwoe) {
      if (e == kNone) continue;
      const graph::Edge ed = g.edge(e);
      if (uf.unite(ed.u, ed.v)) {
        out.mst.edges.push_back(e);
        out.mst.weight += w[e];
      }
    }
    ++out.phases;
  }
  LCS_CHECK(uf.num_sets() == 1, "boruvka did not converge to one fragment");
  std::sort(out.mst.edges.begin(), out.mst.edges.end());
  return out;
}

}  // namespace lcs::mst
