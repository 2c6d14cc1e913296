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

/// Fragments of the current Borůvka forest, flat and numbered by first
/// vertex, and each vertex's fragment.  Members come out ascending, so a
/// fragment's leader (its maximum id) is its last member.  One pass over
/// the vertices finds and counts the fragments; a second places them.
void fill_fragments(const Graph& g, graph::UnionFind& uf, graph::FlatPartition& frags,
                    std::vector<std::uint32_t>& frag_of, std::vector<std::uint32_t>& root_to_part) {
  constexpr std::uint32_t kNoPart = static_cast<std::uint32_t>(-1);
  const std::uint32_t n = g.num_vertices();
  root_to_part.assign(n, kNoPart);
  frag_of.resize(n);
  frags.offsets.assign(1, 0);
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t& part = root_to_part[uf.find(v)];
    if (part == kNoPart) {
      part = static_cast<std::uint32_t>(frags.offsets.size() - 1);
      frags.offsets.push_back(0);
    }
    frag_of[v] = part;
    ++frags.offsets[part + 1];
  }
  for (std::size_t i = 1; i < frags.offsets.size(); ++i) frags.offsets[i] += frags.offsets[i - 1];
  // Each cursor ends at the next fragment's start and is shifted back.
  frags.members.resize(n);
  for (VertexId v = 0; v < n; ++v) frags.members[frags.offsets[frag_of[v]]++] = v;
  std::copy_backward(frags.offsets.begin(), frags.offsets.end() - 1, frags.offsets.end());
  frags.offsets[0] = 0;
}

core::ShortcutSet shortcuts_for(const Graph& g, const graph::FlatPartition& frags,
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

struct BoruvkaScratch::State {
  explicit State(const Graph& graph)
      : g(&graph),
        sim(graph, 1),
        prog(graph),
        up(graph, [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); }),
        down(graph) {}

  const Graph* g;
  // One simulator serves every simulated run: a completed run leaves no
  // message in flight, and every run's stats are its own.
  congest::Simulator sim;
  graph::FlatPartition frags;
  std::vector<std::uint32_t> frag_of;
  std::vector<std::uint32_t> root_to_part;
  // Edges packed as (weight, id) in one word, so that the min of packed
  // words is the lightest edge (ties to the smaller id).  Per fragment: its
  // MWOE; per vertex: its lightest edge leaving its fragment (kIdentity
  // when there is none).
  std::vector<std::uint64_t> mwoe;
  std::vector<std::uint64_t> best_out;
  // Per fragment i: the edges of G[S_i], ascending, at
  // induced[induced_off[i] .. induced_off[i + 1]).
  std::vector<std::uint32_t> induced_off;
  std::vector<EdgeId> induced;
  // G[S_i] ∪ H_i of the fragments where neither list is the union by
  // itself, at merged[merged_off[i] .. merged_off[i + 1]).
  std::vector<EdgeId> merged;
  std::vector<std::size_t> merged_off;
  std::vector<std::uint32_t> edge_load;
  std::vector<congest::BfsInstanceView> instances;
  // The three programs of a phase and the trees the last two share.
  congest::MultiBfsProgram prog;
  congest::TreeLayout trees;
  congest::MultiConvergecastProgram up;
  congest::MultiBroadcastProgram down;
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> decisions;
};

BoruvkaScratch::BoruvkaScratch(const Graph& g) : state_(std::make_unique<State>(g)) {}
BoruvkaScratch::~BoruvkaScratch() = default;
const Graph& BoruvkaScratch::graph() const { return *state_->g; }

BoruvkaResult boruvka_mst(const Graph& g, WeightSpan w, const BoruvkaOptions& opt) {
  BoruvkaScratch scratch(g);
  return boruvka_mst(g, w, opt, scratch);
}

BoruvkaResult boruvka_mst(const Graph& g, WeightSpan w, const BoruvkaOptions& opt,
                          BoruvkaScratch& scratch) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weights do not match graph");
  LCS_REQUIRE(graph::is_connected(g), "boruvka_mst requires a connected graph");
  LCS_REQUIRE(&scratch.graph() == &g, "the scratch was built for another graph");

  BoruvkaResult out;
  const std::uint32_t n = g.num_vertices();
  graph::UnionFind uf(n);
  // KP's D, resolved once as KP itself would (the double sweep) rather
  // than once per phase: the graph does not change between phases.
  BoruvkaOptions kp_opt = opt;
  if (opt.scheme == ShortcutScheme::kKoganParter && !opt.diameter.has_value())
    kp_opt.diameter = std::max(1u, graph::diameter_double_sweep(g));
  const std::uint64_t per_phase_construction = construction_charge(g, kp_opt);
  Rng delay_rng(hash64(opt.seed ^ 0xdead5eedULL));

  // Phase state, refilled by every phase.
  BoruvkaScratch::State& state = *scratch.state_;
  constexpr std::uint64_t kIdentity = static_cast<std::uint64_t>(-1);
  congest::Simulator& sim = state.sim;
  graph::FlatPartition& frags = state.frags;
  std::vector<std::uint32_t>& frag_of = state.frag_of;
  std::vector<std::uint64_t>& mwoe = state.mwoe;
  std::vector<std::uint64_t>& best_out = state.best_out;
  std::vector<std::uint32_t>& induced_off = state.induced_off;
  std::vector<EdgeId>& induced = state.induced;
  std::vector<EdgeId>& merged = state.merged;
  std::vector<std::size_t>& merged_off = state.merged_off;
  std::vector<std::uint32_t>& edge_load = state.edge_load;
  std::vector<congest::BfsInstanceView>& instances = state.instances;
  congest::MultiBfsProgram& prog = state.prog;
  congest::TreeLayout& trees = state.trees;
  congest::MultiConvergecastProgram& up = state.up;
  congest::MultiBroadcastProgram& down = state.down;
  std::vector<std::uint64_t>& values = state.values;
  std::vector<std::uint64_t>& decisions = state.decisions;

  auto pack = [&](EdgeId e) {
    LCS_CHECK(e < (1u << 24), "edge id exceeds packing width");
    const std::uint64_t wgt = static_cast<std::uint64_t>(w[e]);
    LCS_CHECK(wgt < (1ULL << 39), "weight exceeds packing width");
    return (wgt << 24) | e;
  };

  for (std::uint32_t phase = 0; phase < opt.max_phases; ++phase) {
    if (uf.num_sets() == 1) break;
    fill_fragments(g, uf, frags, frag_of, state.root_to_part);
    const std::size_t nf = frags.num_parts();

    // --- MWOE per fragment (computed centrally; communicated via the
    // convergecast charged below), each vertex's best outgoing edge and
    // each fragment's induced edges, in one pass over the edges --------
    mwoe.assign(nf, kIdentity);
    best_out.assign(n, kIdentity);
    induced_off.assign(nf + 1, 0);
    // (weight, id) is a total order, so each fragment's minimum is unique.
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      const std::uint32_t fu = frag_of[ed.u];
      const std::uint32_t fv = frag_of[ed.v];
      if (fu == fv) {
        ++induced_off[fu + 1];
        continue;
      }
      const std::uint64_t packed = pack(e);
      mwoe[fu] = std::min(mwoe[fu], packed);
      mwoe[fv] = std::min(mwoe[fv], packed);
      best_out[ed.u] = std::min(best_out[ed.u], packed);
      best_out[ed.v] = std::min(best_out[ed.v], packed);
    }
    bool any = false;
    for (const std::uint64_t e : mwoe) any = any || e != kIdentity;
    if (!any) break;  // disconnected (excluded by precondition) or done

    for (std::size_t i = 0; i < nf; ++i) induced_off[i + 1] += induced_off[i];
    induced.resize(induced_off[nf]);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      if (frag_of[ed.u] == frag_of[ed.v]) induced[induced_off[frag_of[ed.u]]++] = e;
    }
    std::copy_backward(induced_off.begin(), induced_off.end() - 1, induced_off.end());
    induced_off[0] = 0;

    // --- measured scheduled BFS over the augmented fragments ------------
    // Instance i runs over G[S_i] ∪ H_i, as augmented_edges forms it, but
    // copies nothing when one list is the union: G[S_i] when H_i is
    // empty, H_i itself when it is all of E.
    const core::ShortcutSet sc = shortcuts_for(g, frags, kp_opt, phase);
    instances.resize(nf);
    merged.clear();
    merged_off.assign(1, 0);
    for (std::size_t i = 0; i < nf; ++i) {
      const std::vector<EdgeId>& h = sc.h[i];
      const std::span<const EdgeId> part_edges(induced.data() + induced_off[i],
                                               induced.data() + induced_off[i + 1]);
      instances[i].root = frags.part(i).back();
      if (h.empty()) {
        instances[i].edges = part_edges;
      } else if (core::is_all_edges(g, h)) {
        instances[i].edges = h;
      } else {
        const auto first = static_cast<std::ptrdiff_t>(merged.size());
        merged.insert(merged.end(), part_edges.begin(), part_edges.end());
        merged.insert(merged.end(), h.begin(), h.end());
        std::sort(merged.begin() + first, merged.end());
        merged.erase(std::unique(merged.begin() + first, merged.end()), merged.end());
      }
      merged_off.push_back(merged.size());
    }
    edge_load.assign(g.num_edges(), 0);
    std::uint32_t all_of_e = 0;  // instances over every edge: they load each by one
    for (std::size_t i = 0; i < nf; ++i) {
      if (merged_off[i + 1] > merged_off[i])
        instances[i].edges = {merged.data() + merged_off[i], merged.data() + merged_off[i + 1]};
      if (instances[i].edges.size() == g.num_edges()) {
        ++all_of_e;
        continue;
      }
      for (const EdgeId e : instances[i].edges) ++edge_load[e];
    }
    std::uint32_t delay_range = 1;
    for (const std::uint32_t c : edge_load) delay_range = std::max(delay_range, c + all_of_e);
    for (congest::BfsInstanceView& inst : instances)
      inst.start_round = static_cast<std::uint32_t>(delay_rng.uniform(delay_range));

    prog.reset(instances);
    const congest::RunStats bfs_st = sim.run(prog, 8 * n + 4 * delay_range + 64);
    LCS_CHECK(bfs_st.completed, "phase BFS did not quiesce");

    // --- simulated MWOE convergecast + decision broadcast ----------------
    // Per-member value: its best *outgoing* edge, packed; relay vertices
    // (tree members outside the fragment) contribute the identity.  The
    // min over the tree must equal the centrally computed MWOE — a
    // structural cross-check on the whole pipeline.
    trees.assign(prog);
    values.resize(trees.begin(nf));
    for (std::size_t i = 0; i < nf; ++i) {
      for (std::size_t x = trees.begin(i); x < trees.begin(i + 1); ++x) {
        const VertexId v = trees.vertex(x);
        values[x] = frag_of[v] == i ? best_out[v] : kIdentity;
      }
    }
    up.reset(trees, values);
    const congest::RunStats up_st =
        up.idle() ? congest::RunStats{0, 0, 0, true} : sim.run(up, 8 * n + 64);
    LCS_CHECK(up_st.completed, "phase convergecast did not quiesce");
    decisions.resize(nf);
    for (std::size_t i = 0; i < nf; ++i) {
      LCS_CHECK(up.complete(i), "convergecast did not reach the root");
      decisions[i] = up.result(i);
      LCS_CHECK(decisions[i] == mwoe[i], "distributed MWOE disagrees with oracle");
    }
    down.reset(trees, decisions);
    const congest::RunStats down_st =
        down.idle() ? congest::RunStats{0, 0, 0, true} : sim.run(down, 8 * n + 64);
    LCS_CHECK(down_st.completed, "phase broadcast did not quiesce");

    PhaseStats ps;
    ps.fragments = static_cast<std::uint32_t>(nf);
    ps.bfs_rounds = bfs_st.rounds;
    ps.up_rounds = up_st.rounds;
    ps.down_rounds = down_st.rounds;
    ps.rounds_charged = bfs_st.rounds + up_st.rounds + down_st.rounds + 1;
    ps.messages = bfs_st.messages + up_st.messages + down_st.messages;
    out.aggregation_rounds += ps.rounds_charged;
    out.construction_rounds += per_phase_construction;
    out.messages += ps.messages;
    out.phase_stats.push_back(ps);

    // --- merge along MWOEs ----------------------------------------------
    for (const std::uint64_t packed : mwoe) {
      if (packed == kIdentity) continue;
      const EdgeId e = static_cast<EdgeId>(packed & 0xffffff);
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
