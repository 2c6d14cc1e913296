#include "mincut/mincut.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/union_find.hpp"
#include "mincut/karger.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace lcs::mincut {

Weight cut_value(const Graph& g, WeightSpan w, const std::vector<VertexId>& side) {
  LCS_REQUIRE(w.size() == g.num_edges(), "weights do not match graph");
  std::vector<bool> in_side(g.num_vertices(), false);
  for (const VertexId v : side) {
    LCS_REQUIRE(v < g.num_vertices(), "vertex out of range");
    in_side[v] = true;
  }
  Weight total = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (in_side[ed.u] != in_side[ed.v]) total += w[e];
  }
  return total;
}

namespace {

/// Indexed binary max-heap over supernode ids for one maximum-adjacency sweep, ordered by
/// (key desc, id asc): the top is the first supernode with the strictly largest key, as a scan
/// in id order picks.  A key survives its pop, so the last popped key is the phase cut.
class AdjacencyHeap {
 public:
  explicit AdjacencyHeap(std::uint32_t n) : key_(n, 0), pos_(n, kAbsent) { heap_.reserve(n); }

  /// Refill with every live supernode at key 0.  Ascending ids with equal
  /// keys already satisfy the heap order.
  void reset(const std::vector<std::uint8_t>& gone) {
    heap_.clear();
    for (VertexId v = 0; v < gone.size(); ++v) {
      key_[v] = 0;
      if (gone[v]) continue;
      pos_[v] = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(v);
    }
  }

  bool empty() const { return heap_.empty(); }
  bool contains(VertexId v) const { return pos_[v] != kAbsent; }
  Weight key(VertexId v) const { return key_[v]; }

  void increase(VertexId v, Weight delta) {
    key_[v] += delta;
    sift_up(pos_[v]);
  }

  VertexId pop() {
    const VertexId top = heap_.front();
    pos_[top] = kAbsent;
    const VertexId tail = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = tail;
      pos_[tail] = 0;
      sift_down(0);
    }
    return top;
  }

 private:
  static constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

  bool before(VertexId a, VertexId b) const {
    return key_[a] > key_[b] || (key_[a] == key_[b] && a < b);
  }
  void place(std::uint32_t i, VertexId v) {
    heap_[i] = v;
    pos_[v] = i;
  }
  void sift_up(std::uint32_t i) {
    const VertexId v = heap_[i];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(v, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, v);
  }
  void sift_down(std::uint32_t i) {
    const VertexId v = heap_[i];
    const auto size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], v)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, v);
  }

  std::vector<Weight> key_;
  std::vector<std::uint32_t> pos_;  ///< heap index, kAbsent once popped or gone
  std::vector<VertexId> heap_;
};

}  // namespace

CutResult stoer_wagner(const Graph& g, WeightSpan w) {
  const std::uint32_t n = g.num_vertices();
  LCS_REQUIRE(n >= 2, "min cut needs at least two vertices");
  LCS_REQUIRE(graph::is_connected(g), "min cut of a disconnected graph is zero");
  for (const Weight x : w) LCS_REQUIRE(x > 0, "weights must be positive");

  // Supernode s owns the original vertices merged[s]; rep maps each
  // original vertex to its supernode.  A sweep step scans the CSR
  // half-edges of the selected supernode's members and raises the keys of
  // the supernodes they reach, so a phase costs O(m log n) and the whole
  // cut O(n m log n) — no contracted adjacency is ever materialised.
  std::vector<std::vector<VertexId>> merged(n);
  std::vector<VertexId> rep(n);
  for (VertexId v = 0; v < n; ++v) {
    merged[v] = {v};
    rep[v] = v;
  }
  std::vector<std::uint8_t> gone(n, 0);
  AdjacencyHeap heap(n);

  CutResult best;
  best.value = std::numeric_limits<Weight>::max();
  for (std::uint32_t phase = 0; phase + 1 < n; ++phase) {
    // Maximum adjacency (minimum cut phase) sweep.
    heap.reset(gone);
    VertexId prev = graph::kNoVertex;
    VertexId last = graph::kNoVertex;
    while (!heap.empty()) {
      const VertexId sel = heap.pop();
      prev = last;
      last = sel;
      for (const VertexId u : merged[sel]) {
        for (const graph::HalfEdge he : g.neighbors(u)) {
          const VertexId t = rep[he.to];
          if (heap.contains(t)) heap.increase(t, w[he.edge]);
        }
      }
    }
    LCS_CHECK(last != graph::kNoVertex, "sweep ran out of vertices");
    // Cut-of-the-phase: `last` versus the rest.
    const Weight phase_cut = heap.key(last);
    if (phase_cut < best.value) {
      best.value = phase_cut;
      best.side = merged[last];
    }
    // Merge `last` into `prev`.
    LCS_CHECK(prev != graph::kNoVertex, "phase needs two vertices");
    gone[last] = 1;
    for (const VertexId v : merged[last]) rep[v] = prev;
    merged[prev].insert(merged[prev].end(), merged[last].begin(), merged[last].end());
    merged[last].clear();
  }
  if (best.side.size() > g.num_vertices() / 2) {
    // Report the smaller side for readability.
    std::vector<bool> in_side(n, false);
    for (const VertexId v : best.side) in_side[v] = true;
    std::vector<VertexId> other;
    for (VertexId v = 0; v < n; ++v)
      if (!in_side[v]) other.push_back(v);
    best.side = std::move(other);
  }
  std::sort(best.side.begin(), best.side.end());
  return best;
}

namespace {

/// One Karger trial: contract edges in exponential-clock order until two
/// supernodes remain.  Marks vertex 0's side in s.in_side, returns its cut.
Weight contract_once(const Graph& g, WeightSpan w, const Rng& rng, detail::KargerScratch& s) {
  // Exponential-clock keys give weighted sampling without replacement.  The
  // key of edge e is -log(u)/w[e] with u the first uniform_real_positive() of
  // rng.split(e) — a counter-based per-edge stream, drawn here from the
  // split's two halves without building it — so a trial's contraction order
  // depends only on its own stream, never on which trials ran before it.
  // The non-zero draw keeps -log(u) finite without a clamp that could give
  // two edges identical keys.
  const std::uint64_t split_key = rng.split_key();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double u = Rng::first_uniform_real_positive(Rng::split_seed(split_key, s.id_hash[e]));
    s.key[e] = -std::log(u) / static_cast<double>(w[e]);
  }
  // Ties in the key break on the edge id, so the order is a total one.
  // Positive weights make every key positive and finite (key_order's input).
  detail::key_order(s.key, s.items, s.spare, s.order);
  const std::span<const graph::Edge> edges = g.edges();
  s.reset_forest();
  for (const EdgeId e : s.order) {
    if (s.num_sets() == 2) break;
    s.unite(edges[e].u, edges[e].v);
  }
  const VertexId root0 = s.find(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) s.in_side[v] = s.find(v) == root0;
  // cut_value of that side; the caller has checked the weights already.
  Weight cut = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (s.in_side[edges[e].u] != s.in_side[edges[e].v]) cut += w[e];
  return cut;
}

}  // namespace

CutResult karger_mincut(const Graph& g, WeightSpan w, std::uint32_t trials,
                        Rng& rng) {
  LCS_REQUIRE(g.num_vertices() >= 2, "min cut needs at least two vertices");
  LCS_REQUIRE(trials >= 1, "need at least one trial");
  LCS_REQUIRE(w.size() == g.num_edges(), "weights do not match graph");
  for (const Weight x : w) LCS_REQUIRE(x > 0, "weights must be positive");
  // One state-advancing draw seeds a counter-based trial family: trial t
  // contracts with base.split(t), so every trial's randomness is a pure
  // function of (that draw, t), while successive calls on the same generator
  // still see fresh randomness.  Every trial reuses one scratch.
  const Rng base(rng());
  detail::KargerScratch scratch(g);
  CutResult best;
  for (std::uint32_t t = 0; t < trials; ++t) {
    const Weight cut = contract_once(g, w, base.split(t), scratch);
    // Strict '<': the earliest best trial wins (query digests depend on it).
    if (t == 0 || cut < best.value) best = {cut, scratch.side()};
  }
  return best;
}

namespace {

/// Minimum spanning tree keyed by per-edge load (greedy packing step).
std::vector<EdgeId> load_mst(const Graph& g, const std::vector<double>& load) {
  std::vector<EdgeId> order(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) order[e] = e;
  std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return std::make_pair(load[a], a) < std::make_pair(load[b], b);
  });
  graph::UnionFind uf(g.num_vertices());
  std::vector<EdgeId> tree;
  for (const EdgeId e : order) {
    const graph::Edge ed = g.edge(e);
    if (uf.unite(ed.u, ed.v)) tree.push_back(e);
  }
  return tree;
}

struct RootedForest {
  std::vector<VertexId> parent;
  std::vector<std::uint32_t> depth;
  std::vector<VertexId> bfs_order;  // root first
};

RootedForest root_tree(const Graph& g, const std::vector<EdgeId>& tree_edges) {
  // Adjacency restricted to the tree.
  std::vector<std::vector<VertexId>> adj(g.num_vertices());
  for (const EdgeId e : tree_edges) {
    const graph::Edge ed = g.edge(e);
    adj[ed.u].push_back(ed.v);
    adj[ed.v].push_back(ed.u);
  }
  RootedForest f;
  f.parent.assign(g.num_vertices(), graph::kNoVertex);
  f.depth.assign(g.num_vertices(), 0);
  std::vector<bool> seen(g.num_vertices(), false);
  seen[0] = true;
  f.bfs_order.push_back(0);
  for (std::size_t head = 0; head < f.bfs_order.size(); ++head) {
    const VertexId u = f.bfs_order[head];
    for (const VertexId v : adj[u]) {
      if (seen[v]) continue;
      seen[v] = true;
      f.parent[v] = u;
      f.depth[v] = f.depth[u] + 1;
      f.bfs_order.push_back(v);
    }
  }
  return f;
}

VertexId lca_walk(const RootedForest& f, VertexId a, VertexId b) {
  while (a != b) {
    if (f.depth[a] < f.depth[b]) std::swap(a, b);
    a = f.parent[a];
  }
  return a;
}

}  // namespace

TreePackingResult tree_packing_mincut(const Graph& g, WeightSpan w,
                                      std::uint32_t num_trees) {
  const std::uint32_t n = g.num_vertices();
  LCS_REQUIRE(n >= 2, "min cut needs at least two vertices");
  LCS_REQUIRE(graph::is_connected(g), "tree packing requires a connected graph");
  if (num_trees == 0)
    num_trees = static_cast<std::uint32_t>(std::ceil(3.0 * ln_clamped(n)));

  TreePackingResult out;
  out.num_trees = num_trees;
  out.cut.value = std::numeric_limits<Weight>::max();

  std::vector<double> load(g.num_edges(), 0.0);
  std::vector<Weight> wdeg(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    wdeg[ed.u] += w[e];
    wdeg[ed.v] += w[e];
  }

  for (std::uint32_t t = 0; t < num_trees; ++t) {
    const std::vector<EdgeId> tree = load_mst(g, load);
    LCS_CHECK(tree.size() + 1 == n, "packing tree is not spanning");
    for (const EdgeId e : tree) load[e] += 1.0 / static_cast<double>(w[e]);

    const RootedForest f = root_tree(g, tree);
    // crossing(subtree(v)) = sum_{x in sub} wdeg(x) - 2 * sum_{x in sub} P(x),
    // with P(x) = total weight of edges whose tree-LCA is x.
    std::vector<Weight> val(n);
    for (VertexId v = 0; v < n; ++v) val[v] = wdeg[v];
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge ed = g.edge(e);
      val[lca_walk(f, ed.u, ed.v)] -= 2 * w[e];
    }
    // Accumulate bottom-up (reverse BFS order).
    std::vector<Weight> sub = val;
    for (auto it = f.bfs_order.rbegin(); it != f.bfs_order.rend(); ++it) {
      const VertexId v = *it;
      if (f.parent[v] != graph::kNoVertex) sub[f.parent[v]] += sub[v];
    }
    for (VertexId v = 1; v < n; ++v) {  // every non-root subtree = 1-respecting cut
      if (sub[v] < out.cut.value) {
        out.cut.value = sub[v];
        out.best_tree = t;
        // Collect the subtree of v.
        out.cut.side.clear();
        std::vector<VertexId> stack{v};
        std::vector<std::vector<VertexId>> kids(n);
        for (VertexId x = 0; x < n; ++x)
          if (f.parent[x] != graph::kNoVertex) kids[f.parent[x]].push_back(x);
        while (!stack.empty()) {
          const VertexId x = stack.back();
          stack.pop_back();
          out.cut.side.push_back(x);
          for (const VertexId c : kids[x]) stack.push_back(c);
        }
      }
    }
  }
  std::sort(out.cut.side.begin(), out.cut.side.end());
  if (out.cut.side.size() > n / 2) {
    std::vector<bool> in_side(n, false);
    for (const VertexId v : out.cut.side) in_side[v] = true;
    std::vector<VertexId> other;
    for (VertexId v = 0; v < n; ++v)
      if (!in_side[v]) other.push_back(v);
    out.cut.side = std::move(other);
  }
  return out;
}

// The sample probability, split from the thinning so a caller can key the
// sample by content and memoize lambda_hat (`estimate`, pure in (g, w)).
// LCS_REQUIRE texts carry file:line and enter query digests, so these three
// checks keep their order and their lines (379, 380, 385): a bad query then
// reports the same text whichever path computed it.  `estimate` runs only
// after the eps and connectivity checks pass, and its own packing errors
// come before the positivity check.
double sparsify_sample_prob(const Graph& g, double eps,
                            const std::function<Weight()>& estimate) {
  LCS_REQUIRE(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
  LCS_REQUIRE(graph::is_connected(g), "min cut of a disconnected graph is zero");
  const std::uint32_t n = g.num_vertices();

  // Cheap 2-approximate lambda from a small tree packing.
  const Weight lambda_hat = estimate();
  LCS_REQUIRE(lambda_hat > 0, "lambda estimate must be positive");
  const double c = 3.0;
  return std::min(1.0, c * ln_clamped(n) / (eps * eps * static_cast<double>(lambda_hat)));
}

Weight sparsify_lambda_hat(const Graph& g, WeightSpan w) {
  return tree_packing_mincut(g, w, 3).cut.value;
}

SparsifiedSample sparsify_edges_at(const Graph& g, WeightSpan w, double sample_prob,
                                   std::uint64_t seed) {
  SparsifiedSample out;
  out.sample_prob = sample_prob;
  // Skeleton sample: binomial thinning of each edge's capacity (w[e] unit
  // trials at probability p); multigraph multiplicities become skeleton
  // weights.  The seed keys a counter-based per-edge family (the same
  // keying as Karger's trials): edge e thins all its units with a single
  // O(1) binomial draw on base.split(e), so the kept sample is a pure
  // function of (g, w, p, seed), shareable across callers.
  if (sample_prob >= 1.0) {
    out.units.assign(w.begin(), w.end());
  } else {
    out.units.assign(g.num_edges(), 0);
    const Rng base(seed);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      Rng stream = base.split(e);
      out.units[e] =
          static_cast<Weight>(stream.binomial(static_cast<std::uint64_t>(w[e]), sample_prob));
    }
  }
  return out;
}

SparsifiedSample sparsify_edges(const Graph& g, WeightSpan w, double eps,
                                std::uint64_t seed) {
  const double p = sparsify_sample_prob(g, eps, [&] { return sparsify_lambda_hat(g, w); });
  return sparsify_edges_at(g, w, p, seed);
}

SparsifiedResult sparsified_mincut(const Graph& g, WeightSpan w, double eps,
                                   Rng& rng) {
  // rng advances once, only when p < 1: a p >= 1 or throwing call consumes
  // no state (the draw semantics that predate the split).
  const double p = sparsify_sample_prob(g, eps, [&] { return sparsify_lambda_hat(g, w); });
  return sparsified_mincut_on_sample(g, w, sparsify_edges_at(g, w, p, p < 1.0 ? rng() : 0));
}

SparsifiedResult sparsified_mincut_on_sample(const Graph& g, WeightSpan w,
                                             const SparsifiedSample& sample) {
  LCS_REQUIRE(sample.units.size() == g.num_edges(),
              "sample does not match the graph's edge count");
  const std::uint32_t n = g.num_vertices();
  const std::vector<Weight>& units = sample.units;
  SparsifiedResult out;
  out.sample_prob = sample.sample_prob;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> kept_edges;
  std::vector<Weight> kept_weight;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (units[e] > 0) {
      kept_edges.emplace_back(g.edge(e).u, g.edge(e).v);
      kept_weight.push_back(units[e]);
    }
  }
  const Graph skeleton = Graph::from_edges(n, kept_edges);
  // from_edges may merge nothing here (inputs are already unique edges),
  // but keep the mapping robust by re-accumulating weights by endpoints.
  EdgeWeights sw(skeleton.num_edges(), 0);
  for (std::size_t i = 0; i < kept_edges.size(); ++i) {
    // Find the skeleton edge id by scanning the (sorted) edge list via
    // binary search on endpoints.
    const auto [a, b] = kept_edges[i];
    const graph::VertexId u = std::min(a, b);
    const graph::VertexId v = std::max(a, b);
    // Skeleton edges are sorted by (u, v): binary search.
    std::uint32_t lo = 0, hi = skeleton.num_edges();
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      const graph::Edge ed = skeleton.edge(mid);
      if (std::make_pair(ed.u, ed.v) < std::make_pair(u, v))
        lo = mid + 1;
      else
        hi = mid;
    }
    LCS_CHECK(lo < skeleton.num_edges(), "skeleton edge lookup failed");
    sw[lo] += kept_weight[i];
  }

  if (!graph::is_connected(skeleton)) {
    // Over-aggressive sampling disconnected the skeleton (possible at tiny
    // lambda); fall back to the full graph.
    out.cut = stoer_wagner(g, w);
    out.sample_prob = 1.0;
    out.skeleton_cut = out.cut.value;
    return out;
  }
  const CutResult sk_cut = stoer_wagner(skeleton, sw);
  out.skeleton_cut = sk_cut.value;
  // The *side* transfers to G; report its exact value there.
  out.cut.side = sk_cut.side;
  out.cut.value = cut_value(g, w, out.cut.side);
  return out;
}

}  // namespace lcs::mincut
