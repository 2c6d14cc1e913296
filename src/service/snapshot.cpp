#include "service/snapshot.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lcs::service {

std::shared_ptr<const GraphSnapshot> GraphSnapshot::build(graph::Graph g) {
  return build(std::move(g), Options{});
}

std::shared_ptr<const GraphSnapshot> GraphSnapshot::build(graph::Graph g, const Options& opt) {
  auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  snap->g_ = std::move(g);
  const graph::Graph& gr = snap->g_;
  snap->opt_ = opt;

  Rng wrng(opt.weight_seed);
  snap->weights_store_ =
      graph::random_weights(gr, std::max<graph::Weight>(1, opt.max_weight), wrng);
  snap->weights_ = snap->weights_store_;

  snap->connected_ = gr.num_vertices() > 0 && graph::is_connected(gr);
  for (graph::VertexId v = 0; v < gr.num_vertices(); ++v)
    snap->max_degree_ = std::max(snap->max_degree_, gr.degree(v));

  snap->make_memos();

  // The bracket, once, before any query can ask for it (the exact path is
  // the sequential all-pairs referee; a disconnected G returns at once).
  snap->bracket_ = snap->compute_bracket();
  if (opt.prewarm_partition_pool) snap->warm_partition_pool();

  std::uint64_t h = hash64(0x5eedULL ^ gr.num_vertices());
  for (graph::EdgeId e = 0; e < gr.num_edges(); ++e) {
    const graph::Edge ed = gr.edge(e);
    h = hash64(h ^ (static_cast<std::uint64_t>(ed.u) << 32 | ed.v));
    h = hash64(h ^ static_cast<std::uint64_t>(snap->weights_[e]));
  }
  snap->fingerprint_ = h;
  return snap;
}

void GraphSnapshot::make_memos() {
  bfs_memo_ = std::make_unique<OnceMemo<graph::VertexId, graph::BfsResult>>(
      opt_.max_cached_bfs_trees);
  partition_memo_ = std::make_unique<OnceMemo<PartitionKey, graph::Partition, PartitionKeyHash>>(
      opt_.max_cached_partitions);
  sample_memo_ = std::make_unique<OnceMemo<SampleKey, mincut::SparsifiedSample, SampleKeyHash>>(
      opt_.max_cached_samples);
  cut_memo_ = std::make_unique<OnceMemo<SampleKey, mincut::SparsifiedResult, SampleKeyHash>>(
      opt_.max_cached_samples);
  lambda_memo_ = std::make_unique<OnceMemo<std::uint32_t, graph::Weight>>(0);
  ch_memo_ = std::make_unique<OnceMemo<std::uint32_t, sssp::ChIndex>>(0);
}

GraphSnapshot::DiameterBracket GraphSnapshot::compute_bracket() const {
  DiameterBracket b;
  if (!connected_) return b;
  if (g_.num_vertices() <= opt_.exact_diameter_max_vertices) {
    const std::uint32_t d = graph::diameter_exact(g_);
    b.lb = d;
    b.ub = d;
    b.exact = true;
  } else {
    // The same bracket the eager pre-PR-5 make() recorded: the restarted
    // double-sweep lower bound, and 2x the eccentricity of vertex 0 — the
    // latter read off the shared BFS-tree artifact, which this also
    // materializes for later bfs_tree() callers.
    const auto t0 = bfs_tree(0);
    b.lb = graph::diameter_double_sweep(g_);
    b.ub = 2 * t0->max_dist;
    b.exact = false;
  }
  return b;
}

std::shared_ptr<const graph::BfsResult> GraphSnapshot::bfs_tree(graph::VertexId root) const {
  LCS_REQUIRE(root < g_.num_vertices(), "bfs_tree root out of range");
  return bfs_memo_->get_or_compute(root, [&] { return graph::bfs(g_, root); });
}

graph::Partition GraphSnapshot::compute_partition(const graph::Graph& g, std::uint64_t seed,
                                                  std::uint32_t part_count) {
  Rng rng(seed);
  return graph::ball_partition(g, part_count, rng);
}

std::shared_ptr<const graph::Partition> GraphSnapshot::partition(
    std::uint64_t seed, std::uint32_t part_count) const {
  const PartitionKey key{seed, part_count};
  return partition_memo_->get_or_compute(
      key, [&] { return compute_partition(g_, seed, part_count); });
}

graph::Weight GraphSnapshot::lambda_hat() const {
  return *lambda_memo_->get_or_compute(
      0u, [&] { return mincut::sparsify_lambda_hat(g_, weights_); });
}

GraphSnapshot::SampleKey GraphSnapshot::content_key(std::uint64_t seed, std::uint64_t eps_bits,
                                                    double sample_prob) {
  return sample_prob >= 1.0 ? SampleKey{} : SampleKey{seed, eps_bits};
}

GraphSnapshot::SampleKey GraphSnapshot::sample_key(std::uint64_t seed, double eps,
                                                   double& sample_prob) const {
  // The same checks, in the same order, as mincut::sparsify_edges: only λ̂
  // comes from the memo instead of a fresh tree packing.
  sample_prob = mincut::sparsify_sample_prob(g_, eps, [this] { return lambda_hat(); });
  std::uint64_t eps_bits = 0;
  static_assert(sizeof(eps_bits) == sizeof(eps));
  std::memcpy(&eps_bits, &eps, sizeof(eps));
  return content_key(seed, eps_bits, sample_prob);
}

std::shared_ptr<const mincut::SparsifiedSample> GraphSnapshot::sample_at(
    const SampleKey& key, double sample_prob, std::uint64_t seed) const {
  return sample_memo_->get_or_compute(
      key, [&] { return mincut::sparsify_edges_at(g_, weights_, sample_prob, seed); });
}

std::shared_ptr<const mincut::SparsifiedSample> GraphSnapshot::sparsified_sample(
    std::uint64_t seed, double eps) const {
  double p = 0.0;
  const SampleKey key = sample_key(seed, eps, p);
  return sample_at(key, p, seed);
}

std::shared_ptr<const mincut::SparsifiedResult> GraphSnapshot::sparsified_cut(
    std::uint64_t seed, double eps) const {
  double p = 0.0;
  const SampleKey key = sample_key(seed, eps, p);
  // A cut hit skips the sample lookup: the sample memo then counts one miss
  // per distinct key, not one lookup per query.
  return cut_memo_->get_or_compute(key, [&] {
    return mincut::sparsified_mincut_on_sample(g_, weights_, *sample_at(key, p, seed));
  });
}

std::shared_ptr<const sssp::ChIndex> GraphSnapshot::ch_index() const {
  // Single-valued artifact: the key is constant, the compute pure in
  // (g_, weights_) — a loaded snapshot seeds this entry from the file.
  return ch_memo_->get_or_compute(0u, [&] { return sssp::build_ch(g_, weights_); });
}

std::uint32_t GraphSnapshot::default_part_count() const {
  const std::uint32_t n = g_.num_vertices();
  if (n == 0) return 1;
  const auto r =
      static_cast<std::uint32_t>(std::lround(std::sqrt(static_cast<double>(n))));
  return std::min(std::max<std::uint32_t>(1, r), n);
}

std::uint64_t GraphSnapshot::pool_seed(std::uint64_t slot) {
  // Salted so pool keys live in their own seed family, disjoint by
  // construction from anything a per-query RNG stream would draw.
  return hash64(0x706f6f6c5eedULL ^ (slot + 1));
}

void GraphSnapshot::warm_partition_pool() const {
  const std::uint32_t pool = opt_.partition_pool_size;
  if (pool == 0 || g_.num_vertices() == 0) return;
  const std::uint32_t parts = default_part_count();
  std::vector<std::uint64_t> missing;
  missing.reserve(pool);
  for (std::uint32_t slot = 0; slot < pool; ++slot) {
    const std::uint64_t seed = pool_seed(slot);
    // contains_ready is a stats-free probe: slots a snapshot file already
    // seeded are skipped without perturbing the memo telemetry the
    // zero-lookup load gates assert on.
    if (!partition_memo_->contains_ready(PartitionKey{seed, parts}))
      missing.push_back(seed);
  }
  if (missing.empty()) return;
  const auto warm_one = [&](std::size_t i) { (void)partition(missing[i], parts); };
  if (in_parallel_region()) {
    // parallel_tasks is top-level-only; a nested caller warms serially
    // (identical bytes, the pool's whole point is that there are few slots).
    for (std::size_t i = 0; i < missing.size(); ++i) warm_one(i);
  } else {
    parallel_tasks(missing.size(), warm_one);
  }
}

ArtifactStats GraphSnapshot::artifact_stats() const {
  ArtifactStats s;
  s.bfs_tree = bfs_memo_->stats();
  s.partition = partition_memo_->stats();
  s.sparsified = sample_memo_->stats();
  s.sparsified_cut = cut_memo_->stats();
  s.ch = ch_memo_->stats();
  return s;
}

void GraphSnapshot::clear_artifacts() const {
  bfs_memo_->clear();
  partition_memo_->clear();
  sample_memo_->clear();
  cut_memo_->clear();
  lambda_memo_->clear();
  ch_memo_->clear();
}

}  // namespace lcs::service
