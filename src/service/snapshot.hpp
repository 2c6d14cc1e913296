// Immutable, shareable graph snapshots for the query service.
//
// A GraphSnapshot freezes one graph together with everything independent
// queries would otherwise recompute per call: the CSR adjacency (the Graph
// itself), a fixed edge-weight vector, connectivity, degree extrema, and
// cached diameter bounds (exact when the graph is small enough for the
// all-pairs referee, double-sweep bracket otherwise).  Snapshots are
// immutable after construction and handed around as shared_ptr<const ...>:
// any number of services, batches and threads may read one concurrently.
//
// PR 6: one construction surface, two construction paths.
//
//   GraphSnapshot::build(g, opt)  — freeze an in-process graph (was make());
//   GraphSnapshot::load(path)     — mmap a snapshot file written by
//                                   snapshot_format.hpp: the CSR arrays and
//                                   weights are views into the mapping
//                                   (zero deserialization) and saved
//                                   artifacts arrive pre-warmed.
//
// Both return the same shared_ptr<const GraphSnapshot>, and a loaded
// snapshot is contractually indistinguishable from the built one it was
// saved from: same fingerprint(), and bit-identical digests for every query
// at every thread count.  SnapshotStore (snapshot_store.hpp) adds
// fingerprint-addressed save/open/list/evict on top of load().
//
// PR 5: snapshots additionally own an *artifact cache* — lazily
// materialized, deterministically keyed intermediates that repeat queries
// share instead of re-deriving (ROADMAP "snapshot-level artifact caching"):
//
//   | artifact            | key                  | compute (pure in key)        |
//   | ------------------- | -------------------- | ---------------------------- |
//   | diameter bracket    | (none — per snapshot)| all-pairs BFS when small,    |
//   |                     |   eager, in build()  | else via two bfs_tree trees  |
//   | global BFS tree     | root vertex          | graph::bfs(g, root)          |
//   | ball partition      | (seed, part_count)   | ball_partition on Rng(seed)  |
//   | sparsified sample   | sample key (below)   | mincut::sparsify_edges_at    |
//   | skeleton cut        | sample key (below)   | sparsified_mincut_on_sample  |
//   | lambda_hat (λ̂)      | (none — per snapshot)| mincut::sparsify_lambda_hat  |
//   | CH index            | (none — per snapshot)| sssp::build_ch(g, weights)   |
//
// The sample key is normalized by content: the sample probability p is
// known before the lookup (from eps and the memoized λ̂), and at p >= 1 —
// every service graph whose λ̂ is small against 3·ln n / eps² — every
// (seed, eps) yields the identical weights-as-sample, so they all share
// one entry under the sentinel key {seed 0, eps_bits 0} (eps = 0 is out of
// range, so no real key collides with it).  At p < 1 the key stays
// (seed, eps).  The skeleton cut and λ̂ are never serialized; the sample
// memo keeps its snapshot-file section unchanged.
//
// Every compute function is a pure function of (frozen graph, weights, key),
// so a cache hit returns bit-identical bytes to an uncached re-derivation —
// the cache can change only latency and the hit/miss telemetry, never a
// result.  The graph/weight/fact members stay physically immutable; the
// artifact memos are mutable but internally synchronized (once-per-key,
// see util/once_memo.hpp), so the share-freely contract is unchanged.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/weighted.hpp"
#include "mincut/mincut.hpp"
#include "sssp/ch.hpp"
#include "util/once_memo.hpp"

namespace lcs::service {

/// Hit/miss/eviction counters of every artifact memo of one snapshot.
struct ArtifactStats {
  MemoStats bfs_tree;
  MemoStats partition;
  MemoStats sparsified;
  MemoStats sparsified_cut;  ///< skeleton cuts, keyed like `sparsified`
  MemoStats ch;

  MemoStats total() const {
    MemoStats t;
    for (const MemoStats* m : {&bfs_tree, &partition, &sparsified, &sparsified_cut, &ch}) {
      t.hits += m->hits;
      t.misses += m->misses;
      t.evictions += m->evictions;
    }
    return t;
  }
};

class GraphSnapshot {
 public:
  struct Options {
    /// Weights are part of the snapshot (queries over one snapshot must
    /// agree on them); generated as uniform [1, max_weight] from this seed.
    std::uint64_t weight_seed = 7;
    graph::Weight max_weight = 16;
    /// The diameter cache is exact (the all-pairs BFS referee) up to this
    /// many vertices; larger snapshots record the double-sweep lower bound
    /// and a 2*eccentricity upper bound.
    std::uint32_t exact_diameter_max_vertices = 2048;
    /// Artifact-cache capacities (entries per memo; 0 = unbounded).  On
    /// overflow a memo drops its completed entries and rebuilds on demand —
    /// results are unaffected by construction.
    std::size_t max_cached_bfs_trees = 64;
    std::size_t max_cached_partitions = 64;
    std::size_t max_cached_samples = 64;
    /// Size of the default partition pool (PR 9).  Queries that carry no
    /// explicit num_parts draw one of these pool slots deterministically
    /// (seed = pool_seed(slot), ~sqrt(n) parts) instead of a fresh
    /// per-query partition seed, so default-shaped traffic works over a
    /// finite, prewarmable partition set.  0 restores the pre-PR-9
    /// unique-partition-per-query behavior.
    std::uint32_t partition_pool_size = 8;
    /// Materialize the whole pool inside build()/load() (a parallel_tasks
    /// job at top level) so a cold cache never pays first-query partition
    /// derivation — the proactive-prewarm half of ROADMAP item 3.  load()
    /// skips slots the snapshot file already seeded.
    bool prewarm_partition_pool = true;
  };

  /// Freeze `g` into a snapshot.  Top-level entry: the diameter
  /// precomputation may use the thread pool.  (Two overloads rather than a
  /// defaulted argument: a nested class cannot be list-initialized in a
  /// default argument of its own enclosing class.)
  static std::shared_ptr<const GraphSnapshot> build(graph::Graph g, const Options& opt);
  static std::shared_ptr<const GraphSnapshot> build(graph::Graph g);

  /// mmap a snapshot file written by save_snapshot() / SnapshotStore::save.
  /// The CSR arrays and weights stay views into the mapping; artifacts
  /// saved with the file are seeded into the caches (pre-warmed).  Throws
  /// std::runtime_error with a deterministic "snapshot: ..." message on any
  /// malformed, truncated or version-mismatched file.
  static std::shared_ptr<const GraphSnapshot> load(const std::filesystem::path& path);

  const graph::Graph& graph() const { return g_; }
  graph::WeightSpan weights() const { return weights_; }

  /// The options the snapshot was built with (load() restores them from the
  /// file header, so round-tripping preserves cache capacities too).
  const Options& options() const { return opt_; }

  std::uint32_t num_vertices() const { return g_.num_vertices(); }
  std::uint32_t num_edges() const { return g_.num_edges(); }
  bool connected() const { return connected_; }
  std::uint32_t max_degree() const { return max_degree_; }

  /// Unweighted diameter bracket (meaningful only when connected()):
  /// computed once by build(), read from the file header by load().
  std::uint32_t diameter_lb() const { return bracket_.lb; }
  std::uint32_t diameter_ub() const { return bracket_.ub; }
  bool diameter_is_exact() const { return bracket_.exact; }
  /// The estimate queries use when they carry no explicit diameter: the
  /// exact value when cached, else the double-sweep lower bound (what the
  /// KP options would estimate themselves).
  std::uint32_t diameter_estimate() const {
    return bracket_.exact ? bracket_.ub : bracket_.lb;
  }

  // -- shared artifacts -------------------------------------------------------

  /// Global BFS tree rooted at `root` (parents, distances, eccentricity).
  /// Each tree is one diameter estimate: dist-max brackets the diameter
  /// within a factor of two.  Computed once per root, shared by reference.
  std::shared_ptr<const graph::BfsResult> bfs_tree(graph::VertexId root) const;

  /// BFS-Voronoi ball partition grown from `part_count` seeds drawn from
  /// Rng(seed) — the partition family shortcut-shaped queries run on,
  /// computed once per (seed, part_count) and shared across queries,
  /// services and caller threads.
  std::shared_ptr<const graph::Partition> partition(std::uint64_t seed,
                                                    std::uint32_t part_count) const;

  /// Sparsified-mincut edge sample (binomial capacity thinning), computed
  /// once per normalized sample key: (seed, eps) when p < 1, one shared
  /// identity entry when p >= 1.  Bit-equal to mincut::sparsify_edges(g,
  /// weights, eps, seed), and throws its exact texts in its order.
  std::shared_ptr<const mincut::SparsifiedSample> sparsified_sample(std::uint64_t seed,
                                                                    double eps) const;

  /// The skeleton cut of that sample — mincut::sparsified_mincut_on_sample
  /// over sparsified_sample(seed, eps) — under the same normalized key, so
  /// at p >= 1 Stoer–Wagner runs once per snapshot.  Shares the sample
  /// memo's capacity (max_cached_samples); not serialized.
  std::shared_ptr<const mincut::SparsifiedResult> sparsified_cut(std::uint64_t seed,
                                                                 double eps) const;

  /// λ̂ = mincut::sparsify_lambda_hat(graph, weights), the estimate that
  /// prices every sparsified sample.  Single-valued and lazy (never
  /// computed by build() or load()); not serialized.
  graph::Weight lambda_hat() const;

  /// Contraction-hierarchies index over (graph, weights) — the
  /// point-to-point query artifact.  Single-valued per snapshot (the memo
  /// key is constant): computed once by sssp::build_ch with default
  /// ChOptions, shared by every s–t query, serialized with the snapshot and
  /// seeded back on load().
  std::shared_ptr<const sssp::ChIndex> ch_index() const;

  /// The pure function behind partition(): what an uncached caller computes
  /// and what a cached caller must receive bit for bit.
  static graph::Partition compute_partition(const graph::Graph& g, std::uint64_t seed,
                                            std::uint32_t part_count);

  // -- default partition pool (PR 9) -----------------------------------------

  /// Part count of default-shaped queries (no explicit num_parts): ~sqrt(n)
  /// rounded to nearest, clamped to [1, n].
  std::uint32_t default_part_count() const;

  /// Seed of partition-pool slot `slot` — a pure function of the slot alone,
  /// so every service over any snapshot agrees on the pool keys, and the
  /// cached and uncached query paths derive the identical partition.
  static std::uint64_t pool_seed(std::uint64_t slot);

  /// Materialize every missing pool entry (partition_pool_size partitions at
  /// default_part_count()).  Fans out via parallel_tasks at top level and
  /// runs serially inside a pool task; slots already cached (e.g.
  /// seeded from a snapshot file) are skipped without touching the hit/miss
  /// telemetry.  Idempotent; a no-op when the pool is disabled or n == 0.
  void warm_partition_pool() const;

  /// Snapshot-lifetime artifact-cache telemetry (monotone counters).
  ArtifactStats artifact_stats() const;

  /// Drop every completed cache entry (a capacity/telemetry event only:
  /// artifacts rebuild bit-identical on the next access).
  void clear_artifacts() const;

  /// Stable identity of (edges, weights): two services agreeing on this
  /// fingerprint are provably querying the same frozen inputs.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend class SnapshotCodec;  // snapshot_format.{hpp,cpp}: save/load I/O

  GraphSnapshot() = default;

  struct DiameterBracket {
    std::uint32_t lb = 0;
    std::uint32_t ub = 0;
    bool exact = false;
  };
  struct PartitionKey {
    std::uint64_t seed = 0;
    std::uint32_t parts = 0;
    bool operator==(const PartitionKey&) const = default;
  };
  struct PartitionKeyHash {
    std::size_t operator()(const PartitionKey& k) const {
      return static_cast<std::size_t>(hash64(k.seed ^ (std::uint64_t{k.parts} << 32)));
    }
  };
  struct SampleKey {
    std::uint64_t seed = 0;
    std::uint64_t eps_bits = 0;  ///< bit pattern of the eps double (exact key)
    bool operator==(const SampleKey&) const = default;
  };
  struct SampleKeyHash {
    std::size_t operator()(const SampleKey& k) const {
      return static_cast<std::size_t>(hash64(k.seed ^ hash64(k.eps_bits)));
    }
  };

  DiameterBracket compute_bracket() const;

  /// Allocate every artifact memo at the capacities in opt_ (build and load).
  void make_memos();
  /// The normalized sample key of a query's (seed, eps), and its p.
  SampleKey sample_key(std::uint64_t seed, double eps, double& sample_prob) const;
  /// The content key a sample of probability `sample_prob` is stored under:
  /// the sentinel {0, 0} when p >= 1, else (seed, eps_bits).
  static SampleKey content_key(std::uint64_t seed, std::uint64_t eps_bits, double sample_prob);
  /// The sample memo's entry for `key`, thinned at `sample_prob` from `seed`.
  std::shared_ptr<const mincut::SparsifiedSample> sample_at(const SampleKey& key,
                                                            double sample_prob,
                                                            std::uint64_t seed) const;

  graph::Graph g_;
  graph::EdgeWeights weights_store_;  ///< owned weights (empty when mmap'ed)
  graph::WeightSpan weights_;         ///< the view queries read (store or mapping)
  bool connected_ = false;
  std::uint32_t max_degree_ = 0;
  Options opt_;
  std::uint64_t fingerprint_ = 0;
  DiameterBracket bracket_;

  // Artifact memos: mutable because materialization is lazy behind const
  // accessors; each is internally synchronized and computes pure functions,
  // so logical immutability (and the share-freely contract) holds.
  mutable std::unique_ptr<OnceMemo<graph::VertexId, graph::BfsResult>> bfs_memo_;
  mutable std::unique_ptr<OnceMemo<PartitionKey, graph::Partition, PartitionKeyHash>>
      partition_memo_;
  mutable std::unique_ptr<OnceMemo<SampleKey, mincut::SparsifiedSample, SampleKeyHash>>
      sample_memo_;
  mutable std::unique_ptr<OnceMemo<SampleKey, mincut::SparsifiedResult, SampleKeyHash>>
      cut_memo_;
  mutable std::unique_ptr<OnceMemo<std::uint32_t, graph::Weight>> lambda_memo_;
  mutable std::unique_ptr<OnceMemo<std::uint32_t, sssp::ChIndex>> ch_memo_;
};

}  // namespace lcs::service
