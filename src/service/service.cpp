#include "service/service.hpp"

#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/kp.hpp"
#include "graph/partition.hpp"
#include "mincut/mincut.hpp"
#include "mst/mst.hpp"
#include "sssp/ch.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace lcs::service {

namespace {

/// The vertex-disjoint connected parts a shortcut-shaped query runs on:
/// BFS-Voronoi balls around num_parts (default ~sqrt(n)) seeds grown from a
/// partition seed drawn from the query's own stream.  Default-shaped
/// queries (num_parts == 0, pool enabled) map that draw onto a slot of the
/// snapshot's finite partition pool — GraphSnapshot::pool_seed keys, so the
/// build()/load()-time prewarm covers exactly this working set; explicit
/// num_parts keeps the unbounded per-query seed family.  Cached: the shared
/// artifact keyed by (part_seed, part_count); uncached: the identical pure
/// function computed privately — bit-equal by construction, verified by the
/// cached-vs-uncached test fleet.
std::shared_ptr<const graph::Partition> query_partition(const GraphSnapshot& snap,
                                                        const QueryRequest& q, Rng& stream,
                                                        bool use_cache) {
  const std::uint32_t n = snap.num_vertices();
  LCS_REQUIRE(n > 0, "query needs a non-empty snapshot");
  const std::uint32_t pool = snap.options().partition_pool_size;
  std::uint32_t seeds = q.num_parts;
  std::uint64_t part_seed = 0;
  if (seeds == 0 && pool > 0) {
    // One stream draw either way, so pool on/off changes which partition a
    // query uses but never the rest of its random sequence.
    part_seed = GraphSnapshot::pool_seed(stream() % pool);
    seeds = snap.default_part_count();
  } else {
    if (seeds == 0)
      seeds = std::max<std::uint32_t>(
          1, static_cast<std::uint32_t>(std::lround(std::sqrt(static_cast<double>(n)))));
    seeds = std::min(seeds, n);
    part_seed = stream();
  }
  if (use_cache) return snap.partition(part_seed, seeds);
  return std::make_shared<const graph::Partition>(
      GraphSnapshot::compute_partition(snap.graph(), part_seed, seeds));
}

core::KpOptions kp_options(const GraphSnapshot& snap, const QueryRequest& q,
                           std::uint64_t kp_seed) {
  core::KpOptions opt;
  opt.beta = q.beta;
  opt.seed = kp_seed;
  opt.diameter = q.diameter.has_value() ? q.diameter
                 : snap.connected()     ? std::optional<unsigned>(snap.diameter_estimate())
                                        : std::nullopt;
  return opt;
}

std::uint64_t hash_vertices(const std::vector<graph::VertexId>& vs) {
  std::uint64_t h = hash64(vs.size());
  for (const graph::VertexId v : vs) h = hash64(h ^ v);
  return h;
}

void run_shortcut_quality(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream,
                          bool use_cache, QueryResult& r) {
  const std::uint64_t kp_seed = stream();
  const auto parts = query_partition(snap, q, stream, use_cache);
  const core::KpStreamReport rep =
      core::measure_kp_quality(snap.graph(), *parts, kp_options(snap, q, kp_seed), {});
  r.congestion = rep.quality.congestion;
  r.dilation = rep.quality.dilation_ub;
  r.value = rep.quality.quality();
  r.cardinality = rep.num_large;
  // Hash the full per-part structure, not just the maxima: instances whose
  // aggregates coincide (e.g. when the sampling probability clamps to 1)
  // must still be distinguishable by their partition-level results.
  std::uint64_t h = hash64(rep.total_shortcut_edges);
  h = hash64(h ^ rep.quality.dilation_lb);
  h = hash64(h ^ rep.quality.max_cover_radius);
  h = hash64(h ^ (rep.quality.all_covered ? 1ULL : 0ULL));
  for (const core::PartDilation& pd : rep.quality.parts) {
    h = hash64(h ^ ((static_cast<std::uint64_t>(pd.cover_radius) << 32) | pd.diameter_ub));
    h = hash64(h ^ ((static_cast<std::uint64_t>(pd.diameter_lb) << 2) |
                    (pd.covered ? 2ULL : 0ULL) | (pd.exact ? 1ULL : 0ULL)));
  }
  r.content_hash = h;
}

void run_shortcut_build(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream,
                        bool use_cache, QueryResult& r) {
  const std::uint64_t kp_seed = stream();
  const auto parts = query_partition(snap, q, stream, use_cache);
  const core::KpBuildResult built =
      core::build_kp_shortcuts(snap.graph(), *parts, kp_options(snap, q, kp_seed));
  std::uint64_t total = 0;
  std::uint64_t h = hash64(built.shortcuts.num_parts());
  for (const auto& h_i : built.shortcuts.h) {
    total += h_i.size();
    h = hash64(h ^ h_i.size());
    // All of E is fixed by its size, so its ids are not hashed.  No other
    // H_i has m ids: each is an ascending set of distinct ids.
    if (core::is_all_edges(snap.graph(), h_i)) continue;
    for (const graph::EdgeId e : h_i) h = hash64(h ^ e);
  }
  r.value = total;
  r.cardinality = built.num_large;
  r.content_hash = h;
}

void run_mst(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream,
             mst::BoruvkaScratch& scratch, QueryResult& r) {
  mst::BoruvkaOptions opt;
  opt.beta = q.beta;
  opt.seed = stream();
  if (q.diameter.has_value())
    opt.diameter = q.diameter;
  else if (snap.connected())
    opt.diameter = snap.diameter_estimate();
  const mst::BoruvkaResult res = mst::boruvka_mst(snap.graph(), snap.weights(), opt, scratch);
  r.value = static_cast<std::uint64_t>(res.mst.weight);
  r.cardinality = res.mst.edges.size();
  r.rounds = res.total_rounds();
  std::uint64_t h = hash64(res.phases);
  for (const graph::EdgeId e : res.mst.edges) h = hash64(h ^ e);
  h = hash64(h ^ res.messages);
  r.content_hash = h;
}

void run_mincut(const GraphSnapshot& snap, const QueryRequest& q, Rng& stream, bool use_cache,
                QueryResult& r) {
  Rng local(stream());
  mincut::CutResult cut;
  if (q.karger_trials > 0) {
    cut = mincut::karger_mincut(snap.graph(), snap.weights(), q.karger_trials, local);
    r.rounds = q.karger_trials;
  } else {
    // The sample seed is the same one draw the library entry point would
    // take, drawn whether or not p clamps.  Cached: the skeleton cut
    // artifact under the normalized sample key (at p >= 1 one cut serves
    // every seed and eps).  Uncached: the pure recomputation.
    const std::uint64_t sample_seed = local();
    std::shared_ptr<const mincut::SparsifiedResult> sp;
    if (use_cache) {
      sp = snap.sparsified_cut(sample_seed, q.eps);
    } else {
      const mincut::SparsifiedSample sample =
          mincut::sparsify_edges(snap.graph(), snap.weights(), q.eps, sample_seed);
      sp = std::make_shared<const mincut::SparsifiedResult>(
          mincut::sparsified_mincut_on_sample(snap.graph(), snap.weights(), sample));
    }
    cut = sp->cut;
    r.rounds = static_cast<std::uint64_t>(sp->skeleton_cut);
  }
  r.value = static_cast<std::uint64_t>(cut.value);
  r.cardinality = cut.side.size();
  r.content_hash = hash_vertices(cut.side);
}

void run_point_to_point(const GraphSnapshot& snap, const QueryRequest& q, bool use_cache,
                        sssp::PointToPointScratch& scratch, QueryResult& r) {
  const std::uint32_t n = snap.num_vertices();
  LCS_REQUIRE(q.s < n && q.t < n, "point-to-point endpoints out of range");
  // Cached: the snapshot's single CH artifact (possibly seeded from a
  // snapshot file).  Uncached: the identical pure function of
  // (graph, weights) computed privately — bit-equal by construction.
  const std::shared_ptr<const sssp::ChIndex> ch =
      use_cache ? snap.ch_index()
                : std::make_shared<const sssp::ChIndex>(
                      sssp::build_ch(snap.graph(), snap.weights()));
  const sssp::PointToPointResult res = sssp::ch_query(*ch, q.s, q.t, scratch);
  r.s = q.s;
  r.t = q.t;
  r.distance = res.distance;
  r.value = res.distance;
  r.cardinality = res.distance == sssp::kInfDist ? 0 : 1;  // reachability bit
  r.settled_nodes = res.settled;
  r.content_hash =
      hash64(hash64((static_cast<std::uint64_t>(q.s) << 32) | q.t) ^ res.distance);
}

}  // namespace

// Mutex-guarded free lists.  A query takes the last free scratch of its
// kind, or a new one when none is free, and gives it back when it ends, so
// a list never holds more scratches than queries ran at once.
class ShortcutService::ScratchPool {
 public:
  template <typename Scratch>
  class FreeList {
   public:
    template <typename Make>
    std::unique_ptr<Scratch> take(Make&& make) {
      {
        const std::lock_guard lock(mu_);
        if (!free_.empty()) {
          std::unique_ptr<Scratch> out = std::move(free_.back());
          free_.pop_back();
          return out;
        }
      }
      return make();
    }

    void give(std::unique_ptr<Scratch> scratch) {
      const std::lock_guard lock(mu_);
      free_.push_back(std::move(scratch));
    }

   private:
    std::mutex mu_;
    std::vector<std::unique_ptr<Scratch>> free_;  // guarded by mu_
  };

  FreeList<sssp::PointToPointScratch> point_to_point;
  FreeList<mst::BoruvkaScratch> mst;  // each built for the snapshot's graph
};

ShortcutService::ShortcutService(std::shared_ptr<const GraphSnapshot> snapshot,
                                 std::uint64_t seed)
    : ShortcutService(std::move(snapshot), seed, Options{}) {}

ShortcutService::ShortcutService(std::shared_ptr<const GraphSnapshot> snapshot,
                                 std::uint64_t seed, const Options& options)
    : snap_(std::move(snapshot)),
      seed_(seed),
      opt_(options),
      scratches_(std::make_shared<ScratchPool>()) {
  LCS_REQUIRE(snap_ != nullptr, "service needs a snapshot");
}

QueryResult ShortcutService::execute(const QueryRequest& q) const {
  QueryResult r;
  r.id = q.id;
  r.kind = q.kind;
  const auto start = std::chrono::steady_clock::now();
  try {
    // The query's whole randomness budget: a stream keyed by (service seed,
    // query id) alone, so the result cannot depend on batch composition.
    Rng stream = Rng(seed_).split(q.id);
    const bool cache = opt_.use_artifact_cache;
    switch (q.kind) {
      case QueryKind::kShortcutQuality: run_shortcut_quality(*snap_, q, stream, cache, r); break;
      case QueryKind::kShortcutBuild: run_shortcut_build(*snap_, q, stream, cache, r); break;
      case QueryKind::kMst: {
        // A query that throws drops its scratch; the pool makes another.
        std::unique_ptr<mst::BoruvkaScratch> scratch = scratches_->mst.take(
            [&] { return std::make_unique<mst::BoruvkaScratch>(snap_->graph()); });
        run_mst(*snap_, q, stream, *scratch, r);
        scratches_->mst.give(std::move(scratch));
        break;
      }
      case QueryKind::kMincut: run_mincut(*snap_, q, stream, cache, r); break;
      // Draws nothing from the stream: the answer is a pure function of the
      // snapshot and (s, t), so the stream exists only to keep the RNG
      // discipline uniform across kinds.
      case QueryKind::kPointToPoint: {
        // A query that throws drops its scratch; the pool makes another.
        std::unique_ptr<sssp::PointToPointScratch> scratch = scratches_->point_to_point.take(
            [] { return std::make_unique<sssp::PointToPointScratch>(); });
        run_point_to_point(*snap_, q, cache, *scratch, r);
        scratches_->point_to_point.give(std::move(scratch));
        break;
      }
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

QueryResult ShortcutService::run(const QueryRequest& request) const { return execute(request); }

std::vector<QueryResult> ShortcutService::run_batch(
    const std::vector<QueryRequest>& batch) const {
  check_distinct_query_ids(batch);
  std::vector<QueryResult> out(batch.size());
  parallel_tasks(batch.size(), [&](std::size_t t) { out[t] = execute(batch[t]); });
  return out;
}

}  // namespace lcs::service
