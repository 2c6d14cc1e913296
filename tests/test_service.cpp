// Query-service determinism and snapshot-sharing tests.
//
// The contract under test: a QueryResult is a pure function of (snapshot,
// service seed, request) — independent of thread count, batch order, batch
// composition, which service instance ran it, and whether it ran alone via
// run() or inside a concurrent batch via run_batch().
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "service/service.hpp"
#include "sssp/sssp.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using service::GraphSnapshot;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::ShortcutService;

std::shared_ptr<const GraphSnapshot> small_snapshot(std::uint64_t seed = 11,
                                                    std::uint32_t n = 300) {
  Rng gen(seed);
  GraphSnapshot::Options opt;
  opt.weight_seed = seed ^ 0x55ULL;
  opt.max_weight = 9;
  return GraphSnapshot::build(graph::connected_gnm(n, 3 * n, gen), opt);
}

std::vector<QueryRequest> mixed_batch(std::uint32_t count) {
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < count; ++i) {
    QueryRequest q;
    q.id = 100 + i;
    q.kind = static_cast<QueryKind>(i % 5);
    q.beta = (i % 3 == 0) ? 0.5 : 1.0;
    q.karger_trials = (i % 8 == 3) ? 8 : 0;
    // Endpoints stay below the smallest fixture (n = 300) so every batch
    // member is well-formed against every snapshot in this file.
    q.s = (i * 37 + 1) % 100;
    q.t = (i * 61 + 13) % 100;
    batch.push_back(q);
  }
  return batch;
}

void expect_same_result(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.dilation, b.dilation);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.cardinality, b.cardinality);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_EQ(a.s, b.s);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.distance, b.distance);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(GraphSnapshot, PrecomputedFactsMatchDirectComputation) {
  Rng gen(5);
  graph::Graph g = graph::connected_gnm(120, 400, gen);
  const graph::Graph reference = g;  // Graph is a value type; keep a copy
  const auto snap = GraphSnapshot::build(std::move(g));

  EXPECT_EQ(snap->num_vertices(), reference.num_vertices());
  EXPECT_EQ(snap->num_edges(), reference.num_edges());
  EXPECT_TRUE(snap->connected());
  EXPECT_TRUE(snap->diameter_is_exact());
  EXPECT_EQ(snap->diameter_lb(), snap->diameter_ub());
  EXPECT_EQ(snap->diameter_ub(), graph::diameter_exact(reference));
  EXPECT_EQ(snap->diameter_estimate(), snap->diameter_ub());
  std::uint32_t max_deg = 0;
  for (graph::VertexId v = 0; v < reference.num_vertices(); ++v)
    max_deg = std::max(max_deg, reference.degree(v));
  EXPECT_EQ(snap->max_degree(), max_deg);
  EXPECT_EQ(snap->weights().size(), reference.num_edges());
  EXPECT_NE(snap->fingerprint(), 0u);
}

TEST(GraphSnapshot, LargeSnapshotGetsDiameterBracket) {
  // Above 2048 vertices the all-pairs referee is skipped: the bracket is
  // the double-sweep lower bound and twice the eccentricity of vertex 0.
  Rng gen(6);
  const graph::Graph reference = graph::connected_gnm(2100, 6300, gen);
  GraphSnapshot::Options opt;
  opt.prewarm_partition_pool = false;
  const auto snap = GraphSnapshot::build(reference, opt);
  EXPECT_FALSE(snap->diameter_is_exact());
  EXPECT_EQ(snap->diameter_lb(), graph::diameter_double_sweep(reference));
  EXPECT_EQ(snap->diameter_ub(), 2 * graph::eccentricity(reference, 0));
  EXPECT_GE(snap->diameter_ub(), snap->diameter_lb());
  EXPECT_GT(snap->diameter_lb(), 0u);
  EXPECT_EQ(snap->diameter_estimate(), snap->diameter_lb());
}

TEST(ShortcutService, BatchMatchesSequentialSingleQueryExecution) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  const auto batch = mixed_batch(12);

  const std::vector<QueryResult> batched = svc.run_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult alone = svc.run(batch[i]);
    expect_same_result(batched[i], alone);
    EXPECT_TRUE(batched[i].ok) << batched[i].error;
  }
}

TEST(ShortcutService, BitIdenticalAcrossThreadCounts) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  const auto batch = mixed_batch(12);

  ThreadOverrideGuard guard;
  set_num_threads(1);
  const std::vector<QueryResult> ref = svc.run_batch(batch);
  for (const unsigned threads : {2u, 8u}) {
    set_num_threads(threads);
    const std::vector<QueryResult> got = svc.run_batch(batch);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) expect_same_result(got[i], ref[i]);
  }
}

TEST(ShortcutService, BatchOrderAndCompositionInvariance) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  const auto batch = mixed_batch(10);
  const std::vector<QueryResult> ref = svc.run_batch(batch);

  // Reversed order: same per-id results.
  std::vector<QueryRequest> reversed(batch.rbegin(), batch.rend());
  const std::vector<QueryResult> rev_results = svc.run_batch(reversed);
  for (std::size_t i = 0; i < batch.size(); ++i)
    expect_same_result(rev_results[batch.size() - 1 - i], ref[i]);

  // A sub-batch: results do not depend on what else was in the batch.
  const std::vector<QueryRequest> sub(batch.begin() + 2, batch.begin() + 5);
  const std::vector<QueryResult> sub_results = svc.run_batch(sub);
  for (std::size_t i = 0; i < sub.size(); ++i) expect_same_result(sub_results[i], ref[i + 2]);
}

TEST(ShortcutService, TwoServicesShareOneSnapshot) {
  const auto snap = small_snapshot();
  const long base_use_count = snap.use_count();
  const ShortcutService a(snap, 9);
  const ShortcutService b(snap, 9);
  EXPECT_EQ(snap.use_count(), base_use_count + 2);  // shared, never copied
  EXPECT_EQ(&a.snapshot(), &b.snapshot());

  const auto batch = mixed_batch(8);
  const std::vector<QueryResult> ra = a.run_batch(batch);
  const std::vector<QueryResult> rb = b.run_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_result(ra[i], rb[i]);
}

TEST(ShortcutService, ConcurrentBatchesFromTwoCallerThreads) {
  const auto snap = small_snapshot();
  const ShortcutService a(snap, 9);
  const ShortcutService b(snap, 9);
  const auto batch_a = mixed_batch(8);
  auto batch_b = mixed_batch(8);
  std::reverse(batch_b.begin(), batch_b.end());

  // Sequential references first.
  const std::vector<QueryResult> ref_a = a.run_batch(batch_a);
  const std::vector<QueryResult> ref_b = b.run_batch(batch_b);

  // Then both batches at once from two caller threads: the pool serializes
  // the batches, the snapshot is shared read-only, and the interleaving
  // must not leak into any result.
  std::vector<QueryResult> got_a, got_b;
  std::thread ta([&] { got_a = a.run_batch(batch_a); });
  std::thread tb([&] { got_b = b.run_batch(batch_b); });
  ta.join();
  tb.join();
  ASSERT_EQ(got_a.size(), ref_a.size());
  ASSERT_EQ(got_b.size(), ref_b.size());
  for (std::size_t i = 0; i < ref_a.size(); ++i) expect_same_result(got_a[i], ref_a[i]);
  for (std::size_t i = 0; i < ref_b.size(); ++i) expect_same_result(got_b[i], ref_b[i]);
}

TEST(ShortcutService, DifferentIdsGiveIndependentStreams) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  QueryRequest q1;
  q1.id = 1;
  q1.kind = QueryKind::kShortcutQuality;
  QueryRequest q2 = q1;
  q2.id = 2;
  const QueryResult r1 = svc.run(q1);
  const QueryResult r2 = svc.run(q2);
  // Same parameters, different streams: the sampled partitions/coins differ
  // (content hashes collide with probability ~2^-64).
  EXPECT_NE(r1.content_hash, r2.content_hash);
  // And the same id twice is bitwise-reproducible.
  expect_same_result(r1, svc.run(q1));
}

TEST(ShortcutService, RunInsideParallelRegionIsRejected) {
  // Misuse surfaces as a throw, not as a deterministic ok=false result: a
  // batch fans out from top level only, never from inside a pool task.
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  const std::vector<QueryRequest> batch = mixed_batch(2);
  try {
    parallel_tasks(1, [&](std::size_t) { (void)svc.run_batch(batch); });
    FAIL() << "run_batch inside a task did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("parallel_tasks is a top-level entry point"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShortcutService, DuplicateIdsInBatchAreRejected) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  auto batch = mixed_batch(4);
  batch[3].id = batch[0].id;
  EXPECT_THROW(svc.run_batch(batch), std::invalid_argument);
}

// --- artifact cache (PR 5) ---------------------------------------------------

TEST(GraphSnapshot, ArtifactAccessorsMemoizeOncePerKey) {
  // Pool prewarm off: this test asserts exact lifetime hit/miss counts, so
  // the snapshot must start with an empty partition memo.
  Rng gen(31);
  GraphSnapshot::Options opt;
  opt.weight_seed = 31 ^ 0x55ULL;
  opt.max_weight = 9;
  opt.prewarm_partition_pool = false;
  const auto snap = GraphSnapshot::build(graph::connected_gnm(120, 360, gen), opt);
  const auto p1 = snap->partition(42, 8);
  EXPECT_EQ(p1.get(), snap->partition(42, 8).get());  // shared bytes, not equal copies
  EXPECT_NE(p1.get(), snap->partition(43, 8).get());
  EXPECT_NE(p1.get(), snap->partition(42, 9).get());

  // This graph's lambda_hat is small, so p clamps to 1 at both eps: the
  // sample is keyed by content, and every (seed, eps) shares one entry.
  ASSERT_GE(mincut::sparsify_edges(snap->graph(), snap->weights(), 0.4, 42).sample_prob, 1.0);
  const auto s1 = snap->sparsified_sample(42, 0.5);
  EXPECT_EQ(s1.get(), snap->sparsified_sample(42, 0.5).get());
  EXPECT_EQ(s1.get(), snap->sparsified_sample(42, 0.4).get());
  EXPECT_EQ(s1.get(), snap->sparsified_sample(43, 0.5).get());
  const auto c1 = snap->sparsified_cut(42, 0.5);
  EXPECT_EQ(c1.get(), snap->sparsified_cut(7, 0.4).get());

  const service::ArtifactStats stats = snap->artifact_stats();
  EXPECT_EQ(stats.partition.misses, 3u);
  EXPECT_EQ(stats.partition.hits, 1u);
  EXPECT_EQ(stats.sparsified.misses, 1u);
  EXPECT_EQ(stats.sparsified.hits, 4u);  // the cut's miss found the sample ready
  EXPECT_EQ(stats.sparsified_cut.misses, 1u);
  EXPECT_EQ(stats.sparsified_cut.hits, 1u);

  // A dense, heavily weighted graph samples at p < 1: there (seed, eps)
  // stays the key, so eps and seed each select their own entry.
  Rng dense_gen(0xde75e);
  GraphSnapshot::Options dense_opt;
  dense_opt.weight_seed = 0x901d;
  dense_opt.max_weight = 64;
  dense_opt.prewarm_partition_pool = false;
  const auto dense = GraphSnapshot::build(graph::connected_gnm(60, 600, dense_gen), dense_opt);
  ASSERT_LT(mincut::sparsify_edges(dense->graph(), dense->weights(), 0.5, 42).sample_prob, 1.0);
  const auto d1 = dense->sparsified_sample(42, 0.5);
  EXPECT_EQ(d1.get(), dense->sparsified_sample(42, 0.5).get());
  EXPECT_NE(d1.get(), dense->sparsified_sample(42, 0.4).get());
  EXPECT_NE(d1.get(), dense->sparsified_sample(43, 0.5).get());
  const auto dc = dense->sparsified_cut(42, 0.5);
  EXPECT_EQ(dc.get(), dense->sparsified_cut(42, 0.5).get());
  EXPECT_NE(dc.get(), dense->sparsified_cut(42, 0.4).get());
  const service::ArtifactStats dense_stats = dense->artifact_stats();
  EXPECT_EQ(dense_stats.sparsified.misses, 3u);
  EXPECT_EQ(dense_stats.sparsified.hits, 3u);
  EXPECT_EQ(dense_stats.sparsified_cut.misses, 2u);
  EXPECT_EQ(dense_stats.sparsified_cut.hits, 1u);
}

TEST(GraphSnapshot, CachedArtifactsEqualUncachedPureFunctions) {
  const auto snap = small_snapshot(32, 120);
  const auto cached = snap->partition(77, 6);
  const graph::Partition direct = GraphSnapshot::compute_partition(snap->graph(), 77, 6);
  EXPECT_EQ(cached->parts, direct.parts);

  const auto sample = snap->sparsified_sample(91, 0.5);
  const mincut::SparsifiedSample direct_sample =
      mincut::sparsify_edges(snap->graph(), snap->weights(), 0.5, 91);
  EXPECT_EQ(sample->units, direct_sample.units);
  EXPECT_DOUBLE_EQ(sample->sample_prob, direct_sample.sample_prob);

  const auto cut = snap->sparsified_cut(91, 0.5);
  const mincut::SparsifiedResult direct_cut =
      mincut::sparsified_mincut_on_sample(snap->graph(), snap->weights(), direct_sample);
  EXPECT_EQ(cut->cut.side, direct_cut.cut.side);
  EXPECT_EQ(cut->cut.value, direct_cut.cut.value);
  EXPECT_EQ(cut->skeleton_cut, direct_cut.skeleton_cut);
  EXPECT_EQ(snap->lambda_hat(), mincut::sparsify_lambda_hat(snap->graph(), snap->weights()));
}

TEST(ShortcutService, ClampedSparsifiedMincutsShareOneSkeletonCut) {
  // The mix_gnm benchmark's graph: p clamps to 1 at every eps used here, so
  // eight sparsified queries under distinct ids and eps read one sample and
  // one skeleton cut, and their digests equal the uncached recomputation.
  Rng gen(0x6d69785f676e6dULL);
  const graph::Graph g = graph::connected_gnm(300, 900, gen);
  std::vector<QueryRequest> batch;
  const double epses[] = {0.3, 0.4, 0.5};
  for (std::uint64_t i = 0; i < 8; ++i) {
    QueryRequest q;
    q.id = 300 + 11 * i;
    q.kind = QueryKind::kMincut;
    q.eps = epses[i % 3];
    batch.push_back(q);
  }
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    set_num_threads(threads);
    GraphSnapshot::Options opt;
    opt.prewarm_partition_pool = false;
    const auto snap = GraphSnapshot::build(g, opt);
    ASSERT_GE(mincut::sparsify_edges(snap->graph(), snap->weights(), 0.3, 1).sample_prob, 1.0);
    ShortcutService::Options uncached_opt;
    uncached_opt.use_artifact_cache = false;
    const ShortcutService cached(snap, 17);
    const ShortcutService uncached(snap, 17, uncached_opt);
    const std::vector<QueryResult> got = cached.run_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << got[i].error;
      expect_same_result(got[i], uncached.run(batch[i]));
    }
    const service::ArtifactStats stats = snap->artifact_stats();
    // The first query to look the shared cut up computes it (one miss);
    // the other seven wait for it or find it ready (seven hits), at every
    // thread count.
    EXPECT_EQ(stats.sparsified.misses, 1u) << threads;
    EXPECT_EQ(stats.sparsified_cut.misses, 1u) << threads;
    EXPECT_EQ(stats.sparsified_cut.hits, 7u) << threads;
    EXPECT_EQ(stats.sparsified_cut.lookups(), 8u) << threads;
  }
  set_num_threads(0);
}

TEST(ShortcutService, SparsifiedMincutErrorTextsMatchCachedAndUncached) {
  // Error texts are digest content, and LCS_REQUIRE texts carry file:line.
  // The cached path validates through the very checks the uncached one
  // runs, so a bad eps and a disconnected snapshot report the same text
  // either way — and the text names the mincut checks' own lines.
  graph::GraphBuilder b(10);
  for (graph::VertexId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1);
  for (graph::VertexId v = 5; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  const auto disconnected = GraphSnapshot::build(std::move(b).build());
  const auto connected = small_snapshot();
  ShortcutService::Options uncached_opt;
  uncached_opt.use_artifact_cache = false;
  const auto check = [&](const std::shared_ptr<const GraphSnapshot>& snap, double eps,
                         const std::string& suffix) {
    QueryRequest q;
    q.id = 77;
    q.kind = QueryKind::kMincut;
    q.eps = eps;
    const QueryResult cached = ShortcutService(snap, 3).run(q);
    const QueryResult uncached = ShortcutService(snap, 3, uncached_opt).run(q);
    EXPECT_FALSE(cached.ok);
    EXPECT_EQ(cached.error, uncached.error);
    EXPECT_EQ(cached.digest(), uncached.digest());
    ASSERT_GE(cached.error.size(), suffix.size());
    EXPECT_EQ(cached.error.substr(cached.error.size() - suffix.size()), suffix) << cached.error;
  };
  check(connected, 1.5, "mincut.cpp:379 — eps must be in (0, 1)");
  check(disconnected, 1.5, "mincut.cpp:379 — eps must be in (0, 1)");
  check(disconnected, 0.5, "mincut.cpp:380 — min cut of a disconnected graph is zero");
}

// --- default partition pool + proactive prewarm (PR 9) -----------------------

TEST(GraphSnapshot, PartitionPoolPrewarmOnVsOffIsBitIdentical) {
  Rng gen(13);
  const graph::Graph g = graph::connected_gnm(200, 600, gen);
  GraphSnapshot::Options warm_opt;
  warm_opt.weight_seed = 99;
  GraphSnapshot::Options cold_opt = warm_opt;
  cold_opt.prewarm_partition_pool = false;
  const auto warm = GraphSnapshot::build(g, warm_opt);
  const auto cold = GraphSnapshot::build(g, cold_opt);

  const ShortcutService warm_svc(warm, 5);
  const ShortcutService cold_svc(cold, 5);
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < 12; ++i) {
    QueryRequest q;
    q.id = 900 + i;
    q.kind = (i % 2 == 0) ? QueryKind::kShortcutQuality : QueryKind::kShortcutBuild;
    batch.push_back(q);  // num_parts = 0: the default-pool path
  }

  // Warm path: the build()-time prewarm covered the whole default pool, so
  // default-shaped queries never miss the partition memo.
  const service::ArtifactStats before = warm->artifact_stats();
  const auto warm_results = warm_svc.run_batch(batch);
  const service::ArtifactStats after = warm->artifact_stats();
  EXPECT_EQ(after.partition.misses, before.partition.misses);
  EXPECT_GT(after.partition.hits, before.partition.hits);

  // Cold path pays first-touch misses but must produce bit-identical
  // results: prewarming is a latency feature, never a content change.
  const auto cold_results = cold_svc.run_batch(batch);
  EXPECT_GT(cold->artifact_stats().partition.misses, 0u);
  ASSERT_EQ(warm_results.size(), cold_results.size());
  for (std::size_t i = 0; i < warm_results.size(); ++i)
    expect_same_result(warm_results[i], cold_results[i]);
}

TEST(GraphSnapshot, WarmPartitionPoolIsIdempotentAndBounded) {
  const auto snap = small_snapshot(33, 150);
  const auto& opt = snap->options();
  ASSERT_GT(opt.partition_pool_size, 0u);
  const service::ArtifactStats built = snap->artifact_stats();
  EXPECT_EQ(built.partition.misses, opt.partition_pool_size);
  snap->warm_partition_pool();  // every slot is ready: a stats-free no-op
  const service::ArtifactStats again = snap->artifact_stats();
  EXPECT_EQ(again.partition.misses, built.partition.misses);
  EXPECT_EQ(again.partition.hits, built.partition.hits);
  // The pool key family is a pure function of the slot: any snapshot, any
  // process, any service agrees on it.
  EXPECT_NE(GraphSnapshot::pool_seed(0), GraphSnapshot::pool_seed(1));
  EXPECT_EQ(GraphSnapshot::pool_seed(3), GraphSnapshot::pool_seed(3));
  const std::uint32_t parts = snap->default_part_count();
  EXPECT_GE(parts, 1u);
  EXPECT_LE(parts, snap->num_vertices());
}

TEST(ShortcutService, CachedVsUncachedBitIdentityAcrossThreadCounts) {
  const auto snap = small_snapshot();
  const ShortcutService cached(snap, 3);
  const ShortcutService uncached(snap, 3,
                                 ShortcutService::Options{/*use_artifact_cache=*/false});
  const auto batch = mixed_batch(12);

  ThreadOverrideGuard guard;
  set_num_threads(1);
  const std::vector<QueryResult> ref = uncached.run_batch(batch);
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    const std::vector<QueryResult> hot = cached.run_batch(batch);    // may hit
    const std::vector<QueryResult> cold = uncached.run_batch(batch);  // never hits
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_same_result(hot[i], ref[i]);
      expect_same_result(cold[i], ref[i]);
    }
  }
  // The cached service really did use the shared pool.
  EXPECT_GT(snap->artifact_stats().total().hits, 0u);
}

TEST(ShortcutService, EvictionAndRebuildAreDeterministic) {
  // A capacity-1 artifact cache thrashes (every new key evicts the last);
  // an unbounded one never evicts; explicit clear_artifacts() rebuilds from
  // nothing.  All three must produce bit-identical query results.
  Rng gen(11);
  const graph::Graph g = graph::connected_gnm(300, 900, gen);
  GraphSnapshot::Options tiny;
  tiny.weight_seed = 11 ^ 0x55ULL;
  tiny.max_weight = 9;
  tiny.max_cached_partitions = 1;
  tiny.max_cached_samples = 1;
  const auto thrashing = GraphSnapshot::build(g, tiny);
  const auto roomy = small_snapshot();  // same seed/options as the default fixture

  const ShortcutService svc_thrash(thrashing, 3);
  const ShortcutService svc_roomy(roomy, 3);
  const auto batch = mixed_batch(12);

  const std::vector<QueryResult> a = svc_thrash.run_batch(batch);
  const std::vector<QueryResult> b = svc_roomy.run_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_result(a[i], b[i]);
  EXPECT_GT(thrashing->artifact_stats().total().evictions, 0u);
  EXPECT_EQ(roomy->artifact_stats().total().evictions, 0u);

  // Rebuild from an explicitly cleared cache: same bytes again.
  thrashing->clear_artifacts();
  const std::vector<QueryResult> c = svc_thrash.run_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_result(c[i], a[i]);
}

TEST(ShortcutService, TwoServicesShareOneArtifactPoolConcurrently) {
  // Two services over one snapshot, queried from two caller threads at
  // once: the artifact pool is hit from both sides (same seed => same
  // partition/sample keys) and every result stays oracle-identical.
  const auto snap = small_snapshot(41);
  const ShortcutService a(snap, 9);
  const ShortcutService b(snap, 9);
  const auto batch = mixed_batch(10);
  const std::vector<QueryResult> ref = a.run_batch(batch);

  std::vector<QueryResult> got_a, got_b;
  std::thread ta([&] { got_a = a.run_batch(batch); });
  std::thread tb([&] { got_b = b.run_batch(batch); });
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_result(got_a[i], ref[i]);
    expect_same_result(got_b[i], ref[i]);
  }
  // Reference run materialized every artifact; the two concurrent replays
  // hit the shared pool instead of re-deriving.
  EXPECT_GT(snap->artifact_stats().total().hits,
            snap->artifact_stats().total().misses);
}

TEST(ShortcutService, QueryErrorsAreCapturedAndDeterministic) {
  // A disconnected snapshot: mincut queries must fail identically at every
  // thread count, not crash the batch.
  graph::GraphBuilder b(10);
  for (graph::VertexId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1);
  for (graph::VertexId v = 5; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  const auto snap = GraphSnapshot::build(std::move(b).build());
  EXPECT_FALSE(snap->connected());

  const ShortcutService svc(snap, 3);
  QueryRequest q;
  q.id = 7;
  q.kind = QueryKind::kMincut;
  q.karger_trials = 0;  // sparsified requires connectivity

  ThreadOverrideGuard guard;
  set_num_threads(1);
  const QueryResult ref = svc.run_batch({q})[0];
  EXPECT_FALSE(ref.ok);
  EXPECT_FALSE(ref.error.empty());
  set_num_threads(4);
  expect_same_result(svc.run_batch({q})[0], ref);
}

TEST(ShortcutService, PointToPointMatchesSingleSourceOracle) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  Rng pick(77);
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < 24; ++i) {
    QueryRequest q;
    q.id = 500 + i;
    q.kind = QueryKind::kPointToPoint;
    q.s = pick.uniform(snap->num_vertices());
    q.t = pick.uniform(snap->num_vertices());
    batch.push_back(q);
  }
  const std::vector<QueryResult> got = svc.run_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(got[i].ok) << got[i].error;
    const sssp::SsspResult ref =
        sssp::dijkstra(snap->graph(), snap->weights(), batch[i].s);
    EXPECT_EQ(got[i].distance, ref.dist[batch[i].t]);
    EXPECT_EQ(got[i].s, batch[i].s);
    EXPECT_EQ(got[i].t, batch[i].t);
    EXPECT_EQ(got[i].value, got[i].distance);
    EXPECT_EQ(got[i].cardinality, 1u);  // connected fixture: always reachable
    EXPECT_GT(got[i].settled_nodes, 0u);
  }
}

TEST(ShortcutService, PointToPointBatchesOnPooledScratchesMatchSequentialRuns) {
  // 96 s–t queries (every fourth with s == t) on the service's scratch
  // free list: at 4 and 8 threads several queries hold scratches at once
  // and each scratch serves queries of different sizes in turn, yet every
  // digest equals that of the query run alone on a fresh service.
  const auto snap = small_snapshot(13, 600);
  const ShortcutService svc(snap, 3);
  Rng pick(91);
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < 96; ++i) {
    QueryRequest q;
    q.id = 700 + i;
    q.kind = QueryKind::kPointToPoint;
    q.s = pick.uniform(snap->num_vertices());
    q.t = i % 4 == 0 ? q.s : pick.uniform(snap->num_vertices());
    batch.push_back(q);
  }
  std::vector<QueryResult> sequential;
  for (const QueryRequest& q : batch) sequential.push_back(ShortcutService(snap, 3).run(q));

  ThreadOverrideGuard guard;
  for (const unsigned threads : {1u, 4u, 8u}) {
    set_num_threads(threads);
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<QueryResult> got = svc.run_batch(batch);
      ASSERT_EQ(got.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(got[i].ok) << got[i].error;
        expect_same_result(got[i], sequential[i]);
        EXPECT_EQ(got[i].settled_nodes, sequential[i].settled_nodes);
      }
    }
  }
}

TEST(ShortcutService, MstBatchesOnPooledScratchesMatchSequentialRuns) {
  // 24 MST queries (rotating betas, one with a known diameter) on the
  // service's Borůvka scratch free list: at 4 and 8 threads several
  // queries hold scratches at once and each scratch serves many queries in
  // turn, yet every digest equals that of the query run alone on a fresh
  // service.
  const auto snap = small_snapshot(17, 200);
  const ShortcutService svc(snap, 5);
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < 24; ++i) {
    QueryRequest q;
    q.id = 900 + i;
    q.kind = QueryKind::kMst;
    q.beta = 0.5 + 0.25 * (i % 3);
    if (i == 7) q.diameter = 3;
    batch.push_back(q);
  }
  std::vector<QueryResult> sequential;
  for (const QueryRequest& q : batch) sequential.push_back(ShortcutService(snap, 5).run(q));

  ThreadOverrideGuard guard;
  for (const unsigned threads : {1u, 4u, 8u}) {
    set_num_threads(threads);
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<QueryResult> got = svc.run_batch(batch);
      ASSERT_EQ(got.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(got[i].ok) << got[i].error;
        expect_same_result(got[i], sequential[i]);
      }
    }
  }
}

TEST(ShortcutService, PointToPointOutOfRangeEndpointsFailDeterministically) {
  const auto snap = small_snapshot();
  const ShortcutService svc(snap, 3);
  QueryRequest q;
  q.id = 9001;
  q.kind = QueryKind::kPointToPoint;
  q.s = snap->num_vertices();  // one past the end
  q.t = 0;

  ThreadOverrideGuard guard;
  set_num_threads(1);
  const QueryResult ref = svc.run_batch({q})[0];
  EXPECT_FALSE(ref.ok);
  EXPECT_FALSE(ref.error.empty());
  set_num_threads(4);
  expect_same_result(svc.run_batch({q})[0], ref);
}

TEST(QueryResultDigest, PinsTheTelemetryExclusionSet) {
  // The determinism contract compares digests across threads, shards, and
  // processes, so the digest must cover every deterministic field and no
  // telemetry field.  This test pins both sets: loosening the exclusion set
  // (digesting telemetry) breaks cross-replica gates; widening it (dropping
  // a content field) lets corruption slip past them.
  QueryResult r;
  r.id = 42;
  r.kind = QueryKind::kPointToPoint;
  r.ok = true;
  r.error = "";
  r.congestion = 3;
  r.dilation = 4;
  r.value = 700;
  r.cardinality = 1;
  r.rounds = 9;
  r.content_hash = 0xabcdefULL;
  r.s = 11;
  r.t = 29;
  r.distance = 700;
  const std::uint64_t base = r.digest();

  // Telemetry: excluded — mutating it must not move the digest.
  {
    QueryResult m = r;
    m.latency_ms = 123.5;
    m.queue_ms = 9.25;
    m.wave = 7;
    m.attempts = 3;
    m.served_by_replica = 1;
    m.settled_nodes = 5555;
    EXPECT_EQ(m.digest(), base);
  }
  // Content: included — each field alone must move the digest.
  const auto differs = [&](auto mutate) {
    QueryResult m = r;
    mutate(m);
    return m.digest() != base;
  };
  EXPECT_TRUE(differs([](QueryResult& m) { m.id ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.kind = QueryKind::kMincut; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.ok = false; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.error = "boom"; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.congestion ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.dilation ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.value ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.cardinality ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.rounds ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.content_hash ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.s ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.t ^= 1; }));
  EXPECT_TRUE(differs([](QueryResult& m) { m.distance ^= 1; }));
}

}  // namespace
