// Stress and edge-case tests for the deterministic task pool: empty counts,
// nesting rejection, exception propagation, thread-count resolution, the
// OnceMemo no-deadlock rule, and n=0 / n=1 graphs through the kernels.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "congest/programs.hpp"
#include "congest/simulator.hpp"
#include "core/kp.hpp"
#include "core/shortcut.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/weighted.hpp"
#include "mincut/mincut.hpp"
#include "util/once_memo.hpp"
#include "util/parallel.hpp"

namespace lcs {
namespace {

/// Runs each test body at a fixed thread count, restoring the prior state.
class ParallelPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = thread_override(); }
  void TearDown() override { set_num_threads(previous_); }

 private:
  unsigned previous_ = 0;
};

TEST_F(ParallelPoolTest, EmptyRangeRunsNothing) {
  for (const unsigned t : {1u, 4u}) {
    set_num_threads(t);
    std::atomic<int> calls{0};
    parallel_tasks(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST_F(ParallelPoolTest, EveryIndexExecutedExactlyOnce) {
  for (const unsigned t : {1u, 2u, 8u}) {
    set_num_threads(t);
    std::vector<int> hits(1000, 0);
    parallel_tasks(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST_F(ParallelPoolTest, ParallelTasksIsTopLevelOnly) {
  for (const unsigned threads : {1u, 4u}) {
    set_num_threads(threads);
    // Not callable from another task, not even with an empty count...
    EXPECT_THROW(parallel_tasks(2,
                                [&](std::size_t) {
                                  parallel_tasks(2, [](std::size_t) {});
                                }),
                 std::invalid_argument);
    EXPECT_THROW(parallel_tasks(1, [&](std::size_t) { parallel_tasks(0, [](std::size_t) {}); }),
                 std::invalid_argument);
    // ...and the flag unwinds: a fresh batch still works.
    std::atomic<int> calls{0};
    parallel_tasks(3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 3);
  }
}

TEST_F(ParallelPoolTest, ParallelTasksSmallestTaskExceptionWins) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    std::string what;
    try {
      parallel_tasks(40, [](std::size_t t) {
        if (t == 11 || t == 29) throw std::runtime_error(std::to_string(t));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "11");
    EXPECT_FALSE(in_parallel_region());
  }
}

TEST_F(ParallelPoolTest, ThrowingTasksRunTheSameTaskSetAtEveryThreadCount) {
  for (const unsigned threads : {1u, 4u}) {
    set_num_threads(threads);
    std::vector<std::atomic<int>> ran(16);
    std::string what;
    try {
      parallel_tasks(ran.size(), [&](std::size_t t) {
        ++ran[t];
        if (t == 0 || t == 5) throw std::runtime_error("task " + std::to_string(t));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "task 0") << threads << " threads";
    for (std::size_t t = 0; t < ran.size(); ++t)
      EXPECT_EQ(ran[t].load(), 1) << "task " << t << " at " << threads << " threads";
  }
}

TEST_F(ParallelPoolTest, ExceptionPropagatesOutOfWorker) {
  for (const unsigned t : {1u, 2u, 8u}) {
    set_num_threads(t);
    EXPECT_THROW(parallel_tasks(64,
                                [](std::size_t i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
  }
}

TEST_F(ParallelPoolTest, ThreadCountResolutionOrder) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  EXPECT_EQ(thread_override(), 3u);
  set_num_threads(0);  // back to LCS_THREADS / hardware
  EXPECT_GE(num_threads(), 1u);
  EXPECT_EQ(thread_override(), 0u);
}

TEST_F(ParallelPoolTest, PoolSurvivesReconfiguration) {
  for (const unsigned t : {2u, 8u, 1u, 4u}) {
    set_num_threads(t);
    std::atomic<int> calls{0};
    parallel_tasks(32, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 32);
  }
}

TEST_F(ParallelPoolTest, InParallelRegionFlag) {
  for (const unsigned t : {1u, 4u}) {
    set_num_threads(t);
    EXPECT_FALSE(in_parallel_region());
    std::vector<int> inside(8, 0);
    parallel_tasks(inside.size(), [&](std::size_t i) { inside[i] = in_parallel_region(); });
    EXPECT_EQ(inside, std::vector<int>(8, 1));
    EXPECT_FALSE(in_parallel_region());
  }
}

// --- degenerate graphs through the kernels -----------------------------------

TEST_F(ParallelPoolTest, EmptyPartitionThroughQualityPaths) {
  for (const unsigned t : {1u, 8u}) {
    set_num_threads(t);
    const graph::Graph g = graph::path_graph(1);  // n=1, no edges
    graph::Partition parts;                       // no parts at all
    core::ShortcutSet sc;
    const core::QualityReport rep = core::measure_quality(g, parts, sc);
    EXPECT_TRUE(rep.all_covered);
    EXPECT_EQ(rep.congestion, 0u);
    EXPECT_TRUE(core::edge_congestion(g, parts, sc).empty());
  }
}

TEST_F(ParallelPoolTest, TinyGraphsThroughKpPaths) {
  for (const unsigned t : {1u, 8u}) {
    set_num_threads(t);
    // n=1 is rejected by the parameter contract identically at any thread
    // count (ShortcutParams needs n >= 2)...
    const graph::Graph one = graph::path_graph(1);
    core::KpOptions opt;
    opt.diameter = 1;
    EXPECT_THROW(core::build_kp_shortcuts(one, graph::singleton_partition(one), opt),
                 std::invalid_argument);
    // ...and n=2 is the smallest instance that flows through the sampling
    // and the streamed measurement end to end.
    const graph::Graph two = graph::path_graph(2);
    const graph::Partition parts = graph::singleton_partition(two);
    const core::KpBuildResult built = core::build_kp_shortcuts(two, parts, opt);
    EXPECT_EQ(built.shortcuts.h.size(), 2u);
    const core::KpStreamReport stream = core::measure_kp_quality(two, parts, opt);
    EXPECT_TRUE(stream.quality.all_covered);
  }
}

TEST_F(ParallelPoolTest, TwoVertexGraphThroughQuality) {
  for (const unsigned t : {1u, 8u}) {
    set_num_threads(t);
    const graph::Graph g = graph::path_graph(2);
    graph::Partition parts;
    parts.parts = {{0, 1}};
    core::ShortcutSet sc;
    sc.h.resize(1);
    const core::QualityReport rep = core::measure_quality(g, parts, sc);
    EXPECT_TRUE(rep.all_covered);
    EXPECT_EQ(rep.congestion, 1u);
    EXPECT_EQ(rep.dilation_ub, 1u);
  }
}

// The simulator runs on its caller's thread whatever the pool size; these two
// check that a configured pool changes nothing about a run's outcome.
TEST_F(ParallelPoolTest, SingleNodeSimulatorParallelMode) {
  for (const unsigned t : {1u, 8u}) {
    set_num_threads(t);
    const graph::Graph g = graph::path_graph(1);
    congest::Simulator sim(g);
    congest::BfsProgram bfs(1, 0, 10);
    const congest::RunStats stats = sim.run(bfs, 10);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.messages, 0u);
    EXPECT_EQ(bfs.dist()[0], 0u);
  }
}

TEST_F(ParallelPoolTest, CapacityViolationPropagatesFromParallelRound) {
  // Every node sends three messages per incident edge at capacity 1: the
  // first over-capacity send leaves run() as the precondition error.
  struct Flooder : congest::Program {
    void on_round(congest::NodeContext& ctx) override {
      for (const graph::HalfEdge he : ctx.topology().neighbors(ctx.node()))
        for (int k = 0; k < 3; ++k) ctx.send(he.edge, congest::Message{});
    }
  };
  for (const unsigned t : {1u, 8u}) {
    set_num_threads(t);
    const graph::Graph g = graph::path_graph(8);
    congest::Simulator sim(g, 1);
    Flooder p;
    try {
      sim.run(p, 2);
      FAIL() << "over-capacity send did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("edge capacity exceeded"), std::string::npos)
          << e.what();
    }
  }
}

// --- OnceMemo (the artifact-cache primitive, PR 5) ---------------------------

TEST_F(ParallelPoolTest, OnceMemoClaimsEachKeyOnceUnderContention) {
  for (const unsigned t : {1u, 8u}) {
    set_num_threads(t);
    OnceMemo<int, int> memo;
    std::atomic<int> computes{0};
    std::vector<int> got(64, -1);
    // 64 lookups over 4 keys from every worker at once.  Each key is
    // claimed (inserted) exactly once; racing tasks that find it in flight
    // compute a private bit-identical copy (bypass) instead of blocking a
    // pool worker.
    parallel_tasks(got.size(), [&](std::size_t i) {
      const int key = static_cast<int>(i % 4);
      got[i] = *memo.get_or_compute(key, [&] {
        ++computes;
        return key * 10;
      });
    });
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], int(i % 4) * 10);
    const MemoStats s = memo.stats();
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(static_cast<std::uint64_t>(computes.load()), s.misses + s.bypasses);
    EXPECT_EQ(s.hits + s.misses + s.bypasses, 64u);
    EXPECT_EQ(s.lookups(), 64u);
    EXPECT_EQ(memo.size(), 4u);
  }
}

TEST_F(ParallelPoolTest, OnceMemoInRegionCallersNeverBlockOnInflightOwner) {
  // The no-deadlock rule end to end: a top-level owner claims a key and —
  // while still in flight — needs the pool; concurrently, pool tasks look
  // the same key up.  Blocking them would deadlock (the pool can never
  // drain for the owner).  With the bypass rule the tasks compute private
  // copies, the pool drains, and the owner's own parallel_tasks proceeds.
  set_num_threads(4);
  OnceMemo<int, int> memo;
  std::atomic<bool> owner_started{false};
  std::atomic<bool> tasks_done{false};

  std::thread owner([&] {
    const auto v = memo.get_or_compute(5, [&] {
      owner_started = true;
      // Wait until the pool-side lookups went through, then use the pool
      // from inside the compute — the deadlock shape this rule prevents.
      while (!tasks_done) std::this_thread::yield();
      std::atomic<int> sum{0};
      parallel_tasks(8, [&](std::size_t i) { sum += static_cast<int>(i); });
      return 100 + sum.load();
    });
    EXPECT_EQ(*v, 128);
  });

  while (!owner_started) std::this_thread::yield();
  std::vector<int> got(6, -1);
  parallel_tasks(got.size(), [&](std::size_t i) {
    got[i] = *memo.get_or_compute(5, [] { return 128; });  // must not block
  });
  tasks_done = true;
  owner.join();

  for (const int v : got) EXPECT_EQ(v, 128);
  const MemoStats s = memo.stats();
  EXPECT_EQ(s.misses, 1u);       // the owner's claim
  EXPECT_EQ(s.bypasses, 6u);     // every task bypassed the in-flight owner
  EXPECT_EQ(*memo.get_or_compute(5, [] { return -1; }), 128);  // owner's value cached
}

TEST_F(ParallelPoolTest, OnceMemoSharesOneValueInstancePerKey) {
  OnceMemo<int, std::vector<int>> memo;
  const auto a = memo.get_or_compute(1, [] { return std::vector<int>{1, 2, 3}; });
  const auto b = memo.get_or_compute(1, [] { return std::vector<int>{9, 9, 9}; });
  EXPECT_EQ(a.get(), b.get());  // second compute never ran
  EXPECT_EQ(*b, (std::vector<int>{1, 2, 3}));
}

TEST_F(ParallelPoolTest, OnceMemoEvictsCompletedEntriesAtCapacity) {
  OnceMemo<int, int> memo(2);
  (void)*memo.get_or_compute(1, [] { return 1; });
  (void)*memo.get_or_compute(2, [] { return 2; });
  EXPECT_EQ(memo.size(), 2u);
  (void)*memo.get_or_compute(3, [] { return 3; });  // overflow: flush completed
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.stats().evictions, 2u);
  // Evicted keys recompute bit-identical values.
  EXPECT_EQ(*memo.get_or_compute(1, [] { return 1; }), 1);
  memo.clear();
  EXPECT_EQ(memo.size(), 0u);
}

TEST_F(ParallelPoolTest, OnceMemoDoesNotCacheFailures) {
  OnceMemo<int, int> memo;
  int attempts = 0;
  const auto failing = [&]() -> int {
    ++attempts;
    if (attempts == 1) throw std::runtime_error("first compute fails");
    return 42;
  };
  EXPECT_THROW((void)memo.get_or_compute(7, failing), std::runtime_error);
  EXPECT_EQ(memo.size(), 0u);  // the failed slot was erased...
  EXPECT_EQ(*memo.get_or_compute(7, failing), 42);  // ...so the retry computes
  EXPECT_EQ(attempts, 2);
}

// --- kernels inside saturated tasks -------------------------------------------

TEST_F(ParallelPoolTest, NestedKargerInsideSaturatedTasksIsByteIdentical) {
  // More tasks than workers, each running karger_mincut on the task's
  // thread.  Every result must equal the top-level run of the same seed.
  Rng gen(63);
  const graph::Graph g = graph::connected_gnm(80, 240, gen);
  const graph::EdgeWeights w = graph::random_weights(g, 6, gen);
  constexpr std::size_t kTasks = 12;  // > any pool size used below
  constexpr std::uint32_t kTrials = 6;

  // Top-level reference, one seed per task index.
  std::vector<mincut::CutResult> reference;
  for (std::size_t i = 0; i < kTasks; ++i) {
    Rng r(900 + i);
    reference.push_back(mincut::karger_mincut(g, w, kTrials, r));
  }

  for (const unsigned t : {1u, 2u, 8u}) {
    set_num_threads(t);
    std::vector<mincut::CutResult> nested(kTasks);
    parallel_tasks(kTasks, [&](std::size_t i) {
      Rng r(900 + i);
      nested[i] = mincut::karger_mincut(g, w, kTrials, r);
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(nested[i].value, reference[i].value) << "task " << i << " t" << t;
      EXPECT_EQ(nested[i].side, reference[i].side) << "task " << i << " t" << t;
    }
  }
}

}  // namespace
}  // namespace lcs
