// Streaming admission coverage (PR 9).
//
// The contract under test — determinism contract point 9: shedding is
// schedule-pure.  A StreamingService admits or sheds every submission
// synchronously, and the verdict sequence is a pure fold of the recorded
// arrival/wave schedule: replay_shed_schedule() over schedule() must equal
// verdicts() exactly, at any thread count, under any submit interleaving.
// Served results must be bit-identical to the sequential single-query
// oracle (ShortcutService::run), because admission changes only latency and
// the queue/wave telemetry, never content.  The token-bucket unit tests pin
// the refill arithmetic the fold runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"
#include "service/streaming.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using service::AdmissionLedger;
using service::ArrivalVerdict;
using service::CostClass;
using service::GraphSnapshot;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::ScheduleEvent;
using service::ShedReason;
using service::ShortcutService;
using service::StreamingOptions;
using service::StreamingService;
using service::TenantConfig;
using service::TokenBucketConfig;

std::shared_ptr<const GraphSnapshot> small_snapshot(std::uint64_t seed = 17,
                                                    std::uint32_t n = 120) {
  Rng gen(seed);
  return GraphSnapshot::build(graph::connected_gnm(n, 3 * n, gen));
}

/// Two real tenants with asymmetric budgets — tight enough that fuzz
/// schedules exercise every shed reason.
StreamingOptions two_tier_options(bool drain_thread = false) {
  StreamingOptions opt;
  opt.drain_thread = drain_thread;
  opt.cheap_slots = 3;
  opt.heavy_slots = 2;
  opt.tenants = {
      TenantConfig{"gold", TokenBucketConfig{8, 2000}, TokenBucketConfig{4, 1000}},
      TenantConfig{"bronze", TokenBucketConfig{3, 500}, TokenBucketConfig{1, 250}},
  };
  return opt;
}

// --- token-bucket unit tests -------------------------------------------------

TEST(AdmissionLedger, BurstEqualsBucketCapacity) {
  StreamingOptions opt;
  opt.tenants = {TenantConfig{"t", TokenBucketConfig{3, 0}, TokenBucketConfig{1, 0}}};
  AdmissionLedger ledger(opt);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(ledger.on_arrival(0, CostClass::kCheap).admitted()) << i;
  const ArrivalVerdict v = ledger.on_arrival(0, CostClass::kCheap);
  EXPECT_EQ(v.reason, ShedReason::kRateLimited);
  EXPECT_EQ(v.millitokens_after, 0u);
  // The heavy budget is independent of the cheap one.
  EXPECT_TRUE(ledger.on_arrival(0, CostClass::kHeavy).admitted());
  EXPECT_EQ(ledger.on_arrival(0, CostClass::kHeavy).reason, ShedReason::kRateLimited);
}

TEST(AdmissionLedger, RefillArithmeticAtBudgetBoundaries) {
  StreamingOptions opt;
  opt.tenants = {TenantConfig{"t", TokenBucketConfig{1, 500}, TokenBucketConfig{1, 1000}}};
  AdmissionLedger ledger(opt);
  // burst 1: the first arrival drains the bucket to exactly zero.
  EXPECT_EQ(ledger.on_arrival(0, CostClass::kCheap).millitokens_after, 0u);
  // refill 500: one wave leaves half a query — still shed, and a shed never
  // spends tokens; the second wave reaches exactly one query's worth.
  (void)ledger.next_wave();
  EXPECT_EQ(ledger.millitokens(0, CostClass::kCheap), 500u);
  const ArrivalVerdict shed = ledger.on_arrival(0, CostClass::kCheap);
  EXPECT_EQ(shed.reason, ShedReason::kRateLimited);
  EXPECT_EQ(shed.millitokens_after, 500u);
  (void)ledger.next_wave();
  EXPECT_EQ(ledger.millitokens(0, CostClass::kCheap), 1000u);
  const ArrivalVerdict ok = ledger.on_arrival(0, CostClass::kCheap);
  EXPECT_TRUE(ok.admitted());
  EXPECT_EQ(ok.millitokens_after, 0u);
  // Refills cap at burst capacity, never accumulate beyond it.
  for (int i = 0; i < 10; ++i) (void)ledger.next_wave();
  EXPECT_EQ(ledger.millitokens(0, CostClass::kCheap), 1000u);
}

TEST(AdmissionLedger, ZeroRateTenantShedsEverythingDeterministically) {
  StreamingOptions opt;
  opt.tenants = {TenantConfig{"off", TokenBucketConfig{0, 0}, TokenBucketConfig{0, 0}},
                 TenantConfig{"on", TokenBucketConfig{4, 1000}, TokenBucketConfig{2, 500}}};
  AdmissionLedger ledger(opt);
  for (int i = 0; i < 6; ++i) {
    const CostClass cls = (i % 2 == 0) ? CostClass::kCheap : CostClass::kHeavy;
    const ArrivalVerdict v = ledger.on_arrival(0, cls);
    EXPECT_EQ(v.reason, ShedReason::kRateLimited) << i;
    EXPECT_EQ(v.millitokens_after, 0u) << i;
    if (i % 3 == 2) (void)ledger.next_wave();  // zero-capacity buckets stay zero
  }
  EXPECT_TRUE(ledger.on_arrival(1, CostClass::kCheap).admitted());  // unaffected
  EXPECT_EQ(ledger.counters(0).admitted, 0u);
  EXPECT_EQ(ledger.counters(0).shed_rate_limited, 6u);
}

TEST(AdmissionLedger, IdenticalTenantsGetIdenticalVerdictSequences) {
  StreamingOptions opt;
  const TokenBucketConfig cheap{2, 500};
  const TokenBucketConfig heavy{1, 250};
  opt.tenants = {TenantConfig{"a", cheap, heavy}, TenantConfig{"b", cheap, heavy}};
  AdmissionLedger ledger(opt);
  // Same class for both tenants in the same order: with an ample queue only
  // the buckets decide, so the per-tenant (reason, bucket) streams must
  // match exactly — QoS depends on config, never on registration order.
  std::vector<std::pair<ShedReason, std::uint64_t>> a, b;
  Rng rng(99);
  for (int step = 0; step < 40; ++step) {
    const CostClass cls = (rng() % 3 == 0) ? CostClass::kHeavy : CostClass::kCheap;
    const ArrivalVerdict va = ledger.on_arrival(0, cls);
    const ArrivalVerdict vb = ledger.on_arrival(1, cls);
    a.emplace_back(va.reason, va.millitokens_after);
    b.emplace_back(vb.reason, vb.millitokens_after);
    if (step % 2 == 1) (void)ledger.next_wave();
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(ledger.counters(0), ledger.counters(1));
}

TEST(AdmissionLedger, QueueFullShedsBeforeSpendingTokens) {
  StreamingOptions opt;
  opt.max_queue = 2;
  opt.tenants = {TenantConfig{"t", TokenBucketConfig{10, 1000}, TokenBucketConfig{10, 1000}}};
  AdmissionLedger ledger(opt);
  EXPECT_TRUE(ledger.on_arrival(0, CostClass::kCheap).admitted());
  EXPECT_TRUE(ledger.on_arrival(0, CostClass::kHeavy).admitted());
  const ArrivalVerdict full = ledger.on_arrival(0, CostClass::kCheap);
  EXPECT_EQ(full.reason, ShedReason::kQueueFull);
  EXPECT_EQ(full.millitokens_after, 9000u);  // bucket untouched by the shed
  EXPECT_EQ(ledger.counters(0).shed_queue_full, 1u);
  EXPECT_EQ(ledger.tenant_index("nobody"), service::kInvalidTenant);
  EXPECT_EQ(ledger.on_arrival(service::kInvalidTenant, CostClass::kCheap).reason,
            ShedReason::kUnknownTenant);
}

TEST(AdmissionLedger, WavesGrantStrictPerClassFifoSlots) {
  StreamingOptions opt;
  opt.cheap_slots = 2;
  opt.heavy_slots = 1;
  opt.tenants = {TenantConfig{"t", TokenBucketConfig{16, 4000}, TokenBucketConfig{16, 4000}}};
  AdmissionLedger ledger(opt);
  // Arrival order H H C C C (indices 0..4): cheap still gets both its slots
  // in the first wave — heavy backlog can never starve the cheap class.
  (void)ledger.on_arrival(0, CostClass::kHeavy);
  (void)ledger.on_arrival(0, CostClass::kHeavy);
  (void)ledger.on_arrival(0, CostClass::kCheap);
  (void)ledger.on_arrival(0, CostClass::kCheap);
  (void)ledger.on_arrival(0, CostClass::kCheap);
  const AdmissionLedger::WaveGrant g1 = ledger.next_wave();
  EXPECT_EQ(g1.members, (std::vector<std::uint64_t>{2, 3, 0}));
  EXPECT_EQ(g1.record.cheap_granted, 2u);
  EXPECT_EQ(g1.record.heavy_granted, 1u);
  const AdmissionLedger::WaveGrant g2 = ledger.next_wave();
  EXPECT_EQ(g2.members, (std::vector<std::uint64_t>{4, 1}));
  EXPECT_EQ(ledger.queue_depth(), 0u);
}

TEST(AdmissionLedger, RejectsInvalidOptions) {
  StreamingOptions no_tenants;
  EXPECT_THROW(AdmissionLedger{no_tenants}, std::invalid_argument);
  StreamingOptions dup = two_tier_options();
  dup.tenants[1].name = dup.tenants[0].name;
  EXPECT_THROW(AdmissionLedger{dup}, std::invalid_argument);
  StreamingOptions anon = two_tier_options();
  anon.tenants[0].name.clear();
  EXPECT_THROW(AdmissionLedger{anon}, std::invalid_argument);
  StreamingOptions no_slots = two_tier_options();
  no_slots.cheap_slots = 0;
  EXPECT_THROW(AdmissionLedger{no_slots}, std::invalid_argument);
}

// --- fuzz fleet: open-loop schedules vs the sequential oracle ----------------

/// One generated open-loop event: either a wave tick or a (tenant, query)
/// arrival.  "ghost" is deliberately unregistered.
struct FuzzEvent {
  bool wave = false;
  std::string tenant;
  QueryRequest req;
};

std::vector<FuzzEvent> fuzz_schedule(std::uint64_t seed, std::uint64_t id_base,
                                     std::size_t events) {
  std::vector<FuzzEvent> out;
  Rng rng(seed);
  const char* tenants[3] = {"gold", "bronze", "ghost"};
  std::uint64_t next_id = id_base;
  for (std::size_t i = 0; i < events; ++i) {
    FuzzEvent e;
    if (rng() % 5 == 0) {
      e.wave = true;
    } else {
      e.tenant = tenants[rng() % 3];
      QueryRequest q;
      q.id = next_id++;
      q.kind = static_cast<QueryKind>(rng() % 5);
      q.beta = (rng() % 2 == 0) ? 0.5 : 1.0;
      q.karger_trials = (rng() % 8 == 3) ? 6 : 0;
      q.s = static_cast<std::uint32_t>(rng() % 120);  // fixture is n = 120
      q.t = static_cast<std::uint32_t>(rng() % 120);
      e.req = q;
    }
    out.push_back(e);
  }
  return out;
}

/// Everything one schedule run produced, in comparable form.
struct StreamOutcome {
  std::vector<ArrivalVerdict> verdicts;
  std::vector<ScheduleEvent> schedule;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> served;  // (id, digest), sorted
};

StreamOutcome run_schedule(const std::shared_ptr<const GraphSnapshot>& snap,
                           const StreamingOptions& opt,
                           const std::vector<FuzzEvent>& events) {
  StreamingService svc(ShortcutService(snap, 7), opt);
  std::vector<std::pair<QueryRequest, StreamingService::Ticket>> admitted;
  for (const FuzzEvent& e : events) {
    if (e.wave) {
      svc.drain_wave();
    } else {
      StreamingService::Ticket t = svc.submit(e.tenant, e.req);
      if (t.admitted()) {
        admitted.emplace_back(e.req, std::move(t));
      } else {
        EXPECT_FALSE(t.shed_text().empty());
      }
    }
  }
  svc.drain_until_idle();
  StreamOutcome out;
  for (const auto& [req, ticket] : admitted) {
    const QueryResult r = svc.wait(ticket);
    EXPECT_EQ(r.id, req.id);
    out.served.emplace_back(req.id, r.digest());
  }
  std::sort(out.served.begin(), out.served.end());
  out.verdicts = svc.verdicts();
  out.schedule = svc.schedule();
  return out;
}

TEST(StreamingService, FuzzFleetMatchesOracleAndRepliesIdenticallyAcrossThreads) {
  const auto snap = small_snapshot();
  const StreamingOptions opt = two_tier_options();
  const ShortcutService oracle(snap, 7);

  ThreadOverrideGuard guard;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<FuzzEvent> events = fuzz_schedule(1000 + seed, seed * 100000, 140);
    std::unordered_map<std::uint64_t, QueryRequest> by_id;
    for (const FuzzEvent& e : events)
      if (!e.wave) by_id.emplace(e.req.id, e.req);

    StreamOutcome ref;
    bool have_ref = false;
    for (const unsigned threads : {1u, 2u, 8u}) {
      set_num_threads(threads);
      const StreamOutcome got = run_schedule(snap, opt, events);
      // Contract point 9: the recorded schedule re-folds to the identical
      // verdict sequence — the shed set is byte-identical on replay.
      EXPECT_EQ(got.verdicts, service::replay_shed_schedule(opt, got.schedule));
      if (!have_ref) {
        ref = got;
        have_ref = true;
      } else {
        // The schedule is fixed, so every thread count must reproduce the
        // whole outcome: verdicts, schedule, and served digests.
        EXPECT_EQ(got.verdicts, ref.verdicts) << "threads " << threads;
        EXPECT_EQ(got.schedule, ref.schedule) << "threads " << threads;
        EXPECT_EQ(got.served, ref.served) << "threads " << threads;
      }
    }

    // Served results are bit-identical to the sequential single-query
    // oracle: admission never changes content (digests exclude telemetry).
    set_num_threads(1);
    EXPECT_FALSE(ref.served.empty());
    for (const auto& [id, digest] : ref.served) {
      const auto it = by_id.find(id);
      ASSERT_NE(it, by_id.end());
      EXPECT_EQ(digest, oracle.run(it->second).digest()) << "id " << id;
    }
  }
}

TEST(StreamingService, ConcurrentSubmittersReplayIdentically) {
  const auto snap = small_snapshot();
  const StreamingOptions opt = two_tier_options(/*drain_thread=*/true);
  StreamingService svc(ShortcutService(snap, 7), opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::vector<std::pair<QueryRequest, StreamingService::Ticket>>> kept(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&svc, &kept, t] {
      Rng rng(500 + t);
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest q;
        q.id = 10000 + static_cast<std::uint64_t>(t) * 1000 + i;  // disjoint ids
        q.kind = static_cast<QueryKind>(rng() % 4);
        const char* tenant = (rng() % 4 == 0) ? "bronze" : "gold";
        StreamingService::Ticket ticket = svc.submit(tenant, q);
        if (ticket.admitted()) kept[t].emplace_back(q, std::move(ticket));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  svc.stop();  // drains the backlog; admitted queries are never dropped

  const ShortcutService oracle(snap, 7);
  std::uint64_t served = 0;
  for (const auto& bucket : kept) {
    for (const auto& [req, ticket] : bucket) {
      const QueryResult got = svc.wait(ticket);
      EXPECT_EQ(got.id, req.id);
      EXPECT_EQ(got.digest(), oracle.run(req).digest()) << "id " << req.id;
      ++served;
    }
  }
  EXPECT_GT(served, 0u);

  // Whatever arrival interleaving the race produced became the schedule —
  // and the schedule is all that matters: the journal re-folds exactly.
  EXPECT_EQ(svc.verdicts(), service::replay_shed_schedule(opt, svc.schedule()));

  // Conservation across tenants: every arrival is admitted or shed, every
  // admitted query was served by the stop() drain.
  std::uint64_t admitted = 0, arrivals = 0;
  for (const service::TenantStats& st : svc.tenant_stats()) {
    EXPECT_EQ(st.counters.arrivals,
              st.counters.admitted + st.counters.shed_queue_full +
                  st.counters.shed_rate_limited);
    EXPECT_EQ(st.served, st.counters.admitted);
    admitted += st.counters.admitted;
    arrivals += st.counters.arrivals;
  }
  EXPECT_EQ(arrivals, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(admitted, served);
  EXPECT_EQ(svc.queue_depth(), 0u);
}

// Determinism-contract point 9 for the s–t kind specifically: routing an
// all-kPointToPoint stream through admission (generous budgets — nothing
// shed) yields digests bit-identical to a direct run_batch over the same
// requests, at 1, 2 and 8 threads.
TEST(StreamingService, PointToPointAdmissionMatchesDirectBatch) {
  const auto snap = small_snapshot();
  StreamingOptions opt;
  opt.drain_thread = false;  // manual pump below
  opt.cheap_slots = 4;
  opt.heavy_slots = 1;
  opt.tenants = {TenantConfig{"gold", TokenBucketConfig{64, 100000},
                              TokenBucketConfig{8, 100000}}};
  std::vector<QueryRequest> batch;
  Rng pick(53);
  for (std::uint32_t i = 0; i < 20; ++i) {
    QueryRequest q;
    q.id = 40000 + i;
    q.kind = QueryKind::kPointToPoint;
    q.s = static_cast<std::uint32_t>(pick.uniform(snap->num_vertices()));
    q.t = static_cast<std::uint32_t>(pick.uniform(snap->num_vertices()));
    batch.push_back(q);
  }
  const ShortcutService direct(snap, 7);
  const std::vector<QueryResult> want = direct.run_batch(batch);

  ThreadOverrideGuard guard;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_num_threads(threads);
    StreamingService svc(ShortcutService(snap, 7), opt);
    std::vector<StreamingService::Ticket> tickets;
    for (const QueryRequest& q : batch) {
      StreamingService::Ticket t = svc.submit("gold", q);
      ASSERT_TRUE(t.admitted()) << t.shed_text();
      tickets.push_back(std::move(t));
    }
    svc.drain_until_idle();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const QueryResult got = svc.wait(tickets[i]);
      ASSERT_TRUE(got.ok) << got.error;
      EXPECT_EQ(got.digest(), want[i].digest())
          << "id " << batch[i].id << " at " << threads << " threads";
    }
  }
}

TEST(StreamingService, ClampedSparsifiedMincutsInOneWaveShareOneSkeletonCut) {
  // The mix_gnm graph, where p clamps: eight sparsified mincuts admitted
  // into one wave read one skeleton cut.  The first task to look it up
  // computes it and the rest wait for it, at every thread count.
  Rng gen(0x6d69785f676e6dULL);
  const graph::Graph g = graph::connected_gnm(300, 900, gen);
  StreamingOptions opt;
  opt.drain_thread = false;  // manual pump below
  opt.heavy_slots = 8;
  opt.tenants = {TenantConfig{"gold", TokenBucketConfig{8, 1000}, TokenBucketConfig{8, 1000}}};
  const double epses[] = {0.3, 0.4, 0.5};
  ThreadOverrideGuard guard;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    set_num_threads(threads);
    GraphSnapshot::Options snap_opt;
    snap_opt.prewarm_partition_pool = false;
    const auto snap = GraphSnapshot::build(g, snap_opt);
    StreamingService svc(ShortcutService(snap, 17), opt);
    std::vector<StreamingService::Ticket> tickets;
    for (std::uint64_t i = 0; i < 8; ++i) {
      QueryRequest q;
      q.id = 300 + 11 * i;
      q.kind = QueryKind::kMincut;
      q.eps = epses[i % 3];
      tickets.push_back(svc.submit("gold", q));
      ASSERT_TRUE(tickets.back().admitted()) << tickets.back().shed_text();
    }
    svc.drain_wave();
    for (const StreamingService::Ticket& t : tickets) EXPECT_TRUE(svc.wait(t).ok);
    const auto stats = snap->artifact_stats().sparsified_cut;
    EXPECT_EQ(stats.misses, 1u) << threads;
    EXPECT_EQ(stats.hits, 7u) << threads;
    EXPECT_EQ(stats.lookups(), 8u) << threads;
  }
}

// --- service misuse + lifecycle ----------------------------------------------

TEST(StreamingService, EmptyWavesAdvanceTheClockAndAreJournaled) {
  const auto snap = small_snapshot();
  StreamingService svc(ShortcutService(snap, 7), two_tier_options());
  svc.drain_wave();
  svc.drain_wave();
  EXPECT_EQ(svc.waves_completed(), 2u);
  EXPECT_EQ(svc.schedule().size(), 2u);
  EXPECT_TRUE(svc.verdicts().empty());
  EXPECT_EQ(svc.wave_records().size(), 2u);
}

TEST(StreamingService, SubmitAfterStopThrows) {
  const auto snap = small_snapshot();
  StreamingService svc(ShortcutService(snap, 7), two_tier_options(/*drain_thread=*/true));
  svc.stop();
  QueryRequest q;
  q.id = 1;
  EXPECT_THROW(svc.submit("gold", q), std::invalid_argument);
}

TEST(StreamingService, ManualPumpIsRejectedWithDrainThread) {
  const auto snap = small_snapshot();
  StreamingService svc(ShortcutService(snap, 7), two_tier_options(/*drain_thread=*/true));
  EXPECT_THROW(svc.drain_wave(), std::invalid_argument);
  EXPECT_THROW(svc.drain_until_idle(), std::invalid_argument);
}

TEST(StreamingService, WaitOnShedTicketThrows) {
  const auto snap = small_snapshot();
  StreamingService svc(ShortcutService(snap, 7), two_tier_options());
  QueryRequest q;
  q.id = 1;
  const StreamingService::Ticket shed = svc.submit("ghost", q);
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.verdict().reason, ShedReason::kUnknownTenant);
  EXPECT_EQ(shed.shed_text(), "shed: unknown tenant 'ghost'");
  EXPECT_THROW(svc.wait(shed), std::invalid_argument);
}

}  // namespace
