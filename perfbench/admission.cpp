// The streaming admission layer's probe, run as part of mix_gnm's traced
// run: an open loop at one constant offered rate from one generator thread
// into a StreamingService with its drain thread, on connected_gnm(150, 450).
// Three tenants: alpha and beta stay within their budgets, gamma is over
// budget and is throttled by its token buckets.  Cheap (shortcut build /
// quality) and heavy (MST / Karger) arrivals share one queue.
//
// It is not an end-to-end workload of its own.  The drain loop is idle most
// of the time, and the execution time of the same fixed arrival mix moved
// by a quarter between two sets of runs of identical code minutes apart,
// which the bounds cannot absorb (perfbench/README.md).  Its per-layer
// figures are counts and the layer's own timings: submit() time, queue wait
// (QueryResult::queue_ms), waves, queue depth, throttling, and how late the
// generator sent each arrival.
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "graph/generators.hpp"
#include "service/streaming.hpp"

namespace perfbench {

namespace {

using lcs::Rng;
using lcs::service::GraphSnapshot;
using lcs::service::QueryKind;
using lcs::service::QueryRequest;
using lcs::service::QueryResult;
using lcs::service::ShortcutService;
using lcs::service::StreamingService;

constexpr std::uint32_t kN = 150;
constexpr std::uint64_t kGraphSeed = 0x73747265616d5fULL;  ///< the graph is fixed
constexpr unsigned kRate = 240;  ///< offered arrivals per second (a constant)
constexpr std::uint64_t kVerifyEvery = 6;
constexpr std::uint32_t kKargerTrials = 16;
const char* const kTenants[] = {"alpha", "beta", "gamma"};
constexpr std::uint32_t kOverBudget = 2;  ///< gamma

lcs::service::StreamingOptions streaming_options() {
  lcs::service::StreamingOptions opt;
  opt.max_queue = 1024;
  opt.cheap_slots = 4;
  opt.heavy_slots = 2;
  opt.drain_thread = true;
  for (std::uint32_t t = 0; t < 3; ++t) {
    lcs::service::TenantConfig c;
    c.name = kTenants[t];
    if (t == kOverBudget) {
      c.cheap = {4, 100};  // one cheap query per 10 waves
      c.heavy = {2, 50};
    } else {
      c.cheap = {64, 4000};
      c.heavy = {32, 2000};
    }
    opt.tenants.push_back(c);
  }
  return opt;
}

struct Arrival {
  QueryRequest q;
  std::uint32_t tenant = 0;
  Clock::time_point due, submit_start, submit_end;
  bool admitted = false;
  QueryResult result;
  lcs::service::ArrivalVerdict verdict;
};

/// Arrivals come in blocks of 100 with exact shares, shuffled by the seed
/// within each block: tenants alpha 42, beta 42, gamma 16; kinds 90 shortcut
/// builds, 2 quality measurements, 6 MSTs, 2 Karger mincuts; betas cycle
/// through three values.  Exact shares keep the offered mix, and with it the
/// tail percentiles, the same on every seed.
std::vector<Arrival> make_arrivals(std::uint64_t seed, std::size_t count) {
  Rng rng(lcs::hash64(seed ^ 0x57e4));
  std::vector<Arrival> out(count);
  const double betas[] = {0.75, 1.0, 1.25};
  std::vector<std::uint32_t> tenants, kinds;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 100 == 0) {
      tenants.assign(42, 0);
      tenants.resize(84, 1);
      tenants.resize(100, 2);
      kinds.assign(90, 0);
      kinds.resize(92, 1);
      kinds.resize(98, 2);
      kinds.resize(100, 3);
      rng.shuffle(tenants);
      rng.shuffle(kinds);
    }
    Arrival& a = out[i];
    a.tenant = tenants[i % 100];
    a.q.id = i + 1;
    a.q.beta = betas[i % 3];
    switch (kinds[i % 100]) {
      case 0: a.q.kind = QueryKind::kShortcutBuild; break;
      case 1: a.q.kind = QueryKind::kShortcutQuality; break;
      case 2: a.q.kind = QueryKind::kMst; break;
      default:
        a.q.kind = QueryKind::kMincut;
        a.q.karger_trials = kKargerTrials;
    }
  }
  return out;
}

struct Pass {
  std::vector<Arrival> arrivals;
  std::vector<lcs::service::ScheduleEvent> schedule;
  std::vector<lcs::service::WaveRecord> waves;
  std::unordered_map<std::uint32_t, double> wave_ms;  ///< execution time of each wave
};

/// Offer every arrival at its due time, then collect every admitted result.
Pass run_pass(StreamingService& stream, std::vector<Arrival> arrivals) {
  Pass p;
  std::vector<StreamingService::Ticket> tickets;
  tickets.reserve(arrivals.size());
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto period = std::chrono::duration<double>(1.0 / kRate);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (i % kRate == 0) next_cpu();  // once a second
    Arrival& a = arrivals[i];
    a.due = start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    std::this_thread::sleep_until(a.due);
    a.submit_start = Clock::now();
    tickets.push_back(stream.submit(kTenants[a.tenant], a.q));
    a.submit_end = Clock::now();
    a.verdict = tickets.back().verdict();
    a.admitted = tickets.back().admitted();
  }
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    if (arrivals[i].admitted) arrivals[i].result = stream.wait(tickets[i]);
  p.schedule = stream.schedule();
  p.waves = stream.wave_records();
  for (const Arrival& a : arrivals)
    if (a.admitted) p.wave_ms[a.result.wave] += a.result.latency_ms;
  p.arrivals = std::move(arrivals);
  return p;
}

/// Correctness gate: every admitted result ok, and a seeded sample equal to
/// a direct run() of the same request on the same snapshot and seed.
std::vector<char> verify(const Pass& p, const ShortcutService& direct, std::uint64_t seed,
                         Report& rep, std::uint64_t& checked) {
  std::vector<char> bad(p.arrivals.size(), 0);
  for (std::size_t i = 0; i < p.arrivals.size(); ++i) {
    const Arrival& a = p.arrivals[i];
    if (!a.admitted) continue;
    std::string why = a.result.ok ? "" : "failed: " + a.result.error;
    if (why.empty() && picked(seed, a.q.id, kVerifyEvery, 0xc4)) {
      ++checked;
      if (direct.run(a.q).digest() != a.result.digest()) why = "digest differs from run()";
    }
    if (!why.empty()) {
      bad[i] = 1;
      rep.fail("arrival " + std::to_string(a.q.id) + " " + why);
    }
  }
  return bad;
}

}  // namespace

void measure_admission(const Config& cfg, Tracer& tr, Report& rep) {
  Rng gen(kGraphSeed);
  const lcs::graph::Graph g = lcs::graph::connected_gnm(kN, 3 * kN, gen);
  const std::uint64_t service_seed = lcs::hash64(cfg.seed ^ 0x5e7);
  const WarmSnapshot w = build_warm_snapshot(g, tr);
  const auto t0 = Clock::now();
  auto stream = std::make_unique<StreamingService>(ShortcutService(w.snap, service_seed),
                                                   streaming_options());
  tr.record("streaming", "StreamingService start", 0, t0, Clock::now());
  const Pass pass = run_pass(*stream, make_arrivals(cfg.seed, std::size_t{kRate} * cfg.seconds));
  stream.reset();

  // Every admitted arrival and every in-budget shed is an attempt; gamma's
  // throttling is the budget working, not a failure.
  const ShortcutService direct(w.snap, service_seed);
  std::uint64_t checked = 0;
  const std::vector<char> bad = verify(pass, direct, cfg.seed, rep, checked);
  std::uint64_t admitted = 0, throttled = 0, over_budget = 0;
  for (std::size_t i = 0; i < pass.arrivals.size(); ++i) {
    const Arrival& a = pass.arrivals[i];
    const bool over = a.tenant == kOverBudget;
    over_budget += over ? 1 : 0;
    admitted += a.admitted ? 1 : 0;
    if (!a.admitted && over) {
      ++throttled;
      continue;
    }
    ++rep.attempted;
    if (!a.admitted) {
      ++rep.failed;
      rep.fail("in-budget arrival " + std::to_string(a.q.id) + " was shed");
    } else if (bad[i]) {
      ++rep.failed;
    }
  }
  rep.info["admission.arrivals"] = static_cast<double>(pass.arrivals.size());
  rep.info["admission.offered_rate"] = kRate;
  rep.info["admission.verified"] = static_cast<double>(checked);

  const auto after = [](Clock::time_point t, double ms) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
  };
  std::vector<double> submit_us, queue_ms, depth, lag;
  for (const Arrival& a : pass.arrivals) {
    // Spans from the timestamps the generator and the service took; the
    // arrival ends when its wave's results are published.
    const auto end = a.admitted
                         ? after(a.submit_end, a.result.queue_ms + pass.wave_ms.at(a.result.wave))
                         : a.submit_end;
    const std::uint32_t root = tr.record("bench", "arrival", a.q.id, a.due, end);
    tr.record("streaming", "StreamingService::submit", a.q.id, a.submit_start, a.submit_end,
              root);
    submit_us.push_back(ms_between(a.submit_start, a.submit_end) * 1000.0);
    depth.push_back(static_cast<double>(a.verdict.queue_depth));
    lag.push_back(ms_between(a.due, a.submit_start));
    if (!a.admitted) continue;
    queue_ms.push_back(a.result.queue_ms);
    const auto dispatch = after(a.submit_end, a.result.queue_ms);
    tr.record("streaming", "queue wait", a.q.id, a.submit_end, dispatch, root);
    tr.record("service", "ShortcutService::run", a.q.id, dispatch,
              after(dispatch, a.result.latency_ms), root);
  }
  require_tail_samples("admission.submit_us_p99", submit_us.size(), 0.99);
  require_tail_samples("admission.queue_wait_ms_p99", queue_ms.size(), 0.99);
  rep.set("admission.submit_us_p99", quantile(submit_us, 0.99));
  rep.set("admission.queue_wait_ms_p50", median(queue_ms));
  rep.set("admission.queue_wait_ms_p99", quantile(queue_ms, 0.99));
  rep.set("admission.waves", static_cast<double>(pass.waves.size()));
  rep.set("admission.mean_wave_size",
          static_cast<double>(admitted) / static_cast<double>(pass.waves.size()));
  rep.set("admission.queue_depth_p99", quantile(depth, 0.99));
  rep.set("admission.throttled_share",
          static_cast<double>(throttled) / static_cast<double>(over_budget));
  rep.set("admission.journal_events", static_cast<double>(pass.schedule.size()));
  rep.set("loadgen.lag_ms_p99", quantile(lag, 0.99));
}

}  // namespace perfbench
