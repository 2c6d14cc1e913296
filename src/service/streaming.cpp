#include "service/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace lcs::service {
namespace {

std::uint64_t bucket_capacity(const TokenBucketConfig& cfg) {
  return static_cast<std::uint64_t>(cfg.burst) * kMilliTokensPerQuery;
}

}  // namespace

// ---------------------------------------------------------------------------
// AdmissionLedger — the pure fold.

AdmissionLedger::AdmissionLedger(StreamingOptions options) : opt_(std::move(options)) {
  LCS_REQUIRE(opt_.max_queue > 0, "streaming admission needs max_queue > 0");
  LCS_REQUIRE(opt_.cheap_slots > 0, "streaming admission needs cheap_slots > 0");
  LCS_REQUIRE(opt_.heavy_slots > 0, "streaming admission needs heavy_slots > 0");
  LCS_REQUIRE(!opt_.tenants.empty(), "streaming admission needs at least one tenant");
  tenants_.reserve(opt_.tenants.size());
  for (const TenantConfig& cfg : opt_.tenants) {
    LCS_REQUIRE(!cfg.name.empty(), "tenant names must be non-empty");
    const bool fresh =
        index_.emplace(cfg.name, static_cast<std::uint32_t>(tenants_.size())).second;
    LCS_REQUIRE(fresh, "tenant names must be distinct: " + cfg.name);
    TenantState st;
    st.cfg = cfg;
    st.cheap_millitokens = bucket_capacity(cfg.cheap);  // buckets start full
    st.heavy_millitokens = bucket_capacity(cfg.heavy);
    tenants_.push_back(std::move(st));
  }
}

std::uint32_t AdmissionLedger::tenant_index(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kInvalidTenant : it->second;
}

ArrivalVerdict AdmissionLedger::on_arrival(std::uint32_t tenant, CostClass cls) {
  ArrivalVerdict v;
  v.arrival = arrivals_++;
  v.tenant = tenant;
  v.cls = cls;
  v.admission_wave = waves_;
  if (tenant >= tenants_.size()) {
    v.tenant = kInvalidTenant;
    v.reason = ShedReason::kUnknownTenant;
    v.queue_depth = queue_depth();
    return v;
  }
  TenantState& t = tenants_[tenant];
  ++t.counters.arrivals;
  std::uint64_t& bucket =
      cls == CostClass::kCheap ? t.cheap_millitokens : t.heavy_millitokens;
  v.millitokens_after = bucket;
  if (queue_depth() >= opt_.max_queue) {
    // Checked before the bucket so backpressure never drains a budget.
    v.reason = ShedReason::kQueueFull;
    ++t.counters.shed_queue_full;
  } else if (bucket < kMilliTokensPerQuery) {
    v.reason = ShedReason::kRateLimited;
    ++t.counters.shed_rate_limited;
  } else {
    bucket -= kMilliTokensPerQuery;
    v.millitokens_after = bucket;
    (cls == CostClass::kCheap ? cheap_fifo_ : heavy_fifo_).push_back(v.arrival);
    ++t.counters.admitted;
  }
  v.queue_depth = queue_depth();
  return v;
}

AdmissionLedger::WaveGrant AdmissionLedger::next_wave() {
  WaveGrant g;
  g.record.wave = waves_;
  g.record.cheap_pending_before = cheap_fifo_.size();
  g.record.heavy_pending_before = heavy_fifo_.size();
  for (unsigned s = 0; s < opt_.cheap_slots && !cheap_fifo_.empty(); ++s) {
    g.members.push_back(cheap_fifo_.front());
    cheap_fifo_.pop_front();
    ++g.record.cheap_granted;
  }
  for (unsigned s = 0; s < opt_.heavy_slots && !heavy_fifo_.empty(); ++s) {
    g.members.push_back(heavy_fifo_.front());
    heavy_fifo_.pop_front();
    ++g.record.heavy_granted;
  }
  g.record.queue_depth_after = queue_depth();
  ++waves_;
  for (TenantState& t : tenants_) {
    t.cheap_millitokens = std::min(bucket_capacity(t.cfg.cheap),
                                   t.cheap_millitokens + t.cfg.cheap.refill_millitokens);
    t.heavy_millitokens = std::min(bucket_capacity(t.cfg.heavy),
                                   t.heavy_millitokens + t.cfg.heavy.refill_millitokens);
  }
  return g;
}

std::uint64_t AdmissionLedger::millitokens(std::uint32_t tenant, CostClass cls) const {
  LCS_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  const TenantState& t = tenants_[tenant];
  return cls == CostClass::kCheap ? t.cheap_millitokens : t.heavy_millitokens;
}

const TenantCounters& AdmissionLedger::counters(std::uint32_t tenant) const {
  LCS_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return tenants_[tenant].counters;
}

std::vector<ArrivalVerdict> replay_shed_schedule(const StreamingOptions& options,
                                                 const std::vector<ScheduleEvent>& schedule) {
  AdmissionLedger ledger(options);
  std::vector<ArrivalVerdict> verdicts;
  for (const ScheduleEvent& e : schedule) {
    if (e.kind == ScheduleEvent::Kind::kWave) {
      (void)ledger.next_wave();
    } else {
      verdicts.push_back(ledger.on_arrival(e.tenant, e.cls));
    }
  }
  return verdicts;
}

// ---------------------------------------------------------------------------
// StreamingService — the live loop around the fold.

struct StreamingService::Entry {
  QueryRequest request;
  std::uint32_t tenant = 0;
  std::chrono::steady_clock::time_point enqueued;
  QueryResult result;
  bool ready = false;  // guarded by the service mutex
};

StreamingService::StreamingService(ShortcutService service, StreamingOptions options)
    : svc_(std::move(service)),
      ledger_(std::move(options)),
      served_(ledger_.options().tenants.size(), 0) {
  if (ledger_.options().drain_thread) drain_ = std::thread([this] { drain_loop(); });
}

StreamingService::~StreamingService() { stop(); }

StreamingService::Ticket StreamingService::submit(const std::string& tenant,
                                                  const QueryRequest& request) {
  const CostClass cls = query_cost_class(request);
  Ticket ticket;
  bool notify = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    LCS_REQUIRE(!stopped_, "submit() on a stopped StreamingService");
    LCS_REQUIRE(!inflight_ids_.contains(request.id),
                "duplicate in-flight query id " + std::to_string(request.id));
    const std::uint32_t idx = ledger_.tenant_index(tenant);
    schedule_.push_back(ScheduleEvent{ScheduleEvent::Kind::kArrival, idx, cls});
    const ArrivalVerdict v = ledger_.on_arrival(idx, cls);
    verdicts_.push_back(v);
    ticket.verdict_ = v;
    if (v.admitted()) {
      auto entry = std::make_shared<Entry>();
      entry->request = request;
      entry->tenant = idx;
      entry->enqueued = std::chrono::steady_clock::now();
      pending_.emplace(v.arrival, entry);
      inflight_ids_.insert(request.id);
      ticket.entry_ = std::move(entry);
      notify = true;
    } else {
      ticket.shed_text_ = make_shed_text(tenant, v);
    }
  }
  if (notify) work_cv_.notify_one();
  return ticket;
}

QueryResult StreamingService::wait(const Ticket& ticket) const {
  LCS_REQUIRE(ticket.entry_ != nullptr, "wait() needs an admitted ticket");
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return ticket.entry_->ready; });
  return ticket.entry_->result;
}

void StreamingService::drain_wave() {
  LCS_REQUIRE(!ledger_.options().drain_thread,
              "drain_wave() is the manual pump; this service owns a drain thread");
  pump_one_wave();
}

void StreamingService::drain_until_idle() {
  LCS_REQUIRE(!ledger_.options().drain_thread,
              "drain_until_idle() is the manual pump; this service owns a drain thread");
  while (queue_depth() > 0) pump_one_wave();
}

void StreamingService::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  work_cv_.notify_all();
  if (drain_.joinable()) drain_.join();
  if (!ledger_.options().drain_thread) {
    // Manual mode: finish the backlog so admitted queries are never dropped.
    while (queue_depth() > 0) pump_one_wave();
  }
}

std::vector<ScheduleEvent> StreamingService::schedule() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return schedule_;
}

std::vector<ArrivalVerdict> StreamingService::verdicts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return verdicts_;
}

std::vector<WaveRecord> StreamingService::wave_records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return wave_records_;
}

std::vector<TenantStats> StreamingService::tenant_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantStats> out;
  const auto& tenants = ledger_.options().tenants;
  out.reserve(tenants.size());
  for (std::uint32_t i = 0; i < tenants.size(); ++i) {
    TenantStats st;
    st.name = tenants[i].name;
    st.counters = ledger_.counters(i);
    st.served = served_[i];
    st.cheap_millitokens = ledger_.millitokens(i, CostClass::kCheap);
    st.heavy_millitokens = ledger_.millitokens(i, CostClass::kHeavy);
    out.push_back(std::move(st));
  }
  return out;
}

std::size_t StreamingService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ledger_.queue_depth();
}

std::uint32_t StreamingService::waves_completed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return waves_completed_;
}

std::uint64_t StreamingService::arrivals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ledger_.arrivals();
}

void StreamingService::drain_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopped_ || ledger_.queue_depth() > 0; });
      if (ledger_.queue_depth() == 0) return;  // stopped_ and drained
    }
    // Only this thread consumes the queue, so the depth observed above can
    // only have grown by the time the wave is cut.
    pump_one_wave();
  }
}

void StreamingService::pump_one_wave() {
  AdmissionLedger::WaveGrant grant;
  std::vector<std::shared_ptr<Entry>> members;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    schedule_.push_back(ScheduleEvent{ScheduleEvent::Kind::kWave, kInvalidTenant,
                                      CostClass::kCheap});
    grant = ledger_.next_wave();
    members.reserve(grant.members.size());
    for (const std::uint64_t arrival : grant.members) {
      const auto it = pending_.find(arrival);
      LCS_CHECK(it != pending_.end(), "wave granted an arrival with no pending entry");
      members.push_back(it->second);
      pending_.erase(it);
    }
  }
  const auto dispatch = std::chrono::steady_clock::now();
  std::vector<QueryResult> results(members.size());
  if (!members.empty()) {
    // Executed outside the lock: submissions keep flowing while the wave
    // runs.  parallel_tasks gives each member its own task, and the kernels
    // a query calls are sequential (same rule as run_batch), so results match
    // service().run() bit for bit.
    for (const auto& m : members) svc_.resolve_shared_artifacts(m->request);
    parallel_tasks(members.size(),
                   [&](std::size_t i) { results[i] = svc_.run(members[i]->request); });
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const double queue_ms =
          std::chrono::duration<double, std::milli>(dispatch - members[i]->enqueued).count();
      results[i].queue_ms = queue_ms;
      results[i].wave = grant.record.wave;
      members[i]->result = std::move(results[i]);
      members[i]->ready = true;
      inflight_ids_.erase(members[i]->request.id);
      ++served_[members[i]->tenant];
    }
    wave_records_.push_back(grant.record);
    waves_completed_ = ledger_.waves();
  }
  done_cv_.notify_all();
}

std::string StreamingService::make_shed_text(const std::string& tenant,
                                             const ArrivalVerdict& v) const {
  switch (v.reason) {
    case ShedReason::kUnknownTenant: return "shed: unknown tenant '" + tenant + "'";
    case ShedReason::kQueueFull:
      return "shed: queue full (capacity " + std::to_string(ledger_.options().max_queue) + ")";
    case ShedReason::kRateLimited:
      return "shed: tenant '" + tenant + "' " + cost_class_name(v.cls) + " budget exhausted";
    case ShedReason::kNone: break;
  }
  return {};
}

}  // namespace lcs::service
