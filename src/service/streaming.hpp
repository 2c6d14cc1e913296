// StreamingService: steady-state streaming admission with per-tenant QoS.
//
// The one admission path of the service layer: a persistent loop in which
// callers enqueue (tenant, QueryRequest) continuously from any number of
// threads into one shared bounded cross-batch queue, and drain waves pull
// strict per-cost-class FIFO slots (cheap_slots cheap queries, then
// heavy_slots heavy ones), so cheap shortcut queries are never starved
// behind heavy MST/mincut work.  A single tenant with a burst of at least
// the batch size, pumped manually, is the plain bounded per-class wave
// scheduler.  On top sits rate-based policy:
//
//  * Per-tenant token buckets.  Each tenant owns one bucket per cost class
//    (burst in whole queries = bucket capacity; refill in milli-tokens per
//    drained wave).  The admission clock is the wave counter — batch-counted
//    like the shard router's probe backoff, never wall time — so bucket
//    state is a pure fold over the event sequence.
//  * Deterministic load shedding.  A submission is admitted or shed
//    synchronously at submit(), and the verdict is a pure function of
//    (tenant config, arrival index, queue state at that index): replaying
//    the recorded schedule through replay_shed_schedule() reproduces the
//    byte-identical verdict sequence (determinism contract point 9,
//    docs/architecture.md).  Shedding never changes served content — an
//    admitted query's result is still pure in (snapshot, seed, id), and
//    admitted queries are never dropped, only delayed.
//
// The admission core is AdmissionLedger: a single-threaded pure fold of
// arrival/wave events that the live service drives under its mutex and
// that tests/the S8 gates re-drive offline from the recorded schedule.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/service.hpp"

namespace lcs::service {

/// Milli-token resolution of the tenant buckets: admitting one query costs
/// 1000 milli-tokens, refills are integral milli-tokens per drained wave, so
/// fractional rates (e.g. one query every 4 waves = 250) stay exact integer
/// arithmetic — no floats anywhere near an admission verdict.
inline constexpr std::uint64_t kMilliTokensPerQuery = 1000;

/// Sentinel tenant index carried by verdicts for unregistered tenant names
/// (named distinctly from ShedReason::kUnknownTenant, which reports it).
inline constexpr std::uint32_t kInvalidTenant = 0xffffffffu;

/// One cost-class budget of one tenant.
struct TokenBucketConfig {
  /// Bucket capacity in whole queries; also the initial fill, so a fresh
  /// tenant can burst up to `burst` queries of the class before the
  /// wave-counted refill matters.  0 = the class is shut off for the tenant
  /// (every arrival sheds, deterministically).
  std::uint32_t burst = 8;
  /// Milli-tokens credited per drained wave, capped at burst capacity.
  /// 1000 sustains one query per wave; 250 one query every 4th wave.
  std::uint64_t refill_millitokens = 1000;
};

/// Per-tenant QoS configuration: independent cheap / heavy budgets.
struct TenantConfig {
  std::string name;
  TokenBucketConfig cheap;
  TokenBucketConfig heavy;
};

/// Configuration of the streaming admission loop.
struct StreamingOptions {
  /// Bound of the shared cross-batch queue (cheap + heavy pending together).
  /// Arrivals that would exceed it shed with kQueueFull — before any token
  /// is spent, so a full queue never drains a tenant's budget.
  std::size_t max_queue = 1024;
  /// Per-wave slot caps, strict per class (a class never borrows the other's
  /// idle slots): the cheap class owns cheap_slots every wave regardless of
  /// heavy backlog.
  unsigned cheap_slots = 4;
  unsigned heavy_slots = 2;
  /// Registered tenants (non-empty, distinct non-empty names).  Submissions
  /// naming anyone else shed with ShedReason::kUnknownTenant.
  std::vector<TenantConfig> tenants;
  /// true: a background drain thread pumps waves whenever work is pending.
  /// false: the owner pumps explicitly via drain_wave()/drain_until_idle()
  /// — the mode tests and the S8 scenario use for schedule-exact replays.
  bool drain_thread = true;
};

/// Why a submission was shed (kNone = admitted).
enum class ShedReason : std::uint8_t {
  kNone = 0,
  kUnknownTenant,  ///< tenant name not registered in StreamingOptions
  kQueueFull,      ///< shared queue at max_queue (checked before the bucket)
  kRateLimited,    ///< the tenant's bucket for the class is below one query
};

inline const char* shed_reason_name(ShedReason r) {
  switch (r) {
    case ShedReason::kNone: return "admitted";
    case ShedReason::kUnknownTenant: return "unknown_tenant";
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kRateLimited: return "rate_limited";
  }
  return "invalid";
}

/// The admission decision for one arrival — everything here is a pure
/// function of (StreamingOptions, schedule prefix), which is what the
/// shed-replay gates compare structurally.
struct ArrivalVerdict {
  std::uint64_t arrival = 0;           ///< global arrival index (0-based)
  std::uint32_t tenant = kInvalidTenant;  ///< index into options().tenants
  CostClass cls = CostClass::kCheap;
  ShedReason reason = ShedReason::kNone;
  std::uint32_t admission_wave = 0;    ///< wave counter when the verdict fell
  std::uint64_t queue_depth = 0;       ///< shared queue depth after the verdict
  std::uint64_t millitokens_after = 0;  ///< tenant bucket for cls after the verdict
  bool admitted() const { return reason == ShedReason::kNone; }
  bool operator==(const ArrivalVerdict&) const = default;
};

/// One recorded admission event.  The journal of these is "the schedule":
/// folding it through a fresh AdmissionLedger must reproduce the live
/// verdict sequence byte for byte.
struct ScheduleEvent {
  enum class Kind : std::uint8_t { kArrival = 0, kWave = 1 };
  Kind kind = Kind::kArrival;
  std::uint32_t tenant = kInvalidTenant;  ///< arrivals only
  CostClass cls = CostClass::kCheap;      ///< arrivals only
  bool operator==(const ScheduleEvent&) const = default;
};

/// Telemetry of one drained wave (deterministic — a pure fold output).
struct WaveRecord {
  std::uint32_t wave = 0;
  std::uint32_t cheap_granted = 0;
  std::uint32_t heavy_granted = 0;
  std::uint64_t cheap_pending_before = 0;
  std::uint64_t heavy_pending_before = 0;
  std::uint64_t queue_depth_after = 0;
  bool operator==(const WaveRecord&) const = default;
};

/// Deterministic per-tenant admission counters.
struct TenantCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_rate_limited = 0;
  bool operator==(const TenantCounters&) const = default;
};

/// Snapshot of one tenant's state for reporting.
struct TenantStats {
  std::string name;
  TenantCounters counters;
  std::uint64_t served = 0;  ///< admitted queries whose results are published
  std::uint64_t cheap_millitokens = 0;
  std::uint64_t heavy_millitokens = 0;
};

/// The pure admission fold.  Single-threaded by design: the live service
/// drives one instance under its mutex; replay_shed_schedule() drives a
/// fresh instance from a recorded schedule.  Every output (verdicts, wave
/// grants, counters) is a deterministic function of the event sequence.
class AdmissionLedger {
 public:
  /// Members a wave granted, plus its telemetry record.
  struct WaveGrant {
    WaveRecord record;
    std::vector<std::uint64_t> members;  ///< arrival indices, cheap then heavy
  };

  /// Validates the options: positive slot caps and queue bound, at least
  /// one tenant, distinct non-empty tenant names.  Buckets start full.
  explicit AdmissionLedger(StreamingOptions options);

  const StreamingOptions& options() const { return opt_; }

  /// Index of `name` in options().tenants, or kInvalidTenant.
  std::uint32_t tenant_index(const std::string& name) const;

  /// Fold one arrival: verdict order is unknown-tenant, queue-full (no
  /// token spent), rate-limited, admitted (one query's worth of tokens
  /// deducted, arrival appended to its class FIFO).
  ArrivalVerdict on_arrival(std::uint32_t tenant, CostClass cls);

  /// Cut the next wave: up to cheap_slots cheap then heavy_slots heavy
  /// arrivals in strict per-class FIFO order, then advance the admission
  /// clock — every tenant bucket refills by its per-wave rate (capped at
  /// burst capacity).  An empty wave still ticks the clock.
  WaveGrant next_wave();

  std::size_t queue_depth() const { return cheap_fifo_.size() + heavy_fifo_.size(); }
  std::uint32_t waves() const { return waves_; }
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t millitokens(std::uint32_t tenant, CostClass cls) const;
  const TenantCounters& counters(std::uint32_t tenant) const;

 private:
  struct TenantState {
    TenantConfig cfg;
    std::uint64_t cheap_millitokens = 0;
    std::uint64_t heavy_millitokens = 0;
    TenantCounters counters;
  };

  StreamingOptions opt_;
  std::vector<TenantState> tenants_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::deque<std::uint64_t> cheap_fifo_;  ///< pending arrival indices
  std::deque<std::uint64_t> heavy_fifo_;
  std::uint64_t arrivals_ = 0;
  std::uint32_t waves_ = 0;
};

/// Re-fold a recorded schedule through a fresh ledger and return the verdict
/// sequence — the enforcement half of determinism contract point 9: the live
/// StreamingService's verdicts() must equal
/// replay_shed_schedule(options, schedule()) structurally, at any thread
/// count and under any submit interleaving that produced that schedule.
std::vector<ArrivalVerdict> replay_shed_schedule(const StreamingOptions& options,
                                                 const std::vector<ScheduleEvent>& schedule);

/// The persistent admission loop over a ShortcutService.  Thread-safe:
/// submit() may race from many threads (the mutex serializes arrivals into
/// the journal — whatever order the race produced IS the schedule, and the
/// shed set is then pure in it).  Admitted work executes in waves on the
/// deterministic pool via parallel_tasks; each result carries queue_ms and
/// wave telemetry (digest-excluded) and is bit-identical to
/// service().run(request).
class StreamingService {
 public:
  struct Entry;  // pending-result slot, private to the implementation

  /// Handle returned by submit(): either an admitted query to wait() on, or
  /// a shed verdict with deterministic reason text.
  class Ticket {
   public:
    bool admitted() const { return verdict_.admitted(); }
    const ArrivalVerdict& verdict() const { return verdict_; }
    /// Deterministic human-readable shed reason; empty when admitted.
    const std::string& shed_text() const { return shed_text_; }

   private:
    friend class StreamingService;
    ArrivalVerdict verdict_;
    std::string shed_text_;
    std::shared_ptr<Entry> entry_;
  };

  /// Takes the service by value (it is a cheap handle: snapshot pointer,
  /// seed, options).  With options.drain_thread the background pump starts
  /// immediately; otherwise the owner pumps manually.
  StreamingService(ShortcutService service, StreamingOptions options);
  ~StreamingService();
  StreamingService(const StreamingService&) = delete;
  StreamingService& operator=(const StreamingService&) = delete;

  const ShortcutService& service() const { return svc_; }
  const StreamingOptions& options() const { return ledger_.options(); }

  /// Admit or shed one query for `tenant`, synchronously and
  /// deterministically (see ArrivalVerdict).  Requires a running service
  /// (throws after stop()) and an id distinct from every in-flight
  /// (admitted, not yet served) query of this service: a duplicate throws
  /// std::invalid_argument naming the id before the arrival reaches the
  /// schedule or the ledger, so the verdict sequence is unchanged by it.
  Ticket submit(const std::string& tenant, const QueryRequest& request);

  /// Block until the ticket's query is served and return its result.
  /// Requires an admitted ticket issued by this service.
  QueryResult wait(const Ticket& ticket) const;

  /// Manual pump (requires options().drain_thread == false): cut and
  /// execute one wave.  An empty wave still advances the refill clock and
  /// is journaled — the background loop, by contrast, only pumps when work
  /// is pending, so idle time never refills buckets there either way.
  void drain_wave();

  /// Manual pump until the queue is empty.
  void drain_until_idle();

  /// Stop accepting submissions and finish the backlog (admitted queries
  /// are never dropped).  Idempotent; the destructor calls it.
  void stop();

  // Deterministic admission state, copied under the lock.
  std::vector<ScheduleEvent> schedule() const;
  std::vector<ArrivalVerdict> verdicts() const;
  std::vector<WaveRecord> wave_records() const;
  std::vector<TenantStats> tenant_stats() const;
  std::size_t queue_depth() const;
  std::uint32_t waves_completed() const;
  std::uint64_t arrivals() const;

 private:
  void drain_loop();
  void pump_one_wave();
  std::string make_shed_text(const std::string& tenant, const ArrivalVerdict& v) const;

  ShortcutService svc_;
  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;
  mutable std::condition_variable done_cv_;
  AdmissionLedger ledger_;                 // guarded by mu_ (options are immutable)
  std::vector<ScheduleEvent> schedule_;    // guarded by mu_
  std::vector<ArrivalVerdict> verdicts_;   // guarded by mu_
  std::vector<WaveRecord> wave_records_;   // guarded by mu_
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> pending_;  // guarded by mu_
  std::unordered_set<std::uint64_t> inflight_ids_;  // admitted, not yet served; guarded by mu_
  std::vector<std::uint64_t> served_;      // per tenant, guarded by mu_
  std::uint32_t waves_completed_ = 0;      // guarded by mu_
  bool stopped_ = false;                   // guarded by mu_
  std::thread drain_;
};

}  // namespace lcs::service
