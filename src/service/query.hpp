// The query model of the shortcut service.
//
// A QueryRequest names one self-contained unit of work against a shared
// GraphSnapshot; a QueryResult carries its outcome.  The determinism
// contract of the service hinges on one rule: a result is a pure function
// of (snapshot, service seed, request) — never of batch composition, batch
// order, thread count, or what other batches run concurrently.  The request
// `id` doubles as the counter-based RNG stream key, so two queries with the
// same id and parameters produce byte-identical results wherever and
// whenever they execute.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace lcs::service {

enum class QueryKind : std::uint8_t {
  kShortcutQuality,  ///< KP construction + streamed Definition-1.1 quality
  kShortcutBuild,    ///< materialize the KP shortcut assignment
  kMst,              ///< shortcut-accelerated Boruvka (Corollary 1.2)
  kMincut,           ///< Karger trials or Karger's sparsified estimator
  kPointToPoint,     ///< exact s–t distance over the snapshot's CH artifact
};

/// The one rejection text for an out-of-range kind byte, shared by every
/// kind switch and by the wire decoder so the corruption matrix can pin it
/// exactly.  Out-of-range kinds can only originate from untrusted wire
/// bytes — internal code holds enumerators — hence the "wire:" prefix.
[[noreturn]] inline void throw_unknown_query_kind(std::uint8_t raw) {
  throw std::runtime_error("wire: unknown query kind " + std::to_string(raw));
}

/// Validate a raw kind byte (fails closed via throw_unknown_query_kind).
inline QueryKind checked_query_kind(std::uint8_t raw) {
  switch (static_cast<QueryKind>(raw)) {
    case QueryKind::kShortcutQuality:
    case QueryKind::kShortcutBuild:
    case QueryKind::kMst:
    case QueryKind::kMincut:
    case QueryKind::kPointToPoint: return static_cast<QueryKind>(raw);
  }
  throw_unknown_query_kind(raw);
}

inline const char* query_kind_name(QueryKind k) {
  switch (k) {
    case QueryKind::kShortcutQuality: return "shortcut_quality";
    case QueryKind::kShortcutBuild: return "shortcut_build";
    case QueryKind::kMst: return "mst";
    case QueryKind::kMincut: return "mincut";
    case QueryKind::kPointToPoint: return "point_to_point";
  }
  throw_unknown_query_kind(static_cast<std::uint8_t>(k));  // fail closed
}

/// Admission cost class of a query: the scheduler gives each class its own
/// concurrency slots so cheap shortcut queries are never starved behind
/// heavy referee work.  A pure function of the query kind (below), so the
/// classification itself can never make results scheduling-dependent.
enum class CostClass : std::uint8_t {
  kCheap,  ///< shortcut_quality / shortcut_build / point_to_point
  kHeavy,  ///< mst / mincut: simulator rounds or repeated contraction trials
};

inline const char* cost_class_name(CostClass c) {
  return c == CostClass::kCheap ? "cheap" : "heavy";
}

struct QueryRequest {
  /// Correlation id and RNG stream key.  Unique within a batch (run_batch
  /// rejects duplicates — two queries sharing a stream would be the one
  /// thing that silently breaks per-query independence).
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kShortcutQuality;

  // -- shortcut / MST knobs --------------------------------------------------
  double beta = 1.0;                 ///< KP sampling-probability scale
  std::uint32_t num_parts = 0;       ///< ball-partition seeds; 0 = ~sqrt(n)
  std::optional<unsigned> diameter;  ///< override the snapshot's cached estimate

  // -- mincut knobs ----------------------------------------------------------
  std::uint32_t karger_trials = 0;  ///< > 0: Karger with this many trials
  double eps = 0.5;                 ///< otherwise: sparsified estimator at this eps

  // -- point-to-point knobs --------------------------------------------------
  std::uint32_t s = 0;  ///< source vertex (kPointToPoint)
  std::uint32_t t = 0;  ///< target vertex (kPointToPoint)
};

/// The admission scheduler's cost classification of a request.
inline CostClass query_cost_class(const QueryRequest& q) {
  switch (q.kind) {
    case QueryKind::kShortcutQuality:
    case QueryKind::kShortcutBuild:
    case QueryKind::kPointToPoint: return CostClass::kCheap;
    case QueryKind::kMst:
    case QueryKind::kMincut: return CostClass::kHeavy;
  }
  throw_unknown_query_kind(static_cast<std::uint8_t>(q.kind));  // fail closed
}

/// The duplicate-id guard of every batch boundary — ShortcutService's
/// run_batch and the shard router reject a batch whose ids are
/// not pairwise distinct (duplicates would alias RNG streams), naming the
/// offending id so a caller merging query sources can find the collision.
inline void check_distinct_query_ids(const std::vector<QueryRequest>& batch) {
  std::unordered_set<std::uint64_t> ids;
  ids.reserve(batch.size());
  for (const QueryRequest& q : batch)
    LCS_REQUIRE(ids.insert(q.id).second,
                "batch has duplicate query id " + std::to_string(q.id));
}

struct QueryResult {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kShortcutQuality;
  bool ok = false;
  std::string error;  ///< exception text when !ok

  /// Wall-clock latency of this query's execution.  Measurement only — like
  /// the two admission fields below it is excluded from digest(), which
  /// covers deterministic content exclusively.
  double latency_ms = 0.0;

  // Admission telemetry, filled by the StreamingService drain loop
  // (run/run_batch leave them zero).  Scheduling observations, never
  // content: digest-excluded.
  double queue_ms = 0.0;   ///< wait from admission to wave dispatch
  std::uint32_t wave = 0;  ///< index of the admission wave that ran the query

  // Failover telemetry (ShardRouter fills these; everything else leaves
  // them zero).  Placement observations, never content: digest-excluded,
  // because which replica answered cannot change what it answered.
  std::uint32_t attempts = 0;          ///< shards this query was actually sent to
  std::uint32_t served_by_replica = 0; ///< preference-list index that answered (0 = primary)

  // Search-effort telemetry (kPointToPoint fills it).  Settled-heap-pop
  // counts are the workload's cost signal, not its answer: digest-excluded
  // under the same rule as latency_ms/queue_ms.
  std::uint64_t settled_nodes = 0;

  // Deterministic outcome fields (meaning depends on kind; unused stay 0).
  std::uint64_t congestion = 0;    ///< shortcut queries: Definition-1.1 c
  std::uint64_t dilation = 0;      ///< shortcut queries: Definition-1.1 d (ub)
  std::uint64_t value = 0;         ///< headline: c+d quality / MST weight / cut value
  std::uint64_t cardinality = 0;   ///< num large parts / MST edges / cut side size
  std::uint64_t rounds = 0;        ///< CONGEST rounds charged (MST legs)
  /// Order-sensitive hash of the full structure.  Shortcut builds hash the
  /// part count, then per part |H_i| and H_i's ids in order, except that an
  /// H_i that is all of E (core::is_all_edges) hashes |H_i| alone: m fixes it.
  std::uint64_t content_hash = 0;
  std::uint32_t s = 0;             ///< point-to-point: echoed source vertex
  std::uint32_t t = 0;             ///< point-to-point: echoed target vertex
  std::uint64_t distance = 0;      ///< point-to-point: exact s–t distance
                                   ///< (sssp::kInfDist when unreachable)

  /// Fingerprint of every deterministic field — what the cross-thread,
  /// cross-order and cross-service checks compare.  Telemetry stays out:
  /// latency_ms, queue_ms, wave, attempts, served_by_replica, settled_nodes.
  std::uint64_t digest() const {
    std::uint64_t h = hash64(id ^ (static_cast<std::uint64_t>(kind) << 56));
    h = hash64(h ^ (ok ? 0x6f6bULL : 0x657272ULL));
    for (const char c : error) h = hash64(h ^ static_cast<unsigned char>(c));
    h = hash64(h ^ congestion);
    h = hash64(h ^ dilation);
    h = hash64(h ^ value);
    h = hash64(h ^ cardinality);
    h = hash64(h ^ rounds);
    h = hash64(h ^ content_hash);
    h = hash64(h ^ ((static_cast<std::uint64_t>(s) << 32) | t));
    h = hash64(h ^ distance);
    return h;
  }
};

}  // namespace lcs::service
