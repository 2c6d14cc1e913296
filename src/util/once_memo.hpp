// Thread-safe once-per-key memoization for shared immutable artifacts.
//
// OnceMemo<Key, Value> backs the snapshot-level artifact cache: the first
// caller of a key computes the value (outside the map lock, so independent
// keys compute concurrently); every concurrent or later caller of the same
// key blocks on / reuses that one computation and receives the same
// shared_ptr<const Value>.  The memo never changes *what* is computed —
// compute functions must be pure in the key — so results are bit-identical
// whether a lookup hits, misses, or the table was cleared in between; only
// the hit/miss telemetry can tell the difference.
//
// Failure is not cached: when a compute throws, its slot is erased and the
// exception propagates to every caller waiting on that key, so a later call
// retries instead of replaying a stale error.
//
// Every caller waits: a caller that finds its key in flight blocks on the
// owner's future, so each key is computed once at every thread count.  The
// one condition that keeps waiting deadlock-free: a compute must not call
// parallel_tasks.  Today it cannot:
//   - the computes in service/snapshot.cpp call kernels only;
//   - CI's "Kernels stay off the task pool" step keeps the kernel
//     directories from reaching the pool;
//   - the pool serializes independent top-level callers (caller_cv_), so a
//     top-level owner never needs the workers its waiters occupy;
//   - nested lookups are acyclic: the skeleton cut's compute reads the
//     sample memo, and no other compute looks a key up, so no owner waits,
//     directly or through another key, on one of its own waiters.
//
// Capacity: `max_entries` bounds the table (0 = unbounded).  On overflow
// the memo drops every *completed* entry — a deterministic epoch flush that
// needs no access-order bookkeeping (LRU order under concurrency is
// scheduling-dependent; which values exist in a cache must never matter for
// results, so the simplest policy wins).  In-flight computations survive a
// flush untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace lcs {

/// Hit/miss/eviction counters of one memo (monotone; telemetry).
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Always 0: callers no longer bypass an in-flight owner.  Kept only
  /// because perfbench/mix_gnm.cpp still reads it; delete both in the next
  /// change to the benchmark.
  std::uint64_t bypasses = 0;
  std::uint64_t evictions = 0;

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class OnceMemo {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  /// `max_entries` caps the table size; 0 keeps it unbounded.
  explicit OnceMemo(std::size_t max_entries = 0) : max_entries_(max_entries) {}

  OnceMemo(const OnceMemo&) = delete;
  OnceMemo& operator=(const OnceMemo&) = delete;

  /// Return the memoized value for `key`, computing it via `compute` (any
  /// `Value()` callable — no std::function erasure on the hit path) on the
  /// first (or a concurrent-first) call.  `compute` must be a pure function
  /// of the key; it runs on the calling thread without the map lock held.
  template <typename Fn>
  ValuePtr get_or_compute(const Key& key, Fn&& compute) {
    std::shared_future<ValuePtr> future;
    std::uint64_t token = 0;
    // Engaged only on the claim path (this call owns the key): hits must not
    // pay the promise's shared-state allocation.
    std::optional<std::promise<ValuePtr>> promise;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto it = map_.find(key);
      if (it == map_.end()) {
        if (max_entries_ > 0 && map_.size() >= max_entries_) evict_completed_locked();
        promise.emplace();
        future = promise->get_future().share();
        token = ++next_token_;
        map_.emplace(key, Entry{future, token});
        ++misses_;
      } else {
        // Ready or in flight alike: share the owner's future.
        future = it->second.future;
        ++hits_;
      }
    }
    if (promise) {
      try {
        promise->set_value(std::make_shared<const Value>(compute()));
      } catch (...) {
        // Do not cache failure: erase the slot so a later call retries, then
        // deliver the exception to everyone already waiting on this key.
        // The token guards against erasing a successor entry that replaced
        // this one (impossible while we hold the slot, but cheap to pin).
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          auto it = map_.find(key);
          if (it != map_.end() && it->second.token == token) map_.erase(it);
        }
        promise->set_exception(std::current_exception());
      }
    }
    ValuePtr value = future.get();  // rethrows a compute failure
    LCS_CHECK(value != nullptr, "OnceMemo computed a null value");
    return value;
  }

  /// Every completed (key, value) pair currently in the table, in map
  /// order (callers sort by key when they need a canonical order — the
  /// snapshot writer does).  In-flight computations are skipped.
  std::vector<std::pair<Key, ValuePtr>> ready_entries() const {
    std::vector<std::pair<Key, ValuePtr>> out;
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(map_.size());
    for (const auto& [key, entry] : map_)
      if (entry.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
        out.emplace_back(key, entry.future.get());
    return out;
  }

  /// True when `key` holds a completed value.  A stats-free probe — counted
  /// as neither hit nor miss, like seed() — so prewarming passes can skip
  /// slots a loader already seeded without perturbing the telemetry the
  /// zero-lookup load gates assert on.  In-flight computations report false.
  bool contains_ready(const Key& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    return it != map_.end() &&
           it->second.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  /// Pre-populate `key` with an already-materialized value (the snapshot
  /// loader warming a memo from disk).  Counted as neither hit nor miss —
  /// the entry was never computed here — and exempt from capacity eviction
  /// (seeders replay at most the entry set a capped memo held at save
  /// time).  Returns false, changing nothing, when the key already exists.
  bool seed(const Key& key, ValuePtr value) {
    LCS_CHECK(value != nullptr, "OnceMemo cannot be seeded with null");
    std::promise<ValuePtr> ready;
    ready.set_value(std::move(value));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (map_.contains(key)) return false;
    map_.emplace(key, Entry{ready.get_future().share(), ++next_token_});
    return true;
  }

  /// Drop every completed entry (in-flight computations are left alone).
  /// Purely a capacity/telemetry event: values are recomputed bit-identical.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    evict_completed_locked();
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  std::size_t max_entries() const { return max_entries_; }

  MemoStats stats() const {
    MemoStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    std::shared_future<ValuePtr> future;
    std::uint64_t token = 0;  ///< identity of the insertion that owns the slot
  };

  void evict_completed_locked() {
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        it = map_.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }

  const std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, Hash> map_;
  std::uint64_t next_token_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace lcs
