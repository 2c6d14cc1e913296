// ShortcutService: concurrent heterogeneous queries over one shared
// GraphSnapshot.
//
// Each query (shortcut construction, quality measurement, MST, mincut) is a
// pure function of (snapshot, service seed, request) running on its own
// counter-based RNG stream Rng(seed).split(request.id).  run_batch() fans a
// batch out as parallel_tasks on the deterministic pool, one task per query;
// the kernels a query calls are sequential, so a batch is bit-identical to
// running every query alone via run(), at any thread count, in any batch
// order, interleaved with any other batches.  run_batch is a top-level entry
// point: calling it from inside a task throws std::invalid_argument.  Services are stateless beyond
// (snapshot pointer, seed, options): two services over one snapshot with one
// seed are interchangeable, and a service may be queried from several caller
// threads at once (the pool serializes their batches).  The one other
// member is a pair of free lists, of s–t search scratches and of Borůvka
// scratches, which hold memory and never a result: a kPointToPoint or kMst
// query borrows a scratch and gives it back, so a list holds at most as
// many scratches as queries ran at once (a Borůvka scratch is sized to the
// snapshot's graph).  Copies of a service share the lists.
//
// Artifact reuse: queries derive their expensive intermediates
// (ball partitions, sparsified edge samples, the diameter bracket) through
// the snapshot's deterministically keyed artifact cache, so repeat queries
// hit shared bytes instead of re-deriving (a task that finds an artifact in
// flight waits for it).  Options::use_artifact_cache switches to the
// uncached pure-function path, which must be (and is tested to be)
// bit-identical.
//
// Admission control lives one layer up: service/streaming.hpp wraps a
// ShortcutService in a StreamingService whose bounded queue, strict
// per-cost-class wave slots and per-tenant token buckets admit a continuous
// arrival stream; its drain waves execute through run() and inherit every
// purity guarantee above.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "service/query.hpp"
#include "service/snapshot.hpp"

namespace lcs::service {

class ShortcutService {
 public:
  struct Options {
    /// Derive partitions / sparsified samples / diameter estimates through
    /// the snapshot's shared artifact cache.  Off = compute the identical
    /// pure functions privately per query (the reference path the cache is
    /// tested against).
    bool use_artifact_cache = true;
  };

  /// `seed` is the base of every per-query RNG stream; services that must
  /// be result-interchangeable must agree on it (options may differ: they
  /// never influence result content).
  explicit ShortcutService(std::shared_ptr<const GraphSnapshot> snapshot,
                           std::uint64_t seed = 1);
  ShortcutService(std::shared_ptr<const GraphSnapshot> snapshot, std::uint64_t seed,
                  const Options& options);

  const GraphSnapshot& snapshot() const { return *snap_; }
  const std::shared_ptr<const GraphSnapshot>& snapshot_ptr() const { return snap_; }
  std::uint64_t seed() const { return seed_; }
  const Options& options() const { return opt_; }

  /// Execute one query on the calling thread.  A failing query reports
  /// ok=false + error text; only misuse of the service throws.
  QueryResult run(const QueryRequest& request) const;

  /// Execute a batch concurrently on the pool, one task per query; results
  /// are positionally parallel to `batch`.  Requires pairwise-distinct
  /// request ids (duplicates would alias RNG streams) and must be called at
  /// top level — not from inside another batch's task.
  std::vector<QueryResult> run_batch(const std::vector<QueryRequest>& batch) const;

 private:
  class ScratchPool;  ///< the s–t search and Borůvka scratches of finished queries

  QueryResult execute(const QueryRequest& request) const;

  std::shared_ptr<const GraphSnapshot> snap_;
  std::uint64_t seed_;
  Options opt_;
  std::shared_ptr<ScratchPool> scratches_;
};

}  // namespace lcs::service
