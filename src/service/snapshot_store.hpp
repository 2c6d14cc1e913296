// Fingerprint-addressed snapshot store: a directory of snapshot files.
//
// The store names every file by the snapshot's fingerprint() —
// `<root>/<%016x fingerprint>.lcss` — which makes it content-addressed:
// saving the same frozen inputs twice is a no-op, and any process that
// knows a fingerprint can open exactly those inputs.  open() mmap-loads
// (snapshot_format.hpp) and caches the handle by fingerprint, so every
// tenant opening one fingerprint shares a single GraphSnapshot instance —
// and with it the artifact caches: one tenant's partitions, samples and
// CH index are warm hits for every other (examples/query_server.cpp
// demonstrates this cross-tenant sharing).
//
// The store synchronizes its own handle table; file-level concurrency is
// what the filesystem gives us (save is temp+rename, so readers never see
// a torn file).  Eviction drops the file and the cached handle; snapshots
// already opened stay valid — they own their mapping.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "service/snapshot.hpp"

namespace lcs::service {

class SnapshotStore {
 public:
  static constexpr const char* kExtension = ".lcss";

  /// Open (creating if needed) the store rooted at `root`.
  explicit SnapshotStore(std::filesystem::path root);

  const std::filesystem::path& root() const { return root_; }

  /// The file a fingerprint addresses (whether or not it exists yet).
  std::filesystem::path path_of(std::uint64_t fingerprint) const;

  /// Save `snap` under its fingerprint; returns the file path.  Content-
  /// addressed: when the file already exists it is left untouched (same
  /// fingerprint = same frozen inputs; re-saving could only add newer
  /// cached artifacts, and deterministically reproducible ones at that).
  std::filesystem::path save(const GraphSnapshot& snap);

  bool contains(std::uint64_t fingerprint) const;

  /// mmap-load the snapshot addressed by `fingerprint`.  Repeated opens of
  /// a live fingerprint return the *same* shared_ptr (handle cache), so
  /// artifact caches are shared across every caller.  Throws
  /// std::runtime_error when the fingerprint is not in the store or the
  /// file does not round-trip to the requested fingerprint.
  std::shared_ptr<const GraphSnapshot> open(std::uint64_t fingerprint);

  /// Fingerprints present on disk, ascending.
  std::vector<std::uint64_t> list() const;

  /// Remove the file (and any cached handle) for `fingerprint`; returns
  /// whether a file existed.  Already-open snapshots remain valid.
  bool evict(std::uint64_t fingerprint);

 private:
  std::filesystem::path root_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::weak_ptr<const GraphSnapshot>> handles_;
};

}  // namespace lcs::service
