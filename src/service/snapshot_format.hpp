// On-disk snapshot format v3: versioned, checksummed, mmap-friendly.
//
// A snapshot file is the byte image of one frozen GraphSnapshot — the CSR
// graph arrays, the edge weights, the diameter bracket, and every completed
// artifact-cache entry (ball partitions, sparsified samples and the
// contraction-hierarchies index) at save time.  The layout
// (docs/snapshot_format.md) is a fixed 128-byte header, a section table,
// and 64-byte-aligned little-endian sections, each
// independently checksummed.  The bulk sections (CSR arrays, weights) are
// stored exactly as their in-memory representation, so loading is mmap plus
// checksum verification: the loaded snapshot's graph and weights are spans
// into the mapping, and no bulk byte is ever copied or decoded.
//
// Files are addressed by GraphSnapshot::fingerprint(): the writer embeds it
// in the header, SnapshotStore names files by it, and the loader hands it
// back — so two processes agreeing on a fingerprint are provably serving
// the same frozen inputs.  Round-trip contract: a loaded snapshot produces
// bit-identical query digests to the built snapshot it was saved from, at
// every thread count (enforced by tests/test_snapshot_store.cpp and the
// S5_snapshot_io bench gate).
//
// Versioning: the header carries a format version and an endianness tag;
// readers reject anything they do not understand with a deterministic
// "snapshot: ..." error instead of guessing.  Any layout change bumps
// kSnapshotFormatVersion.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>

#include "service/snapshot.hpp"

namespace lcs::service {

inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// Header summary of a snapshot file — what `lcsingest --info` and store
/// listings print.  Reading it validates the header and section table (not
/// the bulk payload checksums, which load_snapshot verifies).
struct SnapshotFileInfo {
  std::uint64_t fingerprint = 0;
  std::uint32_t version = 0;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  bool connected = false;
  std::uint32_t max_degree = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t saved_partitions = 0;
  std::uint64_t saved_samples = 0;
  std::uint64_t saved_ch_indexes = 0;  ///< 0 or 1 (the artifact is single-valued)
};

/// Write `snap` to `path` in the canonical v3 layout: sections in fixed
/// order, artifact entries sorted by key, so saving the same snapshot state
/// twice produces identical bytes.  Writes a temp file and renames, so a
/// crash never leaves a half-written snapshot under the final name.
void save_snapshot(const GraphSnapshot& snap, const std::filesystem::path& path);

/// mmap `path` and reconstruct the snapshot (what GraphSnapshot::load
/// forwards to).  Verifies magic, version, endianness, sizes and every
/// checksum; throws std::runtime_error with a deterministic "snapshot: ..."
/// message on any mismatch.  Saved artifacts are seeded into the caches.
std::shared_ptr<const GraphSnapshot> load_snapshot(const std::filesystem::path& path);

/// Validate the header + section table of `path` and summarize it.
SnapshotFileInfo read_snapshot_info(const std::filesystem::path& path);

}  // namespace lcs::service
