// Snapshot format + store round-trip coverage (PR 6).
//
// The contract under test: save → mmap-load is invisible to queries.  A
// loaded snapshot must carry the same fingerprint, facts and weights as
// the built one it came from, and must produce bit-identical query digests
// for every kind at every thread count, with saved artifacts arriving
// pre-warmed (zero misses on replay).  Malformed files — truncated,
// bit-flipped anywhere, or from a future format version — must be rejected
// with deterministic "snapshot: ..." errors, never interpreted.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/service.hpp"
#include "service/snapshot_format.hpp"
#include "service/snapshot_store.hpp"
#include "util/bytes.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using service::GraphSnapshot;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::ShortcutService;
using service::SnapshotStore;

/// Unique per-process scratch directory, removed on destruction.  The same
/// test binary runs concurrently under ctest (the .t1/.t4 registrations),
/// so the pid must be part of the name.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("lcs-snapstore-" + std::to_string(::getpid()) + "-" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

graph::Graph grid_case(int generator, std::uint64_t seed, std::uint32_t n) {
  Rng rng(seed);
  switch (generator) {
    case 0: return graph::connected_gnm(n, 3 * n, rng);
    case 1: return graph::random_tree(n, rng);
    default: return graph::hard_instance(n, 4).g;
  }
}

/// A deterministic mixed batch: every kind, auto and explicit partition
/// sizes, Karger and sparsified mincuts.
std::vector<QueryRequest> mixed_batch(std::uint32_t n) {
  std::vector<QueryRequest> batch;
  const auto add = [&](QueryKind kind, std::uint32_t num_parts, std::uint32_t karger,
                       double eps) {
    QueryRequest q;
    q.id = 9100 + batch.size();
    q.kind = kind;
    q.num_parts = num_parts;
    q.karger_trials = karger;
    q.eps = eps;
    batch.push_back(q);
  };
  add(QueryKind::kShortcutQuality, 0, 0, 0.5);
  add(QueryKind::kShortcutQuality, n / 8, 0, 0.5);
  add(QueryKind::kShortcutBuild, 0, 0, 0.5);
  add(QueryKind::kShortcutBuild, n / 4, 0, 0.5);
  add(QueryKind::kMst, 0, 0, 0.5);
  add(QueryKind::kMincut, 0, 2, 0.5);
  add(QueryKind::kMincut, 0, 0, 0.7);
  // Two s–t queries so the round-trip grid gates the CH artifact too.
  for (const std::uint32_t salt : {3u, 11u}) {
    QueryRequest q;
    q.id = 9100 + batch.size();
    q.kind = QueryKind::kPointToPoint;
    q.s = salt % n;
    q.t = (salt * 7 + 1) % n;
    batch.push_back(q);
  }
  return batch;
}

std::vector<std::uint64_t> digests_of(const std::vector<QueryResult>& results) {
  std::vector<std::uint64_t> out;
  out.reserve(results.size());
  for (const QueryResult& r : results) out.push_back(r.digest());
  return out;
}

std::vector<std::byte> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const auto* data = reinterpret_cast<const std::byte*>(bytes.data());
  return {data, data + bytes.size()};
}

void write_file(const std::filesystem::path& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Expect load_snapshot(path) to fail with a message containing `expect`.
void expect_rejected(const std::filesystem::path& path, const std::string& expect,
                     const std::string& what) {
  try {
    (void)service::load_snapshot(path);
    FAIL() << what << ": malformed file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << what << ": got '" << e.what() << "', wanted '" << expect << "'";
  }
}

TEST(SnapshotStore, RoundTripDigestIdentityAcrossGrid) {
  TempDir dir("grid");
  SnapshotStore store(dir.path);
  for (const int generator : {0, 1, 2}) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      for (const std::uint32_t n : {60u, 200u}) {
        const std::string what = "gen " + std::to_string(generator) + " seed " +
                                 std::to_string(seed) + " n " + std::to_string(n);
        GraphSnapshot::Options opt;
        opt.weight_seed = seed ^ 0xfeedULL;
        const auto built = GraphSnapshot::build(grid_case(generator, seed, n), opt);
        const auto batch = mixed_batch(built->num_vertices());
        const ShortcutService built_svc(built, 5);
        const std::vector<std::uint64_t> want = digests_of(built_svc.run_batch(batch));

        store.save(*built);
        const auto loaded = store.open(built->fingerprint());

        EXPECT_EQ(loaded->fingerprint(), built->fingerprint()) << what;
        EXPECT_EQ(loaded->num_vertices(), built->num_vertices()) << what;
        EXPECT_EQ(loaded->num_edges(), built->num_edges()) << what;
        EXPECT_EQ(loaded->connected(), built->connected()) << what;
        EXPECT_EQ(loaded->max_degree(), built->max_degree()) << what;
        EXPECT_EQ(loaded->diameter_lb(), built->diameter_lb()) << what;
        EXPECT_EQ(loaded->diameter_ub(), built->diameter_ub()) << what;
        EXPECT_EQ(loaded->diameter_is_exact(), built->diameter_is_exact()) << what;
        ASSERT_EQ(loaded->weights().size(), built->weights().size()) << what;
        EXPECT_TRUE(std::equal(loaded->weights().begin(), loaded->weights().end(),
                               built->weights().begin()))
            << what;

        const ShortcutService loaded_svc(loaded, 5);
        ThreadOverrideGuard guard;
        for (const unsigned threads : {1u, 2u, 8u}) {
          set_num_threads(threads);
          EXPECT_EQ(digests_of(loaded_svc.run_batch(batch)), want)
              << what << " t" << threads;
        }
      }
    }
  }
}

TEST(SnapshotStore, SavedArtifactsArrivePrewarmed) {
  TempDir dir("prewarm");
  Rng rng(31);
  const auto built = GraphSnapshot::build(graph::connected_gnm(150, 450, rng));
  const auto batch = mixed_batch(built->num_vertices());
  const ShortcutService built_svc(built, 5);
  const std::vector<std::uint64_t> want = digests_of(built_svc.run_batch(batch));

  SnapshotStore store(dir.path);
  const std::filesystem::path path = store.save(*built);

  // The file records exactly the artifacts the batch materialized.
  const service::SnapshotFileInfo info = service::read_snapshot_info(path);
  EXPECT_EQ(info.fingerprint, built->fingerprint());
  EXPECT_GT(info.saved_partitions, 0u);
  EXPECT_GT(info.saved_samples, 0u);
  EXPECT_EQ(info.saved_ch_indexes, 1u);

  // Replaying the batch on the loaded snapshot is all cache hits: the
  // artifact-stats equivalent of "pre-warmed instead of lazily memoized".
  const auto loaded = store.open(built->fingerprint());
  const service::ArtifactStats before = loaded->artifact_stats();
  EXPECT_EQ(before.total().lookups(), 0u);
  const ShortcutService loaded_svc(loaded, 5);
  EXPECT_EQ(digests_of(loaded_svc.run_batch(batch)), want);
  const service::ArtifactStats after = loaded->artifact_stats();
  EXPECT_EQ(after.partition.misses, 0u);
  EXPECT_EQ(after.sparsified.misses, 0u);
  EXPECT_EQ(after.ch.misses, 0u);
  EXPECT_GT(after.partition.hits, 0u);
  EXPECT_GT(after.sparsified.hits, 0u);
  EXPECT_GT(after.ch.hits, 0u);
}

TEST(SnapshotStore, ChIndexRoundTripsStructurallyIntact) {
  // The CH artifact is the one whose rebuild is most expensive relative to
  // its serialized size, so the save/load path must hand back the exact
  // structure, not an equivalent one: ranks, offsets, and every arc.
  TempDir dir("ch-roundtrip");
  Rng rng(67);
  const auto built = GraphSnapshot::build(graph::road_network(220, rng));
  const auto direct = built->ch_index();  // materialize before save

  SnapshotStore store(dir.path);
  const std::filesystem::path path = store.save(*built);
  EXPECT_EQ(service::read_snapshot_info(path).saved_ch_indexes, 1u);

  const auto loaded = store.open(built->fingerprint());
  EXPECT_EQ(loaded->artifact_stats().ch.lookups(), 0u);
  const auto seeded = loaded->ch_index();
  EXPECT_EQ(*seeded, *direct);  // structural identity, via ChIndex::operator==
  EXPECT_EQ(loaded->artifact_stats().ch.misses, 0u);
  EXPECT_EQ(loaded->artifact_stats().ch.hits, 1u);
}

TEST(SnapshotStore, DiameterBracketPinsAboveExactBudget) {
  // Above 2048 vertices the bracket is the restarted double sweep (lb) and
  // twice the eccentricity of vertex 0 (ub).  The literals were recorded on
  // the build that read the eccentricity off a cached BFS tree; the built
  // snapshot and its save→load copy must both reproduce them.
  TempDir dir("bracket-pins");
  SnapshotStore store(dir.path);
  struct Pin {
    const char* what;
    std::uint32_t lb;
    std::uint32_t ub;
  };
  const auto check = [&](graph::Graph g, const Pin& pin) {
    ASSERT_GT(g.num_vertices(), 2048u) << pin.what;
    GraphSnapshot::Options opt;
    opt.prewarm_partition_pool = false;
    const auto built = GraphSnapshot::build(std::move(g), opt);
    store.save(*built);
    const auto loaded = store.open(built->fingerprint());
    for (const auto& snap : {built, loaded}) {
      const std::string what = std::string(pin.what) + (snap == built ? " built" : " loaded");
      EXPECT_EQ(snap->diameter_lb(), pin.lb) << what;
      EXPECT_EQ(snap->diameter_ub(), pin.ub) << what;
      EXPECT_FALSE(snap->diameter_is_exact()) << what;
      EXPECT_EQ(snap->diameter_estimate(), pin.lb) << what;
    }
  };
  Rng gnm_rng(0xb7ac);
  check(graph::connected_gnm(2100, 6300, gnm_rng), {"connected_gnm(2100, 6300)", 9, 14});
  Rng road_rng(0xb7ad);
  check(graph::road_network(2500, road_rng), {"road_network(2500)", 79, 158});
}

TEST(SnapshotStore, LoadPrewarmsPartitionPoolMissingFromFile) {
  TempDir dir("poolwarm");
  Rng rng(37);
  const auto built = GraphSnapshot::build(graph::connected_gnm(140, 420, rng));
  const std::uint32_t pool = built->options().partition_pool_size;
  ASSERT_GT(pool, 0u);
  // Drop every cached artifact before saving: the file then carries no
  // partitions, so the load-time proactive prewarm must rebuild the pool
  // (the seeded-artifact path is covered by SavedArtifactsArrivePrewarmed,
  // whose zero-lookup gate also proves the prewarm skips seeded slots).
  built->clear_artifacts();
  SnapshotStore store(dir.path);
  const std::filesystem::path path = store.save(*built);
  EXPECT_EQ(service::read_snapshot_info(path).saved_partitions, 0u);

  const auto loaded = store.open(built->fingerprint());
  EXPECT_EQ(loaded->options().partition_pool_size, pool);  // header round-trip
  EXPECT_TRUE(loaded->options().prewarm_partition_pool);
  const service::ArtifactStats at_load = loaded->artifact_stats();
  EXPECT_EQ(at_load.partition.misses, pool);  // the load-time prewarm itself
  EXPECT_EQ(at_load.partition.hits, 0u);

  // Default-shaped queries land entirely inside the prewarmed pool.
  const ShortcutService svc(loaded, 5);
  std::vector<QueryRequest> batch;
  for (std::uint32_t i = 0; i < 10; ++i) {
    QueryRequest q;
    q.id = 500 + i;
    q.kind = (i % 2 == 0) ? QueryKind::kShortcutQuality : QueryKind::kShortcutBuild;
    batch.push_back(q);
  }
  (void)svc.run_batch(batch);
  const service::ArtifactStats after = loaded->artifact_stats();
  EXPECT_EQ(after.partition.misses, pool);  // zero misses beyond the prewarm
  EXPECT_GT(after.partition.hits, 0u);
}

TEST(SnapshotStore, SaveIsCanonicalAndRoundTripStable) {
  TempDir dir("canon");
  Rng rng(41);
  const auto built = GraphSnapshot::build(graph::connected_gnm(120, 360, rng));
  const ShortcutService svc(built, 5);
  (void)svc.run_batch(mixed_batch(built->num_vertices()));  // populate artifacts

  const std::filesystem::path a = dir.path / "a.lcss";
  const std::filesystem::path b = dir.path / "b.lcss";
  service::save_snapshot(*built, a);
  service::save_snapshot(*built, b);
  EXPECT_EQ(read_file(a), read_file(b)) << "same state must serialize to identical bytes";

  // load → save reproduces the file: seeded artifacts re-serialize to the
  // same canonical section bytes.
  const auto loaded = GraphSnapshot::load(a);
  const std::filesystem::path c = dir.path / "c.lcss";
  service::save_snapshot(*loaded, c);
  EXPECT_EQ(read_file(a), read_file(c));
}

TEST(SnapshotStore, MalformedFilesRejectedDeterministically) {
  TempDir dir("corrupt");
  Rng rng(51);
  const auto built = GraphSnapshot::build(graph::connected_gnm(80, 240, rng));
  const ShortcutService svc(built, 5);
  (void)svc.run_batch(mixed_batch(built->num_vertices()));
  const std::filesystem::path good = dir.path / "good.lcss";
  service::save_snapshot(*built, good);
  const std::vector<std::byte> bytes = read_file(good);
  ASSERT_GT(bytes.size(), 384u);
  const std::filesystem::path tampered = dir.path / "bad.lcss";

  const auto with_flipped_byte = [&](std::size_t at) {
    std::vector<std::byte> copy = bytes;
    copy[at] ^= std::byte{0x01};
    return copy;
  };

  write_file(tampered, with_flipped_byte(0));  // magic
  expect_rejected(tampered, "bad magic", "flipped magic");

  write_file(tampered, with_flipped_byte(8));  // version word
  expect_rejected(tampered, "unsupported format version", "future version");
  {
    // A file of the previous layout is refused with the exact text, never
    // read as the current one.
    std::vector<std::byte> old = bytes;
    const std::uint32_t v2 = 2;
    std::memcpy(old.data() + 8, &v2, 4);
    write_file(tampered, old);
    try {
      (void)service::load_snapshot(tampered);
      ADD_FAILURE() << "a version-2 file was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "snapshot: unsupported format version 2");
    }
  }

  write_file(tampered, with_flipped_byte(12));  // endian tag
  expect_rejected(tampered, "endianness mismatch", "foreign byte order");

  write_file(tampered, with_flipped_byte(16));  // fingerprint field
  expect_rejected(tampered, "header checksum mismatch", "flipped header field");

  write_file(tampered, with_flipped_byte(130));  // inside the section table
  expect_rejected(tampered, "section table checksum mismatch", "flipped table byte");

  write_file(tampered, with_flipped_byte(400));        // first payload section
  expect_rejected(tampered, "section checksum mismatch", "flipped payload byte (head)");
  write_file(tampered, with_flipped_byte(bytes.size() / 2));
  expect_rejected(tampered, "section checksum mismatch", "flipped payload byte (middle)");

  for (const std::size_t cut : {std::size_t{10}, std::size_t{127}, std::size_t{300}}) {
    write_file(tampered, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)});
    expect_rejected(tampered, "file truncated", "truncated to " + std::to_string(cut));
  }
  write_file(tampered, {bytes.begin(), bytes.end() - 1});
  expect_rejected(tampered, "file size mismatch", "truncated by one byte");
  {
    std::vector<std::byte> grown = bytes;
    grown.push_back(std::byte{0});
    write_file(tampered, grown);
    expect_rejected(tampered, "file size mismatch", "trailing garbage");
  }
}

/// Rewrite the CH section's up-arc offsets of a saved file through `edit`,
/// then re-seal the section, table and header checksums the way the writer
/// does (docs/snapshot_format.md), so only the structural checks can
/// object.  Offsets: header 128 bytes (table checksum at 104, header
/// checksum at 112), then 7 section records of 32 bytes (offset at 8,
/// length at 16, checksum at 24), the CH index's last; the CH payload is
/// count u64, n u32, num_shortcuts u64, rank n x u32, then the n + 1
/// offsets.
using OffsetEdit = std::function<void(std::uint64_t*, std::uint32_t)>;
std::vector<std::byte> forge_ch_offsets(std::vector<std::byte> bytes, const OffsetEdit& edit) {
  const auto get64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, 8);
    return v;
  };
  const auto put64 = [&](std::size_t at, std::uint64_t v) {
    std::memcpy(bytes.data() + at, &v, 8);
  };
  const std::size_t record = 128 + 6 * 32;
  const std::size_t payload = get64(record + 8);
  const std::size_t length = get64(record + 16);
  std::uint32_t n = 0;
  std::memcpy(&n, bytes.data() + payload + 8, 4);
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1);
  const std::size_t at = payload + 8 + 4 + 8 + std::size_t{n} * 4;
  std::memcpy(offsets.data(), bytes.data() + at, offsets.size() * 8);
  edit(offsets.data(), n);
  std::memcpy(bytes.data() + at, offsets.data(), offsets.size() * 8);
  put64(record + 24, checksum_bytes(bytes.data() + payload, length));
  put64(104, checksum_bytes(bytes.data() + 128, 7 * 32));
  put64(112, 0);
  put64(112, checksum_bytes(bytes.data(), 128));
  return bytes;
}

TEST(SnapshotStore, ForgedChOffsetsRejectedDeterministically) {
  // A checksum-valid file whose CH offsets decrease or pass the arc count
  // would make ch_query read past up_arcs; the loader must refuse it.
  TempDir dir("ch-forged");
  Rng rng(71);
  const auto built = GraphSnapshot::build(graph::road_network(200, rng));
  (void)built->ch_index();
  const std::filesystem::path good = dir.path / "good.lcss";
  service::save_snapshot(*built, good);
  const std::vector<std::byte> bytes = read_file(good);
  const std::filesystem::path forged = dir.path / "forged.lcss";

  // Re-sealing an unchanged file changes nothing and still loads.
  write_file(forged, forge_ch_offsets(bytes, [](std::uint64_t*, std::uint32_t) {}));
  EXPECT_EQ(read_file(forged), bytes);
  EXPECT_EQ(*GraphSnapshot::load(forged)->ch_index(), *built->ch_index());

  const std::string text =
      "snapshot: CH up-arc offsets are not a monotone run from 0 to the arc count";
  const auto expect_text = [&](const std::string& what) {
    try {
      (void)GraphSnapshot::load(forged);
      ADD_FAILURE() << what << ": forged file was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), text) << what;
    }
  };
  // A middle offset past the arc count.
  write_file(forged, forge_ch_offsets(bytes, [](std::uint64_t* o, std::uint32_t n) {
               o[n / 2] = o[n] + 1000;
             }));
  expect_text("offset past the arc count");
  // Two middle offsets swapped: every offset in range, but one run negative.
  write_file(forged, forge_ch_offsets(bytes, [](std::uint64_t* o, std::uint32_t n) {
               std::uint32_t v = 1;
               while (v < n && o[v] == o[v + 1]) ++v;
               ASSERT_LT(v, n);
               std::swap(o[v], o[v + 1]);
             }));
  expect_text("decreasing offsets");
  // A nonzero first offset.
  write_file(forged, forge_ch_offsets(bytes, [](std::uint64_t* o, std::uint32_t) { o[0] = 1; }));
  expect_text("nonzero first offset");
}

TEST(SnapshotStore, StoreAddressesByFingerprintAndSharesHandles) {
  TempDir dir("store");
  SnapshotStore store(dir.path);
  EXPECT_TRUE(store.list().empty());

  Rng rng(61);
  const auto snap_a = GraphSnapshot::build(graph::connected_gnm(60, 180, rng));
  const auto snap_b = GraphSnapshot::build(graph::connected_gnm(90, 270, rng));
  ASSERT_NE(snap_a->fingerprint(), snap_b->fingerprint());

  const std::filesystem::path path_a = store.save(*snap_a);
  store.save(*snap_b);
  EXPECT_EQ(path_a, store.path_of(snap_a->fingerprint()));
  EXPECT_TRUE(store.contains(snap_a->fingerprint()));
  std::vector<std::uint64_t> want{snap_a->fingerprint(), snap_b->fingerprint()};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(store.list(), want);

  // Repeated opens share one live handle — the cross-tenant artifact
  // sharing the query-server example depends on.
  const auto first = store.open(snap_a->fingerprint());
  const auto second = store.open(snap_a->fingerprint());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_NE(first.get(), snap_a.get());  // loaded, not the built instance

  EXPECT_TRUE(store.evict(snap_a->fingerprint()));
  EXPECT_FALSE(store.evict(snap_a->fingerprint()));
  EXPECT_FALSE(store.contains(snap_a->fingerprint()));
  EXPECT_THROW((void)store.open(snap_a->fingerprint()), std::runtime_error);
  EXPECT_EQ(first->num_vertices(), 60u);  // evicted-but-open stays valid

  // A file that does not round-trip to its address is rejected.
  const std::uint64_t bogus = snap_b->fingerprint() ^ 1;
  std::filesystem::copy_file(store.path_of(snap_b->fingerprint()), store.path_of(bogus));
  try {
    (void)store.open(bogus);
    FAIL() << "fingerprint-mismatched file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match"), std::string::npos) << e.what();
  }
}

}  // namespace
