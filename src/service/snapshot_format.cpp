#include "service/snapshot_format.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/check.hpp"
#include "util/mmap_file.hpp"

namespace lcs::service {

namespace {

constexpr char kMagic[8] = {'L', 'C', 'S', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kEndianTag = 0x01020304u;  // bytes 04 03 02 01 on disk
constexpr std::uint64_t kAlign = 64;
constexpr std::uint32_t kSectionCount = 7;

constexpr std::uint32_t kFlagConnected = 1u << 0;
constexpr std::uint32_t kFlagBracketExact = 1u << 1;
constexpr std::uint32_t kFlagPoolPrewarm = 1u << 2;  ///< Options::prewarm_partition_pool

// Fixed section order; ids are 1-based positions.  The bulk sections
// (1..4) are verbatim in-memory bytes and get mmap'ed in place; the
// artifact sections (5..7) are decoded into the caches at load.
enum SectionId : std::uint32_t {
  kSecOffsets = 1,
  kSecAdjacency = 2,
  kSecEdges = 3,
  kSecWeights = 4,
  kSecPartitions = 5,
  kSecSamples = 6,
  kSecChIndex = 7,
};

/// 128-byte fixed header.  Every multi-byte field is little-endian; the
/// endian tag lets a foreign reader detect (and reject) a byte-order
/// mismatch before interpreting anything else.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint64_t fingerprint;
  std::uint32_t num_vertices;
  std::uint32_t num_edges;
  std::uint32_t flags;
  std::uint32_t max_degree;
  std::uint32_t diameter_lb;
  std::uint32_t diameter_ub;
  std::uint64_t weight_seed;
  std::int64_t max_weight;
  std::uint32_t reserved0;  ///< written as 0
  std::uint32_t section_count;
  std::uint64_t reserved1;  ///< written as 0
  std::uint64_t max_cached_partitions;
  std::uint64_t max_cached_samples;
  std::uint64_t file_bytes;
  std::uint64_t table_checksum;   ///< over the section table bytes
  std::uint64_t header_checksum;  ///< over this struct with the field zeroed
  std::uint32_t partition_pool_size;
  std::uint32_t reserved2;  ///< written as 0
};
static_assert(sizeof(FileHeader) == 128, "header layout is part of the file format");
static_assert(std::is_trivially_copyable_v<FileHeader>);

struct SectionRecord {
  std::uint32_t id;
  std::uint32_t reserved;
  std::uint64_t offset;    ///< absolute file offset, kAlign-aligned
  std::uint64_t length;    ///< payload bytes (padding excluded)
  std::uint64_t checksum;  ///< checksum_bytes over the payload
};
static_assert(sizeof(SectionRecord) == 32, "record layout is part of the file format");
static_assert(std::is_trivially_copyable_v<SectionRecord>);

constexpr std::uint64_t kTableBytes = kSectionCount * sizeof(SectionRecord);

std::uint64_t align_up(std::uint64_t x) { return (x + (kAlign - 1)) & ~(kAlign - 1); }

[[noreturn]] void bad(const std::string& what) { throw std::runtime_error("snapshot: " + what); }

// The artifact sections are encoded with the shared canonical encoders
// (util/bytes.hpp ByteBuf / ByteReader — the RPC wire format reuses the
// same primitives).  The section checksum has been verified before a
// reader runs, so an out-of-bounds read means a writer bug or a format
// mismatch — still rejected deterministically, never read past.
ByteReader artifact_reader(const std::byte* data, std::uint64_t size) {
  return ByteReader(data, size, "snapshot: artifact ");
}

/// Shared validation: mmap the file, check magic / version / endianness /
/// sizes / every checksum, and hand back the parsed header + table.
struct ParsedFile {
  std::shared_ptr<const MappedFile> mapped;
  FileHeader header;
  SectionRecord table[kSectionCount];
};

ParsedFile parse_and_verify(const std::filesystem::path& path) {
  ParsedFile f;
  f.mapped = MappedFile::open(path);
  const std::byte* base = f.mapped->data();
  if (f.mapped->size() < sizeof(FileHeader) + kTableBytes) bad("file truncated");
  std::memcpy(&f.header, base, sizeof(FileHeader));
  const FileHeader& h = f.header;
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) bad("bad magic");
  if (h.endian_tag != kEndianTag) bad("endianness mismatch");
  if (h.version != kSnapshotFormatVersion)
    bad("unsupported format version " + std::to_string(h.version));
  FileHeader unsummed = h;
  unsummed.header_checksum = 0;
  if (checksum_bytes(&unsummed, sizeof(unsummed)) != h.header_checksum)
    bad("header checksum mismatch");
  if (h.file_bytes != f.mapped->size()) bad("file size mismatch");
  if (h.section_count != kSectionCount) bad("unexpected section count");
  std::memcpy(f.table, base + sizeof(FileHeader), kTableBytes);
  if (checksum_bytes(f.table, kTableBytes) != h.table_checksum)
    bad("section table checksum mismatch");
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionRecord& rec = f.table[i];
    if (rec.id != i + 1) bad("unexpected section id");
    if (rec.offset % kAlign != 0) bad("section misaligned");
    if (rec.offset > h.file_bytes || rec.length > h.file_bytes - rec.offset)
      bad("section out of bounds");
    if (checksum_bytes(base + rec.offset, rec.length) != rec.checksum)
      bad("section checksum mismatch (section " + std::to_string(rec.id) + ")");
  }
  const std::uint64_t n = h.num_vertices;
  const std::uint64_t m = h.num_edges;
  if (f.table[kSecOffsets - 1].length != (n + 1) * 8 ||
      f.table[kSecAdjacency - 1].length != 2 * m * 8 ||
      f.table[kSecEdges - 1].length != m * 8 || f.table[kSecWeights - 1].length != m * 8)
    bad("section size mismatch");
  return f;
}

}  // namespace

/// The one piece of code with I/O access to GraphSnapshot internals
/// (declared friend in snapshot.hpp).
class SnapshotCodec {
 public:
  static void save(const GraphSnapshot& snap, const std::filesystem::path& path);
  static std::shared_ptr<const GraphSnapshot> load(const std::filesystem::path& path);

 private:
  static ByteBuf encode_partitions(const GraphSnapshot& snap);
  static ByteBuf encode_samples(const GraphSnapshot& snap);
  static ByteBuf encode_ch_index(const GraphSnapshot& snap);
  static void seed_artifacts(GraphSnapshot& snap, const std::byte* base,
                             const SectionRecord* table);
};

ByteBuf SnapshotCodec::encode_partitions(const GraphSnapshot& snap) {
  auto entries = snap.partition_memo_->ready_entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.seed, a.first.parts) < std::tie(b.first.seed, b.first.parts);
  });
  ByteBuf buf;
  buf.u64(entries.size());
  for (const auto& [key, part] : entries) {
    buf.u64(key.seed);
    buf.u32(key.parts);
    buf.u32(static_cast<std::uint32_t>(part->parts.size()));
    for (const auto& members : part->parts) {
      buf.u64(members.size());
      buf.raw(members.data(), members.size() * 4);
    }
  }
  return buf;
}

ByteBuf SnapshotCodec::encode_samples(const GraphSnapshot& snap) {
  auto entries = snap.sample_memo_->ready_entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.seed, a.first.eps_bits) < std::tie(b.first.seed, b.first.eps_bits);
  });
  ByteBuf buf;
  buf.u64(entries.size());
  for (const auto& [key, sample] : entries) {
    buf.u64(key.seed);
    buf.u64(key.eps_bits);
    buf.f64(sample->sample_prob);
    buf.u64(sample->units.size());
    buf.raw(sample->units.data(), sample->units.size() * 8);
  }
  return buf;
}

ByteBuf SnapshotCodec::encode_ch_index(const GraphSnapshot& snap) {
  // The artifact is single-valued (constant memo key 0), so the count is 0
  // or 1; arcs are encoded field-by-field because ChArc carries padding.
  const auto entries = snap.ch_memo_->ready_entries();
  ByteBuf buf;
  buf.u64(entries.size());
  for (const auto& [key, ch] : entries) {
    LCS_CHECK(key == 0 && ch->n == snap.g_.num_vertices() &&
                  ch->rank.size() == ch->n && ch->up_offsets.size() == std::size_t{ch->n} + 1 &&
                  ch->up_arcs.size() == ch->up_offsets[ch->n],
              "snapshot: cached CH index has unexpected shape");
    buf.u32(ch->n);
    buf.u64(ch->num_shortcuts);
    buf.raw(ch->rank.data(), std::size_t{ch->n} * 4);
    buf.raw(ch->up_offsets.data(), (std::size_t{ch->n} + 1) * 8);
    buf.u64(ch->up_arcs.size());
    for (const sssp::ChArc& arc : ch->up_arcs) {
      buf.u32(arc.to);
      buf.u64(arc.len);
    }
  }
  return buf;
}

void SnapshotCodec::save(const GraphSnapshot& snap, const std::filesystem::path& path) {
  const graph::Graph& g = snap.g_;
  // The bracket is part of the file: loaded snapshots answer diameter
  // queries without recomputation.
  const GraphSnapshot::DiameterBracket& br = snap.bracket_;

  const ByteBuf part_buf = encode_partitions(snap);
  const ByteBuf sample_buf = encode_samples(snap);
  const ByteBuf ch_buf = encode_ch_index(snap);

  struct Payload {
    const void* data;
    std::uint64_t size;
  };
  const std::span<const std::uint64_t> offs = g.csr_offsets();
  const std::span<const graph::HalfEdge> adj = g.csr_adjacency();
  const std::span<const graph::Edge> edges = g.edges();
  const graph::WeightSpan w = snap.weights_;
  const Payload payloads[kSectionCount] = {
      {offs.data(), offs.size_bytes()},      {adj.data(), adj.size_bytes()},
      {edges.data(), edges.size_bytes()},    {w.data(), w.size_bytes()},
      {part_buf.data(), part_buf.size()},    {sample_buf.data(), sample_buf.size()},
      {ch_buf.data(), ch_buf.size()}};

  SectionRecord table[kSectionCount] = {};
  std::uint64_t cursor = align_up(sizeof(FileHeader) + kTableBytes);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    table[i].id = i + 1;
    table[i].offset = cursor;
    table[i].length = payloads[i].size;
    table[i].checksum = checksum_bytes(payloads[i].data, payloads[i].size);
    cursor = align_up(cursor + payloads[i].size);
  }

  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kSnapshotFormatVersion;
  h.endian_tag = kEndianTag;
  h.fingerprint = snap.fingerprint_;
  h.num_vertices = g.num_vertices();
  h.num_edges = g.num_edges();
  h.flags = (snap.connected_ ? kFlagConnected : 0u) | (br.exact ? kFlagBracketExact : 0u) |
            (snap.opt_.prewarm_partition_pool ? kFlagPoolPrewarm : 0u);
  h.max_degree = snap.max_degree_;
  h.diameter_lb = br.lb;
  h.diameter_ub = br.ub;
  h.weight_seed = snap.opt_.weight_seed;
  h.max_weight = snap.opt_.max_weight;
  h.section_count = kSectionCount;
  h.max_cached_partitions = snap.opt_.max_cached_partitions;
  h.max_cached_samples = snap.opt_.max_cached_samples;
  h.partition_pool_size = snap.opt_.partition_pool_size;
  h.file_bytes = cursor;
  h.table_checksum = checksum_bytes(table, kTableBytes);
  h.header_checksum = 0;
  h.header_checksum = checksum_bytes(&h, sizeof(h));

  // Temp + rename: a crash mid-write never leaves a torn file under the
  // fingerprint-addressed name.
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) bad("cannot write '" + tmp.string() + "'");
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(reinterpret_cast<const char*>(table), static_cast<std::streamsize>(kTableBytes));
    std::uint64_t written = sizeof(FileHeader) + kTableBytes;
    const char zeros[kAlign] = {};
    const auto pad_to = [&](std::uint64_t target) {
      while (written < target) {
        const std::uint64_t chunk = std::min(target - written, kAlign);
        out.write(zeros, static_cast<std::streamsize>(chunk));
        written += chunk;
      }
    };
    for (std::uint32_t i = 0; i < kSectionCount; ++i) {
      pad_to(table[i].offset);
      out.write(reinterpret_cast<const char*>(payloads[i].data),
                static_cast<std::streamsize>(payloads[i].size));
      written += payloads[i].size;
    }
    pad_to(h.file_bytes);
    if (!out) bad("write failed for '" + tmp.string() + "'");
  }
  std::filesystem::rename(tmp, path);
}

void SnapshotCodec::seed_artifacts(GraphSnapshot& snap, const std::byte* base,
                                   const SectionRecord* table) {
  const std::uint32_t n = snap.g_.num_vertices();
  {
    ByteReader r = artifact_reader(base + table[kSecPartitions - 1].offset,
                                   table[kSecPartitions - 1].length);
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      GraphSnapshot::PartitionKey key;
      key.seed = r.u64();
      key.parts = r.u32();
      graph::Partition part;
      part.parts.resize(r.u32());
      for (auto& members : part.parts) {
        members.resize(r.u64());
        r.raw(members.data(), members.size() * 4);
      }
      snap.partition_memo_->seed(key, std::make_shared<const graph::Partition>(std::move(part)));
    }
    if (!r.done()) bad("trailing artifact bytes");
  }
  {
    ByteReader r = artifact_reader(base + table[kSecSamples - 1].offset,
                                   table[kSecSamples - 1].length);
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      GraphSnapshot::SampleKey key;
      key.seed = r.u64();
      key.eps_bits = r.u64();
      mincut::SparsifiedSample sample;
      sample.sample_prob = r.f64();
      sample.units.resize(r.u64());
      r.raw(sample.units.data(), sample.units.size() * 8);
      snap.sample_memo_->seed(key,
                              std::make_shared<const mincut::SparsifiedSample>(std::move(sample)));
    }
    if (!r.done()) bad("trailing artifact bytes");
  }
  {
    ByteReader r = artifact_reader(base + table[kSecChIndex - 1].offset,
                                   table[kSecChIndex - 1].length);
    const std::uint64_t count = r.u64();
    if (count > 1) bad("artifact key out of range");
    for (std::uint64_t i = 0; i < count; ++i) {
      sssp::ChIndex ch;
      ch.n = r.u32();
      if (ch.n != n) bad("artifact key out of range");
      ch.num_shortcuts = r.u64();
      ch.rank.resize(ch.n);
      r.raw(ch.rank.data(), std::uint64_t{ch.n} * 4);
      ch.up_offsets.resize(std::size_t{ch.n} + 1);
      r.raw(ch.up_offsets.data(), (std::uint64_t{ch.n} + 1) * 8);
      // ch_query reads up_arcs[up_offsets[v] .. up_offsets[v + 1]) for
      // every v, so the offsets must climb from 0 to the arc count.
      const std::uint64_t arcs = r.u64();
      if (ch.up_offsets[0] != 0 || ch.up_offsets[ch.n] != arcs ||
          !std::is_sorted(ch.up_offsets.begin(), ch.up_offsets.end()))
        bad("CH up-arc offsets are not a monotone run from 0 to the arc count");
      ch.up_arcs.resize(arcs);
      for (sssp::ChArc& arc : ch.up_arcs) {
        arc.to = r.u32();
        arc.len = r.u64();
        if (arc.to >= n) bad("artifact key out of range");
      }
      snap.ch_memo_->seed(0u, std::make_shared<const sssp::ChIndex>(std::move(ch)));
    }
    if (!r.done()) bad("trailing artifact bytes");
  }
}

std::shared_ptr<const GraphSnapshot> SnapshotCodec::load(const std::filesystem::path& path) {
  ParsedFile f = parse_and_verify(path);
  const std::byte* base = f.mapped->data();
  const FileHeader& h = f.header;
  const std::uint64_t n = h.num_vertices;
  const std::uint64_t m = h.num_edges;

  // Zero-copy: the graph arrays and weights are views into the mapping,
  // which the Graph's backing pointer keeps alive for the snapshot's life.
  const std::span<const std::uint64_t> offs{
      reinterpret_cast<const std::uint64_t*>(base + f.table[kSecOffsets - 1].offset), n + 1};
  const std::span<const graph::HalfEdge> adj{
      reinterpret_cast<const graph::HalfEdge*>(base + f.table[kSecAdjacency - 1].offset), 2 * m};
  const std::span<const graph::Edge> edges{
      reinterpret_cast<const graph::Edge*>(base + f.table[kSecEdges - 1].offset), m};
  const graph::WeightSpan weights{
      reinterpret_cast<const graph::Weight*>(base + f.table[kSecWeights - 1].offset), m};

  auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  snap->g_ = graph::Graph::from_csr(offs, adj, edges, f.mapped);
  snap->weights_ = weights;
  snap->connected_ = (h.flags & kFlagConnected) != 0;
  snap->max_degree_ = h.max_degree;
  snap->opt_.weight_seed = h.weight_seed;
  snap->opt_.max_weight = h.max_weight;
  snap->opt_.max_cached_partitions = h.max_cached_partitions;
  snap->opt_.max_cached_samples = h.max_cached_samples;
  snap->opt_.partition_pool_size = h.partition_pool_size;
  snap->opt_.prewarm_partition_pool = (h.flags & kFlagPoolPrewarm) != 0;
  snap->fingerprint_ = h.fingerprint;
  snap->bracket_ = GraphSnapshot::DiameterBracket{h.diameter_lb, h.diameter_ub,
                                                  (h.flags & kFlagBracketExact) != 0};
  snap->make_memos();
  seed_artifacts(*snap, base, f.table);
  // Proactive prewarm, after seeding: only pool slots the file did not
  // carry are computed (contains_ready skips the rest without touching the
  // stats, so a fully-seeded load still shows zero lookups).
  if (snap->opt_.prewarm_partition_pool) snap->warm_partition_pool();
  return snap;
}

void save_snapshot(const GraphSnapshot& snap, const std::filesystem::path& path) {
  SnapshotCodec::save(snap, path);
}

std::shared_ptr<const GraphSnapshot> load_snapshot(const std::filesystem::path& path) {
  return SnapshotCodec::load(path);
}

SnapshotFileInfo read_snapshot_info(const std::filesystem::path& path) {
  const ParsedFile f = parse_and_verify(path);
  const FileHeader& h = f.header;
  SnapshotFileInfo info;
  info.fingerprint = h.fingerprint;
  info.version = h.version;
  info.num_vertices = h.num_vertices;
  info.num_edges = h.num_edges;
  info.connected = (h.flags & kFlagConnected) != 0;
  info.max_degree = h.max_degree;
  info.file_bytes = h.file_bytes;
  const auto count_of = [&](std::uint32_t id) {
    ByteReader r = artifact_reader(f.mapped->data() + f.table[id - 1].offset,
                                   f.table[id - 1].length);
    return r.u64();
  };
  info.saved_partitions = count_of(kSecPartitions);
  info.saved_samples = count_of(kSecSamples);
  info.saved_ch_indexes = count_of(kSecChIndex);
  return info;
}

std::shared_ptr<const GraphSnapshot> GraphSnapshot::load(const std::filesystem::path& path) {
  return load_snapshot(path);
}

}  // namespace lcs::service
