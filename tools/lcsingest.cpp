// lcsingest: edge lists (or generated graphs) -> fingerprint-addressed
// snapshot files, plus store inspection.
//
// The ingest pipeline is the cold half of the snapshot story: freeze a
// graph once (weights, connectivity, diameter bracket, fingerprint), write
// the canonical snapshot file into a store, and let any number of later
// service processes mmap it by fingerprint in milliseconds instead of
// rebuilding.  The S5_snapshot_io bench scenario measures exactly this
// build-once / load-often asymmetry.
//
//   lcsingest --store DIR --edges FILE [--n N]        ingest an edge list
//   lcsingest --store DIR --generate gnm --n N [--m M] [--seed S]
//   lcsingest --store DIR --generate tree|hard --n N [--seed S]
//   lcsingest --store DIR --list                      list snapshots
//   lcsingest --store DIR --info FINGERPRINT          header summary
//   lcsingest --store DIR --evict FINGERPRINT         drop a snapshot
//
// Edge-list format: one "u v" pair per line, '#' starts a comment.  With
// no --n, the vertex count is max endpoint + 1.  Weight options
// (--weight-seed, --max-weight) are snapshot options: they are frozen into
// the file and land in the fingerprint.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "service/snapshot_format.hpp"
#include "service/snapshot_store.hpp"
#include "util/table.hpp"

namespace {

using namespace lcs;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "lcsingest: " << message << "\n";
  std::exit(2);
}

std::string hex_of(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fingerprint));
  return buf;
}

std::uint64_t parse_fingerprint(const std::string& s) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, 16);
  if (end == s.c_str() || *end != '\0') die("not a hex fingerprint: '" + s + "'");
  return v;
}

graph::Graph read_edge_list(const std::string& file, std::uint32_t n_override) {
  std::ifstream in(file);
  if (!in) die("cannot open edge list '" + file + "'");
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  std::uint64_t max_vertex = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(fields >> u)) continue;  // blank / comment-only line
    if (!(fields >> v)) die("line " + std::to_string(lineno) + ": expected 'u v'");
    if (u >= graph::kNoVertex || v >= graph::kNoVertex)
      die("line " + std::to_string(lineno) + ": endpoint out of 32-bit range");
    max_vertex = std::max({max_vertex, u, v});
    edges.emplace_back(static_cast<graph::VertexId>(u), static_cast<graph::VertexId>(v));
  }
  const std::uint32_t n =
      n_override > 0 ? n_override
                     : (edges.empty() ? 0 : static_cast<std::uint32_t>(max_vertex) + 1);
  return graph::Graph::from_edges(n, std::move(edges));
}

struct Args {
  std::string store;
  std::string edges;
  std::string generate;
  std::string info;
  std::string evict;
  bool list = false;
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  std::uint64_t seed = 1;
  std::uint64_t weight_seed = 7;
  graph::Weight max_weight = 16;
};

Args parse_args(int argc, char** argv) {
  Args a;
  const auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) die(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store")
      a.store = value(i, "--store");
    else if (arg == "--edges")
      a.edges = value(i, "--edges");
    else if (arg == "--generate")
      a.generate = value(i, "--generate");
    else if (arg == "--info")
      a.info = value(i, "--info");
    else if (arg == "--evict")
      a.evict = value(i, "--evict");
    else if (arg == "--list")
      a.list = true;
    else if (arg == "--n")
      a.n = static_cast<std::uint32_t>(std::stoul(value(i, "--n")));
    else if (arg == "--m")
      a.m = static_cast<std::uint32_t>(std::stoul(value(i, "--m")));
    else if (arg == "--seed")
      a.seed = std::stoull(value(i, "--seed"));
    else if (arg == "--weight-seed")
      a.weight_seed = std::stoull(value(i, "--weight-seed"));
    else if (arg == "--max-weight")
      a.max_weight = std::stoll(value(i, "--max-weight"));
    else
      die("unknown option '" + arg + "' (see the header comment for usage)");
  }
  if (a.store.empty()) die("--store is required");
  return a;
}

graph::Graph generate_graph(const Args& a) {
  if (a.n == 0) die("--generate needs --n");
  Rng rng(a.seed);
  if (a.generate == "gnm") return graph::connected_gnm(a.n, a.m > 0 ? a.m : 2 * a.n, rng);
  if (a.generate == "tree") return graph::random_tree(a.n, rng);
  if (a.generate == "hard") return graph::hard_instance(a.n, 4).g;
  die("unknown generator '" + a.generate + "' (gnm, tree, hard)");
}

int run(const Args& a) {
  service::SnapshotStore store(a.store);

  if (a.list) {
    Table t({"fingerprint", "n", "m", "connected", "bytes", "partitions", "samples", "ch"});
    for (const std::uint64_t fingerprint : store.list()) {
      const service::SnapshotFileInfo info =
          service::read_snapshot_info(store.path_of(fingerprint));
      t.row()
          .cell(hex_of(fingerprint))
          .cell(std::uint64_t{info.num_vertices})
          .cell(std::uint64_t{info.num_edges})
          .cell(info.connected ? "yes" : "no")
          .cell(info.file_bytes)
          .cell(info.saved_partitions)
          .cell(info.saved_samples)
          .cell(info.saved_ch_indexes);
    }
    t.print(std::cout, "store " + a.store);
    return 0;
  }
  if (!a.info.empty()) {
    const std::uint64_t fingerprint = parse_fingerprint(a.info);
    const service::SnapshotFileInfo info =
        service::read_snapshot_info(store.path_of(fingerprint));
    std::cout << "fingerprint:  " << hex_of(info.fingerprint) << "\n"
              << "format:       v" << info.version << "\n"
              << "vertices:     " << info.num_vertices << "\n"
              << "edges:        " << info.num_edges << "\n"
              << "connected:    " << (info.connected ? "yes" : "no") << "\n"
              << "max degree:   " << info.max_degree << "\n"
              << "file bytes:   " << info.file_bytes << "\n"
              << "artifacts:    " << info.saved_partitions << " partitions, "
              << info.saved_samples << " samples, " << info.saved_ch_indexes
              << " CH indexes\n";
    return 0;
  }
  if (!a.evict.empty()) {
    const std::uint64_t fingerprint = parse_fingerprint(a.evict);
    if (!store.evict(fingerprint)) die("fingerprint not in store: " + a.evict);
    std::cout << "evicted " << hex_of(fingerprint) << "\n";
    return 0;
  }

  if (a.edges.empty() == a.generate.empty())
    die("exactly one of --edges / --generate (or --list / --info / --evict) is required");
  const auto t_read = std::chrono::steady_clock::now();
  graph::Graph g = a.edges.empty() ? generate_graph(a) : read_edge_list(a.edges, a.n);
  const double read_ms = ms_since(t_read);

  service::GraphSnapshot::Options opt;
  opt.weight_seed = a.weight_seed;
  opt.max_weight = a.max_weight;
  const auto t_build = std::chrono::steady_clock::now();
  const auto snap = service::GraphSnapshot::build(std::move(g), opt);
  const double build_ms = ms_since(t_build);
  const auto t_save = std::chrono::steady_clock::now();
  const std::filesystem::path path = store.save(*snap);
  const double save_ms = ms_since(t_save);

  std::cout << "ingested      n=" << snap->num_vertices() << " m=" << snap->num_edges()
            << " connected=" << (snap->connected() ? "yes" : "no") << "\n"
            << "fingerprint:  " << hex_of(snap->fingerprint()) << "\n"
            << "file:         " << path.string() << " ("
            << std::filesystem::file_size(path) << " bytes)\n"
            << "timings:      read/generate " << read_ms << " ms, build " << build_ms
            << " ms, save " << save_ms << " ms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lcsingest: " << e.what() << "\n";
    return 1;
  }
}
