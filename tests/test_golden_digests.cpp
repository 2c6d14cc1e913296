// Golden-value pins for the exact referees and the service answers built on
// them.  Every expected value below is a literal recorded from the dense
// O(n^3) Stoer–Wagner and the one-BFS-per-source diameter_exact; the sparse
// kernels that replaced them must reproduce each one byte for byte.  A
// mismatch prints the observed value in the table's own literal syntax.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kp.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mincut/mincut.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace lcs;
using service::GraphSnapshot;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::ShortcutService;

/// The mix_gnm benchmark's graph: connected_gnm(300, 900) from its fixed seed.
graph::Graph mix_gnm_graph() {
  Rng gen(0x6d69785f676e6dULL);
  return graph::connected_gnm(300, 900, gen);
}

/// Dense and heavily weighted: lambda is large enough that the sparsified
/// estimator samples at p < 1 instead of clamping to the whole graph.
graph::Graph dense_graph() {
  Rng gen(0xde75e);
  return graph::connected_gnm(60, 600, gen);
}

std::shared_ptr<const GraphSnapshot> snapshot_of(graph::Graph g, graph::Weight max_weight) {
  GraphSnapshot::Options opt;
  opt.weight_seed = 0x901d;
  opt.max_weight = max_weight;
  return GraphSnapshot::build(std::move(g), opt);
}

/// One query of every kind and variant the service serves.
std::vector<QueryRequest> golden_queries() {
  std::vector<QueryRequest> out;
  auto add = [&](QueryKind kind) -> QueryRequest& {
    QueryRequest q;
    q.id = 1 + out.size();
    q.kind = kind;
    out.push_back(q);
    return out.back();
  };
  add(QueryKind::kMincut).eps = 0.5;
  add(QueryKind::kMincut).eps = 0.4;
  add(QueryKind::kMincut).karger_trials = 16;
  add(QueryKind::kShortcutQuality).beta = 1.0;
  add(QueryKind::kShortcutQuality).num_parts = 12;
  add(QueryKind::kShortcutBuild).beta = 0.75;
  add(QueryKind::kShortcutBuild).num_parts = 12;
  add(QueryKind::kMst).beta = 1.25;
  QueryRequest& pp = add(QueryKind::kPointToPoint);
  pp.s = 3;
  pp.t = 41;
  return out;
}

std::uint64_t hash_side(const std::vector<graph::VertexId>& side) {
  std::uint64_t h = hash64(side.size());
  for (const graph::VertexId v : side) h = hash64(h ^ v);
  return h;
}

std::vector<QueryResult> expect_digests(const std::shared_ptr<const GraphSnapshot>& snap,
                                       const std::vector<std::uint64_t>& expected) {
  const std::vector<QueryRequest> queries = golden_queries();
  EXPECT_EQ(queries.size(), expected.size());
  if (queries.size() != expected.size()) return {};
  const ShortcutService svc(snap, 0x5eed);
  std::vector<QueryResult> results = svc.run_batch(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& r = results[i];
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.digest(), expected[i])
        << "query " << i << " (" << service::query_kind_name(queries[i].kind)
        << ") observed 0x" << std::hex << r.digest() << "ULL";
  }
  return results;
}

/// Rows of golden_queries() that are kShortcutBuild queries.
constexpr std::size_t kBuildRows[] = {5, 6};

/// The Step-2 sampling probability the service gives build row `row` on `snap`.
double build_sample_prob(const GraphSnapshot& snap, std::size_t row) {
  const QueryRequest q = golden_queries()[row];
  EXPECT_EQ(q.kind, QueryKind::kShortcutBuild) << "row " << row;
  core::KpOptions opt;
  opt.beta = q.beta;
  opt.diameter = snap.diameter_estimate();
  return core::kp_params(snap.graph(), opt).sample_prob;
}

TEST(GoldenDigests, MixGnmQueries) {
  const auto snap = snapshot_of(mix_gnm_graph(), 16);
  // The point of the build rows here: p clamps to 1, so every large part's
  // H_i is all of E.
  for (const std::size_t row : kBuildRows)
    EXPECT_GE(build_sample_prob(*snap, row), 1.0) << "row " << row;
  const std::vector<std::uint64_t> expected = {
      0x11f7488c568925bcULL,  // mincut eps 0.5
      0x9fa598d4ce714314ULL,  // mincut eps 0.4
      0x10a4d82889904437ULL,  // karger 16 trials
      0xb9f42067fced59c3ULL,  // quality beta 1
      0x9d25eb1d9d15586bULL,  // quality 12 parts
      0x23abb35fa8f0c925ULL,  // build beta 0.75: p = 1, all of E, 12 large parts, 10 800 ids
      0x0d70c807dedcf753ULL,  // build 12 parts: p = 1, all of E, 10 large parts, 9 000 ids
      0x8a54fc33892880bbULL,  // mst
      0x28d90cb76e90ed89ULL,  // point-to-point 3 -> 41
  };
  const std::vector<QueryResult> results = expect_digests(snap, expected);
  // Every large part holds all m ids (small parts hold none).
  ASSERT_EQ(results.size(), expected.size());
  for (const std::size_t row : kBuildRows)
    EXPECT_EQ(results[row].value, results[row].cardinality * snap->graph().num_edges())
        << "row " << row;
}

TEST(GoldenDigests, DenseWeightedQueries) {
  const auto snap = snapshot_of(dense_graph(), 64);
  // The point of this graph: both sparsified queries really thin it, and
  // the build rows sample at p < 1, so their digests walk every id.
  for (const double eps : {0.5, 0.4})
    EXPECT_LT(mincut::sparsify_edges(snap->graph(), snap->weights(), eps, 1).sample_prob, 1.0)
        << "eps " << eps;
  for (const std::size_t row : kBuildRows)
    EXPECT_LT(build_sample_prob(*snap, row), 1.0) << "row " << row;
  const std::vector<std::uint64_t> expected = {
      0x64530477951301edULL,  // mincut eps 0.5
      0x824020014f0ca7b3ULL,  // mincut eps 0.4
      0xd7e2b7d02e00d21cULL,  // karger 16 trials
      0x521eeb3ea5f6dd11ULL,  // quality beta 1
      0x7cb1c48df50144a5ULL,  // quality 12 parts
      0xddf73555cb8a7e46ULL,  // build beta 0.75: p = 0.051, ids walked, 7 large parts, 1 625 ids
      0x896244a6035d2091ULL,  // build 12 parts: p = 0.068, ids walked, 8 large parts, 1 938 ids
      0x1f2f65f50ce9bbbbULL,  // mst
      0x6896feae80a38622ULL,  // point-to-point 3 -> 41
  };
  expect_digests(snap, expected);
}

struct Fixture {
  std::string name;
  graph::Graph g;
  graph::EdgeWeights w;
};

std::vector<Fixture> referee_fixtures() {
  std::vector<Fixture> out;
  auto unit = [](const graph::Graph& g) { return graph::EdgeWeights(g.num_edges(), 1); };
  auto add_unit = [&](std::string name, graph::Graph g) {
    graph::EdgeWeights w = unit(g);
    out.push_back({std::move(name), std::move(g), std::move(w)});
  };
  Rng rng(0x601d);
  add_unit("path100", graph::path_graph(100));
  add_unit("cycle64", graph::cycle_graph(64));
  add_unit("star65", graph::star_graph(65));
  add_unit("complete12", graph::complete_graph(12));
  add_unit("grid9x13", graph::grid_graph(9, 13));
  add_unit("dumbbell8x5", graph::dumbbell_graph(8, 5));
  add_unit("gnm129", graph::connected_gnm(129, 260, rng));
  add_unit("hard300", graph::hard_instance(300, 5).g);
  {
    graph::Graph g = graph::connected_gnm(200, 700, rng);
    graph::EdgeWeights w = graph::random_weights(g, 9, rng);
    out.push_back({"gnm200w", std::move(g), std::move(w)});
  }
  {
    graph::Graph g = mix_gnm_graph();
    graph::EdgeWeights w = graph::random_weights(g, 16, rng);
    out.push_back({"mixgnm300w", std::move(g), std::move(w)});
  }
  return out;
}

struct RefereePin {
  graph::Weight cut_value;
  std::uint64_t side_hash;
  std::uint32_t diameter;
};

TEST(GoldenDigests, ExactReferees) {
  const std::vector<RefereePin> expected = {
      {1, 0x4488e597ee6b41f2ULL, 99},  // path100
      {2, 0x7213b70f8b20a14bULL, 32},  // cycle64
      {1, 0xdcb3604e572f0c98ULL, 2},   // star65
      {11, 0x42caac902cc94cf3ULL, 1},  // complete12
      {2, 0x04debb266b860e0dULL, 20},  // grid9x13
      {1, 0xc8c45e3d758a75e4ULL, 7},   // dumbbell8x5
      {1, 0xe763d9731e965150ULL, 7},   // gnm129
      {2, 0x529aef299da5cf58ULL, 5},   // hard300
      {7, 0xa632720f337cd924ULL, 5},   // gnm200w
      {3, 0xeac138d88788cfe5ULL, 6},   // mixgnm300w
  };
  const std::vector<Fixture> fixtures = referee_fixtures();
  ASSERT_EQ(fixtures.size(), expected.size());
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    const Fixture& f = fixtures[i];
    const mincut::CutResult cut = mincut::stoer_wagner(f.g, f.w);
    const std::uint32_t diameter = graph::diameter_exact(f.g);
    const std::uint64_t side_hash = hash_side(cut.side);
    EXPECT_TRUE(cut.value == expected[i].cut_value && side_hash == expected[i].side_hash &&
                diameter == expected[i].diameter)
        << f.name << " observed {" << cut.value << ", 0x" << std::hex << side_hash
        << "ULL, " << std::dec << diameter << "}";
  }
}

}  // namespace
